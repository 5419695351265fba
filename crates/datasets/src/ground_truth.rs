//! Ground-truth records of the convoys planted by the generator.

use trajectory::{ObjectId, TimeInterval, TimePoint};

/// One convoy planted into a generated dataset: the generator steered these
/// objects to stay within the profile's `e` of their group leader throughout
/// the interval, so a correct convoy algorithm queried with (m ≤ members,
/// k ≤ lifetime, e) must report a convoy containing them over (at least) this
/// interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantedConvoy {
    /// The member objects.
    pub members: Vec<ObjectId>,
    /// First tick of the planted co-movement.
    pub start: TimePoint,
    /// Last tick of the planted co-movement (inclusive).
    pub end: TimePoint,
}

impl PlantedConvoy {
    /// The planted convoy's time interval.
    pub fn interval(&self) -> TimeInterval {
        TimeInterval::new(self.start, self.end)
    }

    /// The planted convoy's lifetime in ticks.
    pub fn lifetime(&self) -> i64 {
        self.end - self.start + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_and_lifetime() {
        let planted = PlantedConvoy {
            members: vec![ObjectId(1), ObjectId(2), ObjectId(3)],
            start: 10,
            end: 30,
        };
        assert_eq!(planted.interval(), TimeInterval::new(10, 30));
        assert_eq!(planted.lifetime(), 21);
    }
}
