//! The discrete time model: time points, closed intervals, and λ-length
//! partitioning of the time domain (Section 5.3 of the paper).

/// A discrete time point. The paper's time domain is the ordered set
/// `{t_1, t_2, …, t_T}`; we represent time points as `i64` ticks.
pub type TimePoint = i64;

/// A closed time interval `[start, end]` with `start <= end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeInterval {
    /// First time point of the interval (inclusive).
    pub start: TimePoint,
    /// Last time point of the interval (inclusive).
    pub end: TimePoint,
}

impl TimeInterval {
    /// Creates an interval, normalising the endpoint order.
    #[inline]
    pub fn new(a: TimePoint, b: TimePoint) -> Self {
        if a <= b {
            TimeInterval { start: a, end: b }
        } else {
            TimeInterval { start: b, end: a }
        }
    }

    /// A single-instant interval `[t, t]`.
    #[inline]
    pub const fn instant(t: TimePoint) -> Self {
        TimeInterval { start: t, end: t }
    }

    /// Number of discrete time points covered, i.e. `end - start + 1`,
    /// saturating at `i64::MAX` for intervals wider than the tick range.
    #[inline]
    pub fn num_points(&self) -> i64 {
        self.end.saturating_sub(self.start).saturating_add(1)
    }

    /// Duration `end - start` (zero for an instant), saturating at
    /// `i64::MAX` for intervals spanning more than the full tick range.
    #[inline]
    pub fn duration(&self) -> i64 {
        self.end.saturating_sub(self.start)
    }

    /// Returns `true` when `t` lies inside the interval.
    #[inline]
    pub fn contains(&self, t: TimePoint) -> bool {
        t >= self.start && t <= self.end
    }

    /// Returns `true` when the two intervals share at least one time point.
    #[inline]
    pub fn intersects(&self, other: &TimeInterval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// The intersection of the two intervals, or `None` when disjoint.
    pub fn intersection(&self, other: &TimeInterval) -> Option<TimeInterval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start <= end {
            Some(TimeInterval { start, end })
        } else {
            None
        }
    }

    /// The smallest interval covering both inputs (their convex hull in time).
    pub fn hull(&self, other: &TimeInterval) -> TimeInterval {
        TimeInterval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Iterates over every discrete time point of the interval in order.
    pub fn iter(&self) -> impl Iterator<Item = TimePoint> + '_ {
        self.start..=self.end
    }
}

/// Partitioning of a time domain into consecutive partitions of λ time points
/// each (the `T_z` partitions of Algorithm 2). The final partition may be
/// shorter when λ does not divide the domain length.
///
/// Partitions are produced so that consecutive partitions share their boundary
/// time point (`[t1, t4]`, `[t4, t7]`, … for λ = 4 in the paper's Figure 9),
/// which is what allows clusters in adjacent partitions to be joined without
/// losing candidates at partition boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimePartition {
    /// The full time domain being partitioned.
    pub domain: TimeInterval,
    /// Number of time points per partition (λ ≥ 2).
    pub lambda: i64,
}

impl TimePartition {
    /// Creates a partitioning of `domain` with partitions of `lambda` time
    /// points. `lambda` is clamped to at least 2 (a partition must span at
    /// least one segment of time).
    pub fn new(domain: TimeInterval, lambda: i64) -> Self {
        TimePartition {
            domain,
            lambda: lambda.max(2),
        }
    }

    /// The λ a partitioning runs for a requested `lambda`: at least 2 (as in
    /// [`TimePartition::new`]) and at most `i64::MAX`, the longest partition
    /// the `i64` time axis can count. Every configuration that takes a λ
    /// normalises it here, so the λ it reports is the λ it runs.
    pub fn clamp_lambda(lambda: usize) -> usize {
        lambda.clamp(2, i64::MAX as usize)
    }

    /// Number of partitions produced: one for a zero-length domain,
    /// otherwise `ceil(duration / (λ − 1))` — closed form, equal to
    /// `self.iter().count()` (saturating at `usize::MAX`).
    pub fn len(&self) -> usize {
        if self.domain.start > self.domain.end {
            return 0;
        }
        let duration = self.domain.end.abs_diff(self.domain.start);
        if duration == 0 {
            return 1;
        }
        let step = self.lambda.saturating_sub(1).max(1).unsigned_abs();
        usize::try_from(duration.div_ceil(step)).unwrap_or(usize::MAX)
    }

    /// Returns `true` when the partitioning produces no partitions (never the
    /// case for a valid domain, but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the partitions in ascending time order. Each partition
    /// covers `lambda` time points and shares its first time point with the
    /// previous partition's last time point.
    pub fn iter(&self) -> TimePartitionIter {
        TimePartitionIter {
            current_start: self.domain.start,
            domain_end: self.domain.end,
            step: self.lambda - 1,
            done: false,
        }
    }
}

/// Iterator over the partitions of a [`TimePartition`].
#[derive(Debug, Clone)]
pub struct TimePartitionIter {
    current_start: TimePoint,
    domain_end: TimePoint,
    step: i64,
    done: bool,
}

impl Iterator for TimePartitionIter {
    type Item = TimeInterval;

    fn next(&mut self) -> Option<TimeInterval> {
        if self.done || self.current_start > self.domain_end {
            return None;
        }
        let end = self
            .current_start
            .saturating_add(self.step)
            .min(self.domain_end);
        let interval = TimeInterval::new(self.current_start, end);
        if end >= self.domain_end {
            self.done = true;
        } else {
            self.current_start = end;
        }
        Some(interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interval_normalises_order() {
        let i = TimeInterval::new(5, 2);
        assert_eq!(i.start, 2);
        assert_eq!(i.end, 5);
        assert_eq!(i.num_points(), 4);
        assert_eq!(i.duration(), 3);
    }

    #[test]
    fn instant_interval() {
        let i = TimeInterval::instant(7);
        assert_eq!(i.num_points(), 1);
        assert_eq!(i.duration(), 0);
        assert!(i.contains(7));
        assert!(!i.contains(8));
    }

    #[test]
    fn interval_intersection() {
        let a = TimeInterval::new(0, 10);
        let b = TimeInterval::new(5, 15);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(TimeInterval::new(5, 10)));
        let c = TimeInterval::new(11, 20);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&c), None);
        // Touching at a single point counts as intersecting.
        let d = TimeInterval::new(10, 12);
        assert!(a.intersects(&d));
        assert_eq!(a.intersection(&d), Some(TimeInterval::instant(10)));
    }

    #[test]
    fn interval_hull() {
        let a = TimeInterval::new(0, 3);
        let b = TimeInterval::new(10, 12);
        assert_eq!(a.hull(&b), TimeInterval::new(0, 12));
    }

    #[test]
    fn interval_iter_yields_every_point() {
        let pts: Vec<_> = TimeInterval::new(3, 6).iter().collect();
        assert_eq!(pts, vec![3, 4, 5, 6]);
    }

    #[test]
    fn partition_matches_paper_figure9() {
        // Figure 9(b): time domain [t1, t7], λ = 4 → partitions [t1,t4], [t4,t7].
        let p = TimePartition::new(TimeInterval::new(1, 7), 4);
        let parts: Vec<_> = p.iter().collect();
        assert_eq!(
            parts,
            vec![TimeInterval::new(1, 4), TimeInterval::new(4, 7)]
        );
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn partition_with_remainder() {
        let p = TimePartition::new(TimeInterval::new(0, 10), 4);
        let parts: Vec<_> = p.iter().collect();
        assert_eq!(
            parts,
            vec![
                TimeInterval::new(0, 3),
                TimeInterval::new(3, 6),
                TimeInterval::new(6, 9),
                TimeInterval::new(9, 10),
            ]
        );
    }

    #[test]
    fn partition_lambda_clamped_to_two() {
        let p = TimePartition::new(TimeInterval::new(0, 4), 1);
        assert_eq!(p.lambda, 2);
        let parts: Vec<_> = p.iter().collect();
        assert_eq!(parts.len(), 4);
        assert_eq!(TimePartition::clamp_lambda(0), 2);
        assert_eq!(TimePartition::clamp_lambda(7), 7);
        assert_eq!(TimePartition::clamp_lambda(usize::MAX), i64::MAX as usize);
    }

    #[test]
    fn partition_larger_than_domain() {
        let p = TimePartition::new(TimeInterval::new(0, 3), 100);
        let parts: Vec<_> = p.iter().collect();
        assert_eq!(parts, vec![TimeInterval::new(0, 3)]);
    }

    proptest! {
        #[test]
        fn partitions_cover_domain_and_overlap_at_boundaries(
            start in -50i64..50, len in 0i64..200, lambda in 2i64..40) {
            let domain = TimeInterval::new(start, start + len);
            let partition = TimePartition::new(domain, lambda);
            let parts: Vec<_> = partition.iter().collect();
            prop_assert!(!parts.is_empty());
            prop_assert_eq!(partition.len(), parts.len());
            // First partition starts at the domain start, last ends at the end.
            prop_assert_eq!(parts.first().unwrap().start, domain.start);
            prop_assert_eq!(parts.last().unwrap().end, domain.end);
            // Consecutive partitions share exactly their boundary point.
            for w in parts.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            // Every partition except possibly the last covers exactly λ points.
            for p in &parts[..parts.len() - 1] {
                prop_assert_eq!(p.num_points(), lambda);
            }
            // Every domain time point is inside some partition.
            for t in domain.iter() {
                prop_assert!(parts.iter().any(|p| p.contains(t)));
            }
        }

        #[test]
        fn intersection_is_commutative_and_contained(
            a1 in -100i64..100, a2 in -100i64..100,
            b1 in -100i64..100, b2 in -100i64..100) {
            let a = TimeInterval::new(a1, a2);
            let b = TimeInterval::new(b1, b2);
            prop_assert_eq!(a.intersection(&b), b.intersection(&a));
            if let Some(i) = a.intersection(&b) {
                prop_assert!(i.start >= a.start && i.end <= a.end);
                prop_assert!(i.start >= b.start && i.end <= b.end);
            } else {
                prop_assert!(!a.intersects(&b));
            }
        }
    }
}
