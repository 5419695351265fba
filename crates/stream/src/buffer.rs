//! Per-object sample buffers: the stream's window onto each trajectory.
//!
//! A buffer holds an object's samples from just below the refinement fold's
//! cursor up to the feed watermark. It answers the two questions the
//! pipeline asks:
//!
//! * **Filter**: which sample *runs* fall into a λ-partition's window
//!   (including the bracketing samples just outside it), severed wherever a
//!   sample gap exceeds the eviction horizon?
//! * **Refinement**: where is the object at tick `t`? The buffer hands its
//!   samples to the refinement's covered sweep
//!   ([`trajectory::SnapshotSweep::over_runs`]), which gives exactly the
//!   virtual-point semantics of [`trajectory::Trajectory::location_at`],
//!   except that gaps beyond the horizon are not interpolated.

use trajectory::sweep::bridgeable;
use trajectory::{TimePoint, TrajPoint};

/// One object's buffered samples, time-sorted and duplicate-free (the
/// stream's feed-order check guarantees both).
#[derive(Debug, Clone, Default)]
pub(crate) struct ObjectBuffer {
    samples: Vec<TrajPoint>,
}

impl ObjectBuffer {
    /// The buffered samples, oldest first: what checkpoints export and
    /// what the refinement's covered sweep reads.
    pub fn samples(&self) -> &[TrajPoint] {
        &self.samples
    }

    /// Rebuilds a buffer from checkpointed samples. Returns `None` unless the
    /// samples are non-empty and strictly increasing in time — the invariants
    /// the feed-order check enforces on the live path.
    pub fn from_samples(samples: Vec<TrajPoint>) -> Option<Self> {
        if samples.is_empty() || samples.windows(2).any(|w| w[0].t >= w[1].t) {
            return None;
        }
        Some(ObjectBuffer { samples })
    }

    /// Appends a sample (the stream has already enforced feed order).
    pub fn push(&mut self, sample: TrajPoint) {
        debug_assert!(self.samples.last().is_none_or(|last| last.t < sample.t));
        self.samples.push(sample);
    }

    /// Number of buffered samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Timestamp of the newest buffered sample. A buffer always holds at
    /// least one sample (it is created by its first push and trimming keeps
    /// the newest).
    pub fn last_t(&self) -> TimePoint {
        // lint: allow(no-unwrap-in-lib) — buffers are created by their first push and trimming keeps the newest
        self.samples.last().expect("buffers are never empty").t
    }

    /// The sample runs intersecting `[start, end]`, each run extended to the
    /// bracketing samples (last sample at or before `start`, first sample at
    /// or after `end`) and severed wherever consecutive samples straddle a
    /// gap larger than the horizon.
    ///
    /// With an unbounded horizon this is a single slice — exactly the
    /// samples a λ-partition's sliding-window DP must see.
    pub fn runs_for_window(
        &self,
        start: TimePoint,
        end: TimePoint,
        horizon: Option<TimePoint>,
    ) -> Vec<&[TrajPoint]> {
        // Bracket indices: [i0, i1] inclusive.
        let i0 = self
            .samples
            .partition_point(|p| p.t <= start)
            .saturating_sub(1);
        let after_end = self.samples.partition_point(|p| p.t < end);
        let i1 = after_end.min(self.samples.len() - 1);
        let window = &self.samples[i0..=i1];
        if window.is_empty() {
            return Vec::new();
        }
        let mut runs = Vec::new();
        let mut run_start = 0usize;
        for i in 1..window.len() {
            if !bridgeable(window[i - 1].t, window[i].t, horizon) {
                runs.push(&window[run_start..i]);
                run_start = i;
            }
        }
        runs.push(&window[run_start..]);
        runs
    }

    /// Drops samples no longer needed once the refinement fold has passed
    /// `cursor`: everything strictly before the newest sample at or before
    /// `cursor` (which stays, as the interpolation bracket for later ticks).
    /// Returns the number of samples dropped.
    pub fn trim_before(&mut self, cursor: TimePoint) -> usize {
        let keep_from = self
            .samples
            .partition_point(|p| p.t <= cursor)
            .saturating_sub(1);
        self.samples.drain(..keep_from).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer(times: &[i64]) -> ObjectBuffer {
        let mut b = ObjectBuffer::default();
        for &t in times {
            b.push(TrajPoint::new(t as f64, 0.0, t));
        }
        b
    }

    #[test]
    fn runs_include_bracketing_samples() {
        let b = buffer(&[0, 2, 5, 9, 12]);
        // Window [3, 8]: bracket-before is t=2, bracket-after is t=9.
        let runs = b.runs_for_window(3, 8, None);
        assert_eq!(runs.len(), 1);
        let times: Vec<i64> = runs[0].iter().map(|p| p.t).collect();
        assert_eq!(times, vec![2, 5, 9]);
        // A window past the data clamps to the final sample.
        let runs = b.runs_for_window(20, 30, None);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].last().unwrap().t, 12);
    }

    #[test]
    fn runs_sever_at_gaps_larger_than_the_horizon() {
        let b = buffer(&[0, 1, 2, 10, 11]);
        // Gap of 7 missing ticks between t=2 and t=10.
        let runs = b.runs_for_window(0, 11, Some(5));
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].last().unwrap().t, 2);
        assert_eq!(runs[1].first().unwrap().t, 10);
        // A horizon of exactly the gap size bridges it.
        assert_eq!(b.runs_for_window(0, 11, Some(7)).len(), 1);
        assert_eq!(b.runs_for_window(0, 11, None).len(), 1);
    }

    #[test]
    fn checkpoint_round_trip_preserves_samples() {
        let b = buffer(&[0, 2, 5, 9]);
        let restored = ObjectBuffer::from_samples(b.samples().to_vec()).unwrap();
        assert_eq!(restored.samples(), b.samples());
        assert!(ObjectBuffer::from_samples(Vec::new()).is_none());
        let out_of_order = vec![TrajPoint::new(0.0, 0.0, 3), TrajPoint::new(0.0, 0.0, 3)];
        assert!(ObjectBuffer::from_samples(out_of_order).is_none());
    }

    #[test]
    fn trim_keeps_the_bracket_sample() {
        let mut b = buffer(&[0, 2, 5, 9]);
        assert_eq!(
            b.trim_before(6),
            2,
            "t=0 and t=2 go, t=5 stays as the bracket"
        );
        assert_eq!(b.len(), 2);
        assert_eq!(
            b.samples()[0].t,
            5,
            "the bracket for interpolation across the cursor stays"
        );
        assert_eq!(b.trim_before(0), 0, "nothing older than the first sample");
        assert_eq!(b.last_t(), 9);
    }
}
