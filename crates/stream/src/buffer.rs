//! Per-object sample buffers: the stream's window onto each trajectory.
//!
//! A buffer holds an object's samples from just below the refinement fold's
//! cursor up to the feed watermark. It answers the two questions the
//! pipeline asks:
//!
//! * **Filter**: which sample *runs* fall into a λ-partition's window
//!   (including the bracketing samples just outside it), severed wherever a
//!   sample gap exceeds the eviction horizon?
//! * **Refinement**: where is the object at tick `t` — exactly the virtual-
//!   point semantics of [`trajectory::Trajectory::location_at`], except that
//!   gaps beyond the horizon are not interpolated?

use trajectory::{Point, TimePoint, TrajPoint};

/// One object's buffered samples, time-sorted and duplicate-free (the
/// stream's feed-order check guarantees both).
#[derive(Debug, Clone, Default)]
pub(crate) struct ObjectBuffer {
    samples: Vec<TrajPoint>,
}

/// Returns `true` when interpolation may bridge the gap between two
/// consecutive samples: the number of missing ticks between them must not
/// exceed the horizon (`None` = any gap bridges, the batch semantics).
#[inline]
pub(crate) fn bridgeable(before: TimePoint, after: TimePoint, horizon: Option<TimePoint>) -> bool {
    match horizon {
        None => true,
        // The missing-tick count `after - before - 1` can exceed `i64` when a
        // negative-epoch sample meets a far-future watermark; a gap too wide
        // to even represent is certainly too wide to bridge.
        Some(h) => match after.checked_sub(before).and_then(|gap| gap.checked_sub(1)) {
            Some(missing) => missing <= h,
            None => false,
        },
    }
}

impl ObjectBuffer {
    /// The buffered samples, oldest first (checkpoint export).
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

    /// The object's (possibly virtual) position at tick `t`, together with
    /// whether it was interpolated. `None` outside the buffered interval or
    /// across a gap larger than the horizon.
    ///
    /// Exact samples and the shared [`TrajPoint::interpolate`] arithmetic
    /// make the result bit-identical to
    /// [`trajectory::Trajectory::location_at`] whenever the bracketing
    /// samples are buffered and the gap bridges.
    pub fn position_at(&self, t: TimePoint, horizon: Option<TimePoint>) -> Option<(Point, bool)> {
        match self.samples.binary_search_by_key(&t, |p| p.t) {
            Ok(i) => Some((self.samples[i].position(), false)),
            Err(i) => {
                if i == 0 || i == self.samples.len() {
                    return None;
                }
                let before = &self.samples[i - 1];
                let after = &self.samples[i];
                if !bridgeable(before.t, after.t, horizon) {
                    return None;
                }
                Some((TrajPoint::interpolate(before, after, t), true))
            }
        }
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
    fn position_matches_trajectory_interpolation() {
        use trajectory::Trajectory;
        let times = [0i64, 2, 5, 9];
        let b = buffer(&times);
        let traj = Trajectory::from_tuples(times.iter().map(|&t| (t as f64, 0.0, t))).unwrap();
        for t in -1..=10 {
            let expected = traj.location_at(t);
            let got = b.position_at(t, None).map(|(p, _)| p);
            assert_eq!(got, expected, "t={t}");
        }
        let (_, interpolated) = b.position_at(2, None).unwrap();
        assert!(!interpolated);
        let (_, interpolated) = b.position_at(3, None).unwrap();
        assert!(interpolated);
    }

    #[test]
    fn position_refuses_to_bridge_beyond_the_horizon() {
        let b = buffer(&[0, 10]);
        assert!(b.position_at(5, None).is_some());
        assert!(
            b.position_at(5, Some(9)).is_some(),
            "9 missing ticks, horizon 9: exactly at the horizon bridges"
        );
        assert!(b.position_at(5, Some(8)).is_none());
        // Exact samples are always visible.
        assert!(b.position_at(0, Some(1)).is_some());
        assert!(b.position_at(10, Some(1)).is_some());
    }

    #[test]
    fn bridgeable_survives_extreme_gaps_and_horizons() {
        // A gap wider than i64 severs instead of wrapping (debug: panicking).
        assert!(!bridgeable(i64::MIN + 10, i64::MAX - 10, Some(i64::MAX)));
        assert!(bridgeable(i64::MIN + 10, i64::MAX - 10, None));
        // Negative-epoch samples under a huge horizon always bridge.
        assert!(bridgeable(-100, -95, Some(i64::MAX)));
        // Gap of exactly i64::MAX ticks: i64::MAX - 1 missing, still bridges.
        assert!(bridgeable(0, i64::MAX, Some(i64::MAX)));
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
        assert!(
            b.position_at(7, None).is_some(),
            "interpolation across the cursor still works"
        );
        assert_eq!(b.trim_before(0), 0, "nothing older than the first sample");
        assert_eq!(b.last_t(), 9);
    }
}
