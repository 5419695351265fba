//! Streaming snapshot extraction: one time-ordered pass over all samples.
//!
//! [`TrajectoryDatabase::snapshot`] answers "where is everyone at time `t`?"
//! by binary-searching every trajectory, which costs `O(N log |o|)` per time
//! point and `O(T · N log |o|)` for a whole CMC run. A convoy query, however,
//! visits time points *in order*, so the searches are pure waste: a cursor
//! per object that only ever moves forward, read only while its object is
//! live, yields every snapshot of the window in
//! `O(total samples + live object-ticks + N log N)` — one sorted sweep, no
//! re-searching, no per-tick index rebuilds and no visits to objects that
//! have not started or have already ended.
//!
//! [`SnapshotSweep`] is that cursor, an `Iterator<Item = Snapshot>`. It
//! reads *runs*: a run is one object's samples together with the ticks on
//! which the object is live. [`SnapshotSweep::new`] gives every object one
//! run, its sampled interval, and then produces snapshots bit-identical to
//! per-tick [`TrajectoryDatabase::snapshot`] calls (same entry order, same
//! interpolation arithmetic), which is what lets the convoy engines switch
//! between the two extraction paths freely. [`SnapshotSweep::over_runs`]
//! takes any runs: the CuTS refinement passes each object's *covered* runs,
//! the ticks on which the filter's partition clusters hold it, so the same
//! cursors yield the coverage-restricted snapshots it folds, read from the
//! database or from a stream's buffers. [`bridgeable`] is the horizon rule
//! the sweep shares with the stream's filter runs and partition-close check.

use crate::database::ObjectId;
use crate::database::{Snapshot, SnapshotEntry, SnapshotPolicy, TrajectoryDatabase};
use crate::point::TrajPoint;
use crate::time::{TimeInterval, TimePoint};

/// Returns `true` when interpolation may bridge the gap between two
/// consecutive samples: the number of missing ticks between them must not
/// exceed the horizon (`None` = any gap bridges, the batch semantics).
#[inline]
pub fn bridgeable(before: TimePoint, after: TimePoint, horizon: Option<TimePoint>) -> bool {
    // The missing-tick count `after - before - 1` can exceed `i64` when a
    // negative-epoch sample meets a far-future watermark; a gap too wide to
    // even represent is certainly too wide to bridge.
    let missing = after.checked_sub(before).and_then(|gap| gap.checked_sub(1));
    horizon.is_none_or(|h| missing.is_some_and(|missing| missing <= h))
}

/// A forward-only cursor over one run of an object's samples: the suite's
/// one position reader.
#[derive(Debug, Clone, Copy)]
struct ObjectCursor<'a> {
    id: ObjectId,
    points: &'a [TrajPoint],
    /// Index of the last sample with `points[idx].t <= t` for the reader's
    /// current time `t` (only valid once `t` has reached `start`).
    idx: usize,
    /// The run's first and last tick, clipped to the window and to the
    /// sampled interval, so every read falls inside the samples' span.
    start: TimePoint,
    end: TimePoint,
}

impl<'a> ObjectCursor<'a> {
    /// A cursor for the ticks of `run` inside both `window` and the sampled
    /// interval (`None` when there are none), positioned by one binary
    /// search for the last sample at or before its first tick, so a read
    /// deep into a long trajectory does not linearly advance through every
    /// earlier sample.
    fn over(
        id: ObjectId,
        points: &'a [TrajPoint],
        run: TimeInterval,
        window: TimeInterval,
    ) -> Option<Self> {
        let sampled = TimeInterval::new(points.first()?.t, points.last()?.t);
        let live = run.intersection(&window)?.intersection(&sampled)?;
        let idx = points
            .partition_point(|p| p.t <= live.start)
            .saturating_sub(1);
        Some(ObjectCursor {
            id,
            points,
            idx,
            start: live.start,
            end: live.end,
        })
    }

    /// The object's entry at `t`, which must lie in `[start, end]` and not
    /// precede the previous read: the exact sample, or a virtual point by
    /// the shared [`TrajPoint::interpolate`] arithmetic (the one
    /// [`crate::Trajectory::location_at`] uses) unless `policy` is
    /// [`SnapshotPolicy::ExactOnly`] or the gap is not [`bridgeable`] within
    /// `horizon`.
    #[inline]
    fn entry(
        &mut self,
        t: TimePoint,
        policy: SnapshotPolicy,
        horizon: Option<TimePoint>,
    ) -> Option<SnapshotEntry> {
        debug_assert!(self.start <= t && t <= self.end);
        // Reads only move forward, so across a run each cursor advances at
        // most `points.len()` times: amortized O(1) per tick.
        while self.idx + 1 < self.points.len() && self.points[self.idx + 1].t <= t {
            self.idx += 1;
        }
        let before = &self.points[self.idx];
        if before.t == t {
            return Some(SnapshotEntry {
                id: self.id,
                position: before.position(),
            });
        }
        // `t <= end` is at most the last sample's time, so a sample after
        // `before` exists.
        let after = &self.points[self.idx + 1];
        (policy == SnapshotPolicy::Interpolate && bridgeable(before.t, after.t, horizon)).then(
            || SnapshotEntry {
                id: self.id,
                position: TrajPoint::interpolate(before, after, t),
            },
        )
    }
}

/// A streaming cursor that yields the successive [`Snapshot`]s of a time
/// window from a single time-ordered pass over all samples.
///
/// Snapshots are produced for **every** time point of the window, including
/// empty ones (an empty snapshot is what closes open convoy candidates, so
/// skipping it would change CMC semantics).
///
/// Only live objects are read: a cursor is admitted at its run's first tick
/// and retired after its last, so a tick costs the objects alive at it, not
/// every object of the database.
///
/// ```
/// use trajectory::{ObjectId, SnapshotPolicy, SnapshotSweep, Trajectory, TrajectoryDatabase};
///
/// let mut db = TrajectoryDatabase::new();
/// db.insert(
///     ObjectId(1),
///     Trajectory::from_tuples([(0.0, 0.0, 0), (2.0, 0.0, 2)]).unwrap(),
/// );
/// let snapshots: Vec<_> = db.sweep(SnapshotPolicy::Interpolate).collect();
/// assert_eq!(snapshots.len(), 3);
/// assert_eq!(snapshots[1].entries[0].position.x, 1.0); // interpolated at t=1
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotSweep<'a> {
    /// One cursor per run that meets the window. `cursors[admitted..]` are
    /// not yet live, ascending by first tick; each batch admitted at one
    /// tick is re-sorted by id in place.
    cursors: Vec<ObjectCursor<'a>>,
    admitted: usize,
    /// Indices of the live cursors, ascending by object id, so reading them
    /// in order yields entries sorted by id exactly like `snapshot()`.
    active: Vec<usize>,
    next_t: TimePoint,
    end: TimePoint,
    /// Set once the snapshot at `end` has been produced. The end state is a
    /// flag rather than `next_t > end` because a window ending at
    /// `i64::MAX` has no representable "past the end" time point —
    /// incrementing there is exactly the overflow this guards against.
    finished: bool,
    policy: SnapshotPolicy,
    horizon: Option<TimePoint>,
}

impl<'a> SnapshotSweep<'a> {
    /// Creates a sweep over `window` that reads every object on its sampled
    /// interval: each snapshot equals [`TrajectoryDatabase::snapshot`] at
    /// its tick (empty ones when the window holds no samples).
    pub fn new(db: &'a TrajectoryDatabase, window: TimeInterval, policy: SnapshotPolicy) -> Self {
        let runs = db.iter().map(|(id, traj)| {
            let sampled = TimeInterval::new(traj.start_time(), traj.end_time());
            (id, traj.points(), sampled)
        });
        SnapshotSweep::over_runs(runs, window, policy, None)
    }

    /// Creates a sweep over `window` that reads each object only on its
    /// runs. A run `(id, points, ticks)` makes the object live on the ticks
    /// of `ticks` that its samples span: there it has the exact sample or,
    /// unless `policy` is [`SnapshotPolicy::ExactOnly`], the interpolated
    /// position when the gap is [`bridgeable`] within `horizon` (`None` =
    /// any gap). Runs may come in any order, but the runs of one object
    /// must be disjoint: overlapping runs would read it twice.
    pub fn over_runs(
        runs: impl IntoIterator<Item = (ObjectId, &'a [TrajPoint], TimeInterval)>,
        window: TimeInterval,
        policy: SnapshotPolicy,
        horizon: Option<TimePoint>,
    ) -> Self {
        // A run that misses the window or the samples gets no cursor at all.
        let mut cursors: Vec<ObjectCursor<'a>> = runs
            .into_iter()
            .filter_map(|(id, points, run)| ObjectCursor::over(id, points, run, window))
            .collect();
        cursors.sort_unstable_by_key(|c| c.start);
        SnapshotSweep {
            cursors,
            admitted: 0,
            active: Vec::new(),
            next_t: window.start,
            end: window.end,
            finished: window.start > window.end,
            policy,
            horizon,
        }
    }

    /// A sweep that yields nothing (the whole-domain sweep of an empty
    /// database, whose time domain does not exist).
    pub fn empty(policy: SnapshotPolicy) -> SnapshotSweep<'static> {
        SnapshotSweep {
            cursors: Vec::new(),
            admitted: 0,
            active: Vec::new(),
            next_t: 1,
            end: 0,
            finished: true,
            policy,
            horizon: None,
        }
    }

    /// The number of time points the sweep has not yet produced.
    pub fn remaining(&self) -> usize {
        if self.finished {
            0
        } else {
            self.end.saturating_sub(self.next_t).saturating_add(1) as usize
        }
    }

    /// Makes live every not-yet-admitted cursor whose run starts at or
    /// before `t`, keeping `active` ascending by id.
    fn admit(&mut self, t: TimePoint) {
        let first = self.admitted;
        let count = self.cursors[first..].partition_point(|c| c.start <= t);
        if count == 0 {
            return;
        }
        self.admitted += count;
        // Admitted cursors leave the start order, so the batch may be sorted
        // by id in place; then merge it into `active` from the back.
        self.cursors[first..self.admitted].sort_unstable_by_key(|c| c.id);
        let cursors = &self.cursors;
        let (mut live, mut rest) = (self.active.len(), count);
        self.active.resize(live + count, 0);
        while rest > 0 {
            let slot = live + rest - 1;
            let arrival = first + rest - 1;
            if live > 0 && cursors[self.active[live - 1]].id > cursors[arrival].id {
                live -= 1;
                self.active[slot] = self.active[live];
            } else {
                rest -= 1;
                self.active[slot] = arrival;
            }
        }
    }
}

impl Iterator for SnapshotSweep<'_> {
    type Item = Snapshot;

    fn next(&mut self) -> Option<Snapshot> {
        if self.finished {
            return None;
        }
        let t = self.next_t;
        // Checked advance: a window ending at `i64::MAX` must flip to the
        // finished state, not wrap (release) or panic (debug) on `t + 1`.
        match t.checked_add(1) {
            Some(next) if next <= self.end => self.next_t = next,
            _ => self.finished = true,
        }

        self.admit(t);
        // Read the live cursors in id order, retiring each one whose run
        // ends at `t`: it has no entry at any later tick.
        let (policy, horizon) = (self.policy, self.horizon);
        let cursors = &mut self.cursors;
        let mut entries: Vec<SnapshotEntry> = Vec::with_capacity(self.active.len());
        self.active.retain(|&i| {
            let cursor = &mut cursors[i];
            if let Some(entry) = cursor.entry(t, policy, horizon) {
                entries.push(entry);
            }
            cursor.end > t
        });
        Some(Snapshot { time: t, entries })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for SnapshotSweep<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Trajectory;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn traj(pts: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::from_tuples(pts.iter().copied()).unwrap()
    }

    fn sample_db() -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        db.insert(
            ObjectId(1),
            traj(&[
                (0.0, 0.0, 0),
                (1.0, 0.0, 1),
                (2.0, 0.0, 2),
                (3.0, 0.0, 3),
                (4.0, 0.0, 4),
            ]),
        );
        // Irregular sampling: t=2 missing.
        db.insert(
            ObjectId(2),
            traj(&[(0.0, 1.0, 0), (1.0, 1.0, 1), (3.0, 1.0, 3), (4.0, 1.0, 4)]),
        );
        // Appears late.
        db.insert(
            ObjectId(3),
            traj(&[(2.0, 5.0, 2), (3.0, 5.0, 3), (4.0, 5.0, 4)]),
        );
        db
    }

    #[test]
    fn sweep_matches_per_tick_snapshots_exactly() {
        let db = sample_db();
        for policy in [SnapshotPolicy::Interpolate, SnapshotPolicy::ExactOnly] {
            let window = db.time_domain().unwrap();
            let swept: Vec<Snapshot> = SnapshotSweep::new(&db, window, policy).collect();
            let per_tick: Vec<Snapshot> = window.iter().map(|t| db.snapshot(t, policy)).collect();
            assert_eq!(swept, per_tick);
        }
    }

    #[test]
    fn sweep_covers_sub_windows_and_out_of_range_windows() {
        let db = sample_db();
        let swept: Vec<Snapshot> =
            SnapshotSweep::new(&db, TimeInterval::new(2, 3), SnapshotPolicy::Interpolate).collect();
        assert_eq!(swept.len(), 2);
        assert_eq!(swept[0], db.snapshot(2, SnapshotPolicy::Interpolate));
        assert_eq!(swept[1], db.snapshot(3, SnapshotPolicy::Interpolate));
        // A window entirely outside the data yields empty snapshots, exactly
        // like per-tick extraction.
        let outside: Vec<Snapshot> = SnapshotSweep::new(
            &db,
            TimeInterval::new(100, 102),
            SnapshotPolicy::Interpolate,
        )
        .collect();
        assert_eq!(outside.len(), 3);
        assert!(outside.iter().all(Snapshot::is_empty));
    }

    #[test]
    fn sub_window_sweep_seeks_instead_of_scanning_the_prefix() {
        // A window deep inside a long trajectory: the constructor must seek
        // each cursor near the window start (correctness checked here; the
        // seek keeps the first tick O(log n) instead of O(n)).
        let mut db = TrajectoryDatabase::new();
        db.insert(
            ObjectId(1),
            Trajectory::from_tuples((0..10_000).map(|t| (t as f64, 0.0, t))).unwrap(),
        );
        // Irregularly sampled neighbour, also starting long before the window.
        db.insert(
            ObjectId(2),
            Trajectory::from_tuples((0..2_000).map(|t| (t as f64 * 5.0, 1.0, t * 5))).unwrap(),
        );
        let window = TimeInterval::new(9_900, 9_920);
        let swept: Vec<Snapshot> =
            SnapshotSweep::new(&db, window, SnapshotPolicy::Interpolate).collect();
        assert_eq!(swept.len(), 21);
        for (snapshot, t) in swept.iter().zip(window.iter()) {
            assert_eq!(snapshot, &db.snapshot(t, SnapshotPolicy::Interpolate));
        }
    }

    #[test]
    fn sweep_over_empty_database_yields_empty_snapshots() {
        let db = TrajectoryDatabase::new();
        let swept: Vec<Snapshot> =
            SnapshotSweep::new(&db, TimeInterval::new(0, 2), SnapshotPolicy::Interpolate).collect();
        assert_eq!(swept.len(), 3);
        assert!(swept.iter().all(Snapshot::is_empty));
        // The whole-domain sweep of an empty database yields nothing at all.
        assert_eq!(db.sweep(SnapshotPolicy::Interpolate).count(), 0);
    }

    #[test]
    fn whole_domain_sweep_uses_the_time_domain() {
        let db = sample_db();
        let swept: Vec<Snapshot> = db.sweep(SnapshotPolicy::Interpolate).collect();
        assert_eq!(swept.len(), 5);
        assert_eq!(swept[0].time, 0);
        assert_eq!(swept[4].time, 4);
    }

    #[test]
    fn window_ending_at_i64_max_terminates_and_matches_per_tick() {
        // Regression: the sweep used to advance with a bare `next_t += 1`,
        // which panics in debug (and wraps into an infinite loop in release)
        // when the window ends at `i64::MAX`.
        let mut db = TrajectoryDatabase::new();
        db.insert(
            ObjectId(1),
            traj(&[(0.0, 0.0, i64::MAX - 2), (2.0, 0.0, i64::MAX)]),
        );
        let window = TimeInterval::new(i64::MAX - 2, i64::MAX);
        let mut sweep = SnapshotSweep::new(&db, window, SnapshotPolicy::Interpolate);
        assert_eq!(sweep.remaining(), 3);
        let swept: Vec<Snapshot> = sweep.by_ref().collect();
        assert_eq!(swept.len(), 3);
        for (snapshot, t) in swept.iter().zip([i64::MAX - 2, i64::MAX - 1, i64::MAX]) {
            assert_eq!(snapshot, &db.snapshot(t, SnapshotPolicy::Interpolate));
        }
        // The exhausted sweep stays exhausted.
        assert_eq!(sweep.remaining(), 0);
        assert_eq!(sweep.next(), None);
    }

    #[test]
    fn sweep_reports_exact_size() {
        let db = sample_db();
        let mut sweep =
            SnapshotSweep::new(&db, TimeInterval::new(0, 4), SnapshotPolicy::Interpolate);
        assert_eq!(sweep.len(), 5);
        sweep.next();
        assert_eq!(sweep.remaining(), 4);
        assert_eq!(sweep.size_hint(), (4, Some(4)));
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

    prop_compose! {
        /// Up to 24 objects with sparse, non-contiguous ids. Half of them are
        /// short-lived (every sample within three ticks of a random start),
        /// the rest irregularly sampled across the whole range; some hold a
        /// single sample.
        fn arb_db()(num_objects in 1usize..24)
            (ids in proptest::collection::btree_set(0u64..1_000, num_objects),
             tables in proptest::collection::vec(
                ((0u8..2, -20i64..20),
                 proptest::collection::btree_set(0i64..40, 1..12),
                 proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 12)),
                num_objects))
            -> TrajectoryDatabase {
            let mut db = TrajectoryDatabase::new();
            for (id, ((short_lived, start), offsets, coords)) in ids.into_iter().zip(tables) {
                let times: BTreeSet<i64> = offsets
                    .into_iter()
                    .map(|o| if short_lived == 1 { start + o % 3 } else { o - 20 })
                    .collect();
                let samples = times.into_iter().zip(coords).map(|(t, (x, y))| (x, y, t));
                db.insert(ObjectId(id), Trajectory::from_tuples(samples).unwrap());
            }
            db
        }
    }

    proptest! {
        #[test]
        fn sweep_equals_per_tick_extraction_on_random_databases(
            db in arb_db(),
            start in -40i64..40,
            len in 0i64..30,
        ) {
            let sub_window = TimeInterval::new(start, start + len);
            for policy in [SnapshotPolicy::Interpolate, SnapshotPolicy::ExactOnly] {
                let sweeps = [
                    (db.time_domain().unwrap(), db.sweep(policy)),
                    (sub_window, SnapshotSweep::new(&db, sub_window, policy)),
                ];
                for (window, mut sweep) in sweeps {
                    for t in window.iter() {
                        prop_assert_eq!(sweep.len() as i64, window.end - t + 1);
                        prop_assert_eq!(sweep.next(), Some(db.snapshot(t, policy)));
                    }
                    prop_assert_eq!(sweep.next(), None);
                }
            }
        }

        #[test]
        fn run_sweep_equals_the_restricted_snapshot(
            db in arb_db(),
            bounds in proptest::collection::vec(
                proptest::collection::btree_set(-30i64..30, 0..7),
                27,
            ),
            start in -30i64..30,
            len in 0i64..40,
            horizon in 0i64..6,
        ) {
            // Every known id plus three unknown ones (no samples). Each gets
            // disjoint runs from its sorted bounds, paired up in order: runs
            // may start before or end after the samples, and one object may
            // have several.
            let mut universe: Vec<(ObjectId, &[TrajPoint])> =
                db.iter().map(|(id, traj)| (id, traj.points())).collect();
            universe.extend([1_000, 1_001, 1_002].map(|id| (ObjectId(id), &[][..])));
            let mut runs = Vec::new();
            for (&(id, points), bounds) in universe.iter().zip(&bounds) {
                let bounds: Vec<i64> = bounds.iter().copied().collect();
                for pair in bounds.chunks_exact(2) {
                    runs.push((id, points, TimeInterval::new(pair[0], pair[1])));
                }
            }
            let covers = |id: ObjectId, t: TimePoint| {
                runs.iter().any(|&(run_id, _, run)| run_id == id && run.contains(t))
            };
            let window = TimeInterval::new(start, start + len);
            let mut unbounded =
                SnapshotSweep::over_runs(runs.clone(), window, SnapshotPolicy::Interpolate, None);
            let mut severing = SnapshotSweep::over_runs(
                runs.clone(),
                window,
                SnapshotPolicy::Interpolate,
                Some(horizon),
            );
            for t in window.iter() {
                let mut expected = db.snapshot(t, SnapshotPolicy::Interpolate);
                expected.entries.retain(|e| covers(e.id, t));
                prop_assert_eq!(unbounded.next(), Some(expected.clone()));

                // Severing reference: an entry survives unless its bracketing
                // samples, found by linear scans, lie more than `horizon`
                // missing ticks apart (an exact sample brackets itself).
                expected.entries.retain(|e| {
                    let points = db.get(e.id).unwrap().points();
                    let before = points.iter().rev().find(|p| p.t <= t).unwrap();
                    let after = points.iter().find(|p| p.t >= t).unwrap();
                    after.t - before.t - 1 <= horizon
                });
                prop_assert_eq!(severing.next(), Some(expected));
            }
            prop_assert_eq!(unbounded.next(), None);
            prop_assert_eq!(severing.next(), None);
        }
    }
}
