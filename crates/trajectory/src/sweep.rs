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
//! [`SnapshotSweep`] is that cursor. It is an `Iterator<Item = Snapshot>`
//! producing snapshots bit-identical to per-tick
//! [`TrajectoryDatabase::snapshot`] calls (same entry order, same
//! interpolation arithmetic), which is what lets the convoy engines switch
//! between the two extraction paths freely.
//!
//! [`CoverageReader`] steps the same per-object cursor over a changing set
//! of covered objects, reading `&[TrajPoint]` slices from the database or
//! from a stream's buffers: it builds every snapshot of the CuTS refinement
//! fold. [`bridgeable`] is the horizon rule it shares with the stream's
//! filter runs and partition-close check.

use crate::database::ObjectId;
use crate::database::{Snapshot, SnapshotEntry, SnapshotPolicy, TrajectoryDatabase};
use crate::point::TrajPoint;
use crate::time::{TimeInterval, TimePoint};
use std::collections::BTreeSet;

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

/// A forward-only cursor into one object's sample list: the suite's one
/// position reader, behind both [`SnapshotSweep`] and [`CoverageReader`].
#[derive(Debug, Clone, Copy)]
struct ObjectCursor<'a> {
    id: ObjectId,
    points: &'a [TrajPoint],
    /// Index of the last sample with `points[idx].t <= t` for the reader's
    /// current time `t` (only valid once `t` has reached the object's start).
    idx: usize,
}

impl<'a> ObjectCursor<'a> {
    /// A cursor positioned for reads at `t` and later: one binary search for
    /// the last sample at or before `t`, so a read deep into a long
    /// trajectory does not linearly advance through every earlier sample.
    fn seek(id: ObjectId, points: &'a [TrajPoint], t: TimePoint) -> Self {
        let idx = points.partition_point(|p| p.t <= t).saturating_sub(1);
        ObjectCursor { id, points, idx }
    }

    /// The object's entry at `t`, which must not precede the previous read:
    /// the exact sample, or a virtual point by the shared
    /// [`TrajPoint::interpolate`] arithmetic (the one
    /// [`crate::Trajectory::location_at`] uses) unless `policy` is
    /// [`SnapshotPolicy::ExactOnly`] or the gap is not [`bridgeable`] within
    /// `horizon`. `None` outside the sampled interval.
    #[inline]
    fn entry(
        &mut self,
        t: TimePoint,
        policy: SnapshotPolicy,
        horizon: Option<TimePoint>,
    ) -> Option<SnapshotEntry> {
        if t < self.points.first()?.t || t > self.points.last()?.t {
            return None;
        }
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
/// Only live objects are read: a cursor is admitted at its object's first
/// sample and retired after its last, so a tick costs the objects alive at
/// it, not every object of the database.
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
    /// One cursor per object whose sampled interval meets the window.
    /// `cursors[admitted..]` are not yet live, ascending by first sample;
    /// each batch admitted at one tick is re-sorted by id in place.
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
}

impl<'a> SnapshotSweep<'a> {
    /// Creates a sweep over `window` (clamped to nothing when the window is
    /// empty of objects — the iterator then yields empty snapshots).
    pub fn new(db: &'a TrajectoryDatabase, window: TimeInterval, policy: SnapshotPolicy) -> Self {
        // An object whose sampled interval misses the window has no entry in
        // it, so it gets no cursor at all.
        let mut cursors: Vec<ObjectCursor<'a>> = db
            .iter()
            .filter(|(_, traj)| traj.start_time() <= window.end && traj.end_time() >= window.start)
            .map(|(id, traj)| ObjectCursor::seek(id, traj.points(), window.start))
            .collect();
        cursors.sort_unstable_by_key(|c| c.points[0].t);
        SnapshotSweep {
            cursors,
            admitted: 0,
            active: Vec::new(),
            next_t: window.start,
            end: window.end,
            finished: window.start > window.end,
            policy,
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

    /// Makes live every not-yet-admitted cursor whose first sample is at or
    /// before `t`, keeping `active` ascending by id.
    fn admit(&mut self, t: TimePoint) {
        let first = self.admitted;
        let count = self.cursors[first..].partition_point(|c| c.points[0].t <= t);
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
        // Read the live cursors in id order, retiring each one whose last
        // sample is at or before `t`: it has no entry at any later tick.
        let policy = self.policy;
        let cursors = &mut self.cursors;
        let mut entries: Vec<SnapshotEntry> = Vec::with_capacity(self.active.len());
        self.active.retain(|&i| {
            let cursor = &mut cursors[i];
            if let Some(entry) = cursor.entry(t, policy, None) {
                entries.push(entry);
            }
            cursor.points.last().is_some_and(|last| last.t > t)
        });
        Some(Snapshot { time: t, entries })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for SnapshotSweep<'_> {}

/// Reads coverage-restricted [`SnapshotPolicy::Interpolate`] snapshots at
/// rising ticks: the position reader of the CuTS refinement fold, over the
/// database (batch) or the ingest buffers (stream).
///
/// Each call merge-walks the tick's coverage against the previous call's
/// cursors. An object that stays covered steps its cursor forward, a newly
/// covered object costs one `points_of` lookup and one binary search, and an
/// object that left the coverage is dropped. Coverage changes only at
/// λ-partition boundaries, so a read costs amortized O(1) per covered
/// object-tick, and the cursor buffers are reused across calls.
///
/// Entries match [`TrajectoryDatabase::snapshot`] restricted to the coverage
/// (same order, same arithmetic), except that with a `horizon` a gap that is
/// not [`bridgeable`] yields no virtual point.
#[derive(Debug, Clone)]
pub struct CoverageReader<'a> {
    horizon: Option<TimePoint>,
    /// The previous call's cursors, ascending by id.
    cursors: Vec<ObjectCursor<'a>>,
    /// Where the next call builds its cursors before swapping them in.
    spare: Vec<ObjectCursor<'a>>,
}

impl<'a> CoverageReader<'a> {
    /// A reader that interpolates across gaps of at most `horizon` missing
    /// ticks (`None` = any gap, the batch semantics).
    pub fn new(horizon: Option<TimePoint>) -> Self {
        CoverageReader {
            horizon,
            cursors: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The snapshot at `t` of the objects in `coverage`, positions read from
    /// the sample slices `points_of` returns (`None` skips the object).
    /// Ticks must not decrease from one call to the next.
    pub fn snapshot<F>(
        &mut self,
        t: TimePoint,
        coverage: &BTreeSet<ObjectId>,
        mut points_of: F,
    ) -> Snapshot
    where
        F: FnMut(ObjectId) -> Option<&'a [TrajPoint]>,
    {
        self.spare.clear();
        let mut previous = self.cursors.iter().peekable();
        for &id in coverage {
            while previous.next_if(|c| c.id < id).is_some() {}
            if let Some(cursor) = previous.next_if(|c| c.id == id) {
                self.spare.push(*cursor);
            } else if let Some(points) = points_of(id) {
                self.spare.push(ObjectCursor::seek(id, points, t));
            }
        }
        std::mem::swap(&mut self.cursors, &mut self.spare);
        let horizon = self.horizon;
        let mut entries = Vec::with_capacity(self.cursors.len());
        for cursor in &mut self.cursors {
            if let Some(entry) = cursor.entry(t, SnapshotPolicy::Interpolate, horizon) {
                entries.push(entry);
            }
        }
        Snapshot { time: t, entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Trajectory;
    use proptest::prelude::*;

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
        fn coverage_reader_equals_the_restricted_snapshot(
            db in arb_db(),
            ticks in proptest::collection::btree_set(-25i64..25, 1..20),
            masks in proptest::collection::vec(0u64..u64::MAX, 20),
            horizon in 0i64..6,
        ) {
            // Every known id plus three unknown ones; bit `i` of `covered`
            // covers `universe[i]`.
            let mut universe: Vec<ObjectId> = db.iter().map(|(id, _)| id).collect();
            universe.extend([ObjectId(1_000), ObjectId(1_001), ObjectId(1_002)]);
            let mut unbounded = CoverageReader::new(None);
            let mut severing = CoverageReader::new(Some(horizon));
            let mut covered = 0u64;
            for (&t, mask) in ticks.iter().zip(masks) {
                // A non-zero flip: the coverage changes at every tick, so
                // objects leave and come back.
                covered ^= 1 + mask % ((1 << universe.len()) - 1);
                let coverage: BTreeSet<ObjectId> = universe
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| covered & (1 << bit) != 0)
                    .map(|(_, &id)| id)
                    .collect();
                let points_of = |id| db.get(id).map(Trajectory::points);

                let mut expected = db.snapshot(t, SnapshotPolicy::Interpolate);
                expected.entries.retain(|e| coverage.contains(&e.id));
                prop_assert_eq!(unbounded.snapshot(t, &coverage, points_of), expected.clone());

                // Severing reference: an entry survives unless its bracketing
                // samples, found by linear scans, lie more than `horizon`
                // missing ticks apart (an exact sample brackets itself).
                expected.entries.retain(|e| {
                    let points = db.get(e.id).unwrap().points();
                    let before = points.iter().rev().find(|p| p.t <= t).unwrap();
                    let after = points.iter().find(|p| p.t >= t).unwrap();
                    after.t - before.t - 1 <= horizon
                });
                prop_assert_eq!(severing.snapshot(t, &coverage, points_of), expected);
            }
        }
    }
}
