//! The trajectory database: a collection of object trajectories with snapshot
//! extraction, the substrate every discovery algorithm operates on.

use crate::error::{Result, TrajectoryError};
use crate::geometry::point::Point;
use crate::point::TrajPoint;
use crate::stats::DatasetStats;
use crate::time::{TimeInterval, TimePoint};
use crate::trajectory::Trajectory;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a moving object. Wrapping `u64` in a newtype keeps object
/// ids from being confused with cluster ids or candidate indices.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// How [`TrajectoryDatabase::snapshot`] treats objects whose time interval
/// covers the snapshot time but that have no exact sample there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SnapshotPolicy {
    /// Include such objects at a linearly interpolated *virtual point*
    /// (the behaviour CMC requires, Section 4 of the paper).
    Interpolate,
    /// Only include objects with an exact sample at the snapshot time.
    ExactOnly,
}

/// One object's position within a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnapshotEntry {
    /// The object the position belongs to.
    pub id: ObjectId,
    /// The position at the snapshot time.
    pub position: Point,
    /// `true` when the position was linearly interpolated rather than sampled.
    pub interpolated: bool,
}

/// The set `O_t` of object positions at one time point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Snapshot {
    /// The snapshot time.
    pub time: TimePoint,
    /// Object positions, ordered by object id.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Number of objects present in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no object is present at this time.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(id, position)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, Point)> + '_ {
        self.entries.iter().map(|e| (e.id, e.position))
    }

    /// Looks up the position of a specific object.
    pub fn position_of(&self, id: ObjectId) -> Option<Point> {
        self.entries
            .binary_search_by_key(&id, |e| e.id)
            .ok()
            .map(|i| self.entries[i].position)
    }
}

/// A collection of object trajectories keyed by [`ObjectId`].
///
/// Iteration order is deterministic (ascending object id), which keeps every
/// algorithm in the stack reproducible run-to-run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryDatabase {
    objects: BTreeMap<ObjectId, Trajectory>,
}

impl TrajectoryDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        TrajectoryDatabase {
            objects: BTreeMap::new(),
        }
    }

    /// Inserts a trajectory for `id`, replacing any previous trajectory for
    /// the same object.
    pub fn insert(&mut self, id: ObjectId, trajectory: Trajectory) {
        self.objects.insert(id, trajectory);
    }

    /// Inserts a trajectory for `id`, erroring when the object already exists.
    pub fn try_insert(&mut self, id: ObjectId, trajectory: Trajectory) -> Result<()> {
        if self.objects.contains_key(&id) {
            return Err(TrajectoryError::DuplicateObject { id: id.0 });
        }
        self.objects.insert(id, trajectory);
        Ok(())
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` when the database holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Looks up the trajectory of `id`.
    pub fn get(&self, id: ObjectId) -> Option<&Trajectory> {
        self.objects.get(&id)
    }

    /// Like [`TrajectoryDatabase::get`] but returns an error for unknown ids.
    pub fn try_get(&self, id: ObjectId) -> Result<&Trajectory> {
        self.objects
            .get(&id)
            .ok_or(TrajectoryError::UnknownObject { id: id.0 })
    }

    /// Removes an object's trajectory, returning it if present.
    pub fn remove(&mut self, id: ObjectId) -> Option<Trajectory> {
        self.objects.remove(&id)
    }

    /// Returns `true` when the object is present.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.objects.contains_key(&id)
    }

    /// Iterates over `(id, trajectory)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &Trajectory)> + '_ {
        self.objects.iter().map(|(id, t)| (*id, t))
    }

    /// All object ids in ascending order.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.keys().copied()
    }

    /// The time domain spanned by the database: the hull of every
    /// trajectory's time interval. `None` for an empty database.
    pub fn time_domain(&self) -> Option<TimeInterval> {
        let mut iter = self.objects.values();
        let first = iter.next()?.time_interval();
        Some(iter.fold(first, |acc, t| acc.hull(&t.time_interval())))
    }

    /// The set `O_t` of object positions at time `t` (Algorithm 1, line 4).
    ///
    /// With [`SnapshotPolicy::Interpolate`], any object whose interval covers
    /// `t` contributes a (possibly virtual) position; with
    /// [`SnapshotPolicy::ExactOnly`] only exact samples are reported.
    pub fn snapshot(&self, t: TimePoint, policy: SnapshotPolicy) -> Snapshot {
        let entries = self
            .iter()
            .filter_map(|(id, traj)| snapshot_entry(id, traj, t, policy))
            .collect();
        Snapshot { time: t, entries }
    }

    /// The [`SnapshotPolicy::Interpolate`] snapshot at `t` restricted to
    /// the objects in `ids`, which must be in ascending id order (unknown ids
    /// are skipped). Each entry is built by the same per-object step as
    /// [`TrajectoryDatabase::snapshot`], so the result equals the full
    /// snapshot with every other object removed, at the cost of one lookup
    /// per listed object instead of a scan of the whole database.
    pub fn snapshot_of<I>(&self, t: TimePoint, ids: I) -> Snapshot
    where
        I: IntoIterator<Item = ObjectId>,
    {
        let entries: Vec<SnapshotEntry> = ids
            .into_iter()
            .filter_map(|id| {
                snapshot_entry(id, self.objects.get(&id)?, t, SnapshotPolicy::Interpolate)
            })
            .collect();
        debug_assert!(
            entries.windows(2).all(|w| w[0].id < w[1].id),
            "snapshot_of requires ascending, distinct ids"
        );
        Snapshot { time: t, entries }
    }

    /// Streams the snapshots of the whole time domain from one time-ordered
    /// pass over all samples — amortized O(total samples + objects × time
    /// points), versus one binary search per object per tick for repeated
    /// [`TrajectoryDatabase::snapshot`] calls. The yielded snapshots are
    /// identical to per-tick extraction; [`crate::sweep::SnapshotSweep::new`]
    /// streams a window. An empty database yields no snapshots.
    pub fn sweep(&self, policy: SnapshotPolicy) -> crate::sweep::SnapshotSweep<'_> {
        match self.time_domain() {
            Some(window) => crate::sweep::SnapshotSweep::new(self, window, policy),
            None => crate::sweep::SnapshotSweep::empty(policy),
        }
    }

    /// Total number of stored samples across all trajectories (the "data
    /// size (points)" row of Table 3).
    pub fn total_points(&self) -> usize {
        self.objects.values().map(|t| t.len()).sum()
    }

    /// Dataset statistics in the shape of the paper's Table 3.
    pub fn stats(&self) -> DatasetStats {
        let num_objects = self.len();
        let total_points = self.total_points();
        let time_domain = self.time_domain();
        let time_domain_length = time_domain.map(|d| d.num_points()).unwrap_or(0);
        let average_trajectory_length = if num_objects == 0 {
            0.0
        } else {
            total_points as f64 / num_objects as f64
        };
        DatasetStats {
            num_objects,
            time_domain_length,
            average_trajectory_length,
            total_points,
        }
    }

    /// Restricts every trajectory to `interval` (dropping objects that have
    /// no samples inside it). Used to window the refinement step.
    pub fn restrict(&self, interval: TimeInterval) -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        for (id, traj) in self.iter() {
            if let Some(slice) = traj.slice(interval) {
                db.insert(id, slice);
            }
        }
        db
    }

    /// Collects every `(id, sample)` pair, useful for exporting.
    pub fn all_samples(&self) -> Vec<(ObjectId, TrajPoint)> {
        let mut out = Vec::with_capacity(self.total_points());
        for (id, traj) in self.iter() {
            for p in traj.points() {
                out.push((id, *p));
            }
        }
        out
    }
}

/// One object's entry in the snapshot at `t`, or `None` when the object is
/// absent there under `policy` — the per-object step shared by
/// [`TrajectoryDatabase::snapshot`] and [`TrajectoryDatabase::snapshot_of`].
fn snapshot_entry(
    id: ObjectId,
    traj: &Trajectory,
    t: TimePoint,
    policy: SnapshotPolicy,
) -> Option<SnapshotEntry> {
    if !traj.covers(t) {
        return None;
    }
    match policy {
        SnapshotPolicy::Interpolate => Some(SnapshotEntry {
            id,
            position: traj.location_at(t)?,
            interpolated: !traj.has_sample_at(t),
        }),
        SnapshotPolicy::ExactOnly => traj.sample_at(t).map(|p| SnapshotEntry {
            id,
            position: p.position(),
            interpolated: false,
        }),
    }
}

impl FromIterator<(ObjectId, Trajectory)> for TrajectoryDatabase {
    fn from_iter<I: IntoIterator<Item = (ObjectId, Trajectory)>>(iter: I) -> Self {
        let mut db = TrajectoryDatabase::new();
        for (id, t) in iter {
            db.insert(id, t);
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj(pts: &[(f64, f64, i64)]) -> Trajectory {
        Trajectory::from_tuples(pts.iter().copied()).unwrap()
    }

    fn sample_db() -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        // o1: fully sampled on [0, 4]
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
        // o2: missing t=2 (irregular sampling)
        db.insert(
            ObjectId(2),
            traj(&[(0.0, 1.0, 0), (1.0, 1.0, 1), (3.0, 1.0, 3), (4.0, 1.0, 4)]),
        );
        // o3: only appears from t=2
        db.insert(
            ObjectId(3),
            traj(&[(2.0, 5.0, 2), (3.0, 5.0, 3), (4.0, 5.0, 4)]),
        );
        db
    }

    #[test]
    fn insert_get_remove() {
        let mut db = sample_db();
        assert_eq!(db.len(), 3);
        assert!(db.contains(ObjectId(2)));
        assert!(db.get(ObjectId(9)).is_none());
        assert_eq!(
            db.try_get(ObjectId(9)).unwrap_err(),
            TrajectoryError::UnknownObject { id: 9 }
        );
        assert!(db.remove(ObjectId(2)).is_some());
        assert_eq!(db.len(), 2);
        assert!(!db.contains(ObjectId(2)));
    }

    #[test]
    fn try_insert_rejects_duplicates() {
        let mut db = sample_db();
        let err = db
            .try_insert(ObjectId(1), traj(&[(0.0, 0.0, 0)]))
            .unwrap_err();
        assert_eq!(err, TrajectoryError::DuplicateObject { id: 1 });
        // Plain insert replaces.
        db.insert(ObjectId(1), traj(&[(9.0, 9.0, 0)]));
        assert_eq!(db.get(ObjectId(1)).unwrap().len(), 1);
    }

    #[test]
    fn time_domain_is_hull_of_intervals() {
        let db = sample_db();
        assert_eq!(db.time_domain(), Some(TimeInterval::new(0, 4)));
        assert_eq!(TrajectoryDatabase::new().time_domain(), None);
    }

    #[test]
    fn snapshot_interpolates_missing_samples() {
        let db = sample_db();
        let snap = db.snapshot(2, SnapshotPolicy::Interpolate);
        assert_eq!(snap.len(), 3);
        // o2 has no sample at t=2: interpolated between t=1 (1,1) and t=3 (3,1).
        let o2 = snap
            .entries
            .iter()
            .find(|e| e.id == ObjectId(2))
            .expect("o2 present");
        assert!(o2.interpolated);
        assert_eq!(o2.position, Point::new(2.0, 1.0));
        // o1 has an exact sample.
        let o1 = snap.entries.iter().find(|e| e.id == ObjectId(1)).unwrap();
        assert!(!o1.interpolated);
    }

    #[test]
    fn snapshot_exact_only_skips_missing() {
        let db = sample_db();
        let snap = db.snapshot(2, SnapshotPolicy::ExactOnly);
        let ids: Vec<_> = snap.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![ObjectId(1), ObjectId(3)]);
    }

    #[test]
    fn snapshot_excludes_objects_outside_their_interval() {
        let db = sample_db();
        let snap = db.snapshot(1, SnapshotPolicy::Interpolate);
        // o3 only exists from t=2.
        assert!(snap.position_of(ObjectId(3)).is_none());
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn snapshot_position_lookup() {
        let db = sample_db();
        let snap = db.snapshot(0, SnapshotPolicy::Interpolate);
        assert_eq!(snap.position_of(ObjectId(1)), Some(Point::new(0.0, 0.0)));
        assert_eq!(snap.position_of(ObjectId(2)), Some(Point::new(0.0, 1.0)));
        assert_eq!(snap.position_of(ObjectId(99)), None);
    }

    #[test]
    fn restrict_keeps_only_objects_covering_the_window() {
        let db = sample_db();
        let restricted = db.restrict(TimeInterval::new(3, 4));
        assert_eq!(restricted.len(), 3);
        for (_, t) in restricted.iter() {
            assert!(t.start_time() >= 3);
        }
        // Restricting to a window nobody covers drops everything.
        assert!(db.restrict(TimeInterval::new(100, 200)).is_empty());
    }

    #[test]
    fn stats_match_table3_shape() {
        let db = sample_db();
        let stats = db.stats();
        assert_eq!(stats.num_objects, 3);
        assert_eq!(stats.time_domain_length, 5);
        assert_eq!(stats.total_points, 12);
        assert!((stats.average_trajectory_length - 4.0).abs() < 1e-12);
        // Empty database statistics are all zero.
        let empty = TrajectoryDatabase::new().stats();
        assert_eq!(empty.num_objects, 0);
        assert_eq!(empty.time_domain_length, 0);
        assert_eq!(empty.total_points, 0);
    }

    #[test]
    fn from_iterator_and_all_samples() {
        let db: TrajectoryDatabase = vec![
            (ObjectId(5), traj(&[(0.0, 0.0, 0), (1.0, 1.0, 1)])),
            (ObjectId(6), traj(&[(2.0, 2.0, 0)])),
        ]
        .into_iter()
        .collect();
        assert_eq!(db.len(), 2);
        let samples = db.all_samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].0, ObjectId(5));
    }

    #[test]
    fn snapshot_entries_are_sorted_by_object_id() {
        // `Snapshot::position_of` binary-searches on the id, so snapshot
        // extraction must emit entries in ascending id order regardless of
        // insertion order.
        let mut db = TrajectoryDatabase::new();
        for id in [40u64, 7, 23] {
            db.insert(ObjectId(id), traj(&[(id as f64, 0.0, 0)]));
        }
        let snap = db.snapshot(0, SnapshotPolicy::Interpolate);
        let ids: Vec<u64> = snap.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![7, 23, 40]);
        for id in [7u64, 23, 40] {
            assert_eq!(
                snap.position_of(ObjectId(id)),
                Some(Point::new(id as f64, 0.0))
            );
        }
    }

    #[test]
    fn snapshot_includes_interval_boundaries_only() {
        // o1 covers [0, 4]: both closed endpoints contribute a position, the
        // ticks just outside do not.
        let db = sample_db();
        assert!(db
            .snapshot(0, SnapshotPolicy::Interpolate)
            .position_of(ObjectId(1))
            .is_some());
        assert!(db
            .snapshot(4, SnapshotPolicy::Interpolate)
            .position_of(ObjectId(1))
            .is_some());
        assert!(db.snapshot(5, SnapshotPolicy::Interpolate).is_empty());
        assert!(db.snapshot(-1, SnapshotPolicy::Interpolate).is_empty());
    }

    #[test]
    fn restricting_preserves_snapshots_inside_the_window() {
        // Windowing the database must not change the `O_t` sets for times
        // inside the window (the refinement step depends on this).
        let db = sample_db();
        let restricted = db.restrict(TimeInterval::new(3, 4));
        assert_eq!(
            restricted.snapshot(3, SnapshotPolicy::ExactOnly),
            db.snapshot(3, SnapshotPolicy::ExactOnly)
        );
        assert_eq!(
            restricted.snapshot(4, SnapshotPolicy::ExactOnly),
            db.snapshot(4, SnapshotPolicy::ExactOnly)
        );
    }

    #[test]
    fn snapshot_of_is_the_full_snapshot_restricted_to_the_ids() {
        // Every subset of {1, 2, 3} plus an unknown id, at every tick around
        // the domain.
        let db = sample_db();
        for t in -1..=5 {
            for mask in 0u64..16 {
                let ids: Vec<ObjectId> = (1..=4u64)
                    .filter(|i| mask & (1 << (i - 1)) != 0)
                    .map(ObjectId)
                    .collect();
                let mut expected = db.snapshot(t, SnapshotPolicy::Interpolate);
                expected.entries.retain(|e| ids.contains(&e.id));
                assert_eq!(db.snapshot_of(t, ids.iter().copied()), expected);
            }
        }
    }

    #[test]
    fn iteration_is_ordered_by_id() {
        let mut db = TrajectoryDatabase::new();
        db.insert(ObjectId(30), traj(&[(0.0, 0.0, 0)]));
        db.insert(ObjectId(10), traj(&[(0.0, 0.0, 0)]));
        db.insert(ObjectId(20), traj(&[(0.0, 0.0, 0)]));
        let ids: Vec<_> = db.object_ids().collect();
        assert_eq!(ids, vec![ObjectId(10), ObjectId(20), ObjectId(30)]);
    }
}
