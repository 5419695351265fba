//! CuTS-equivalence property tests: the filter and the refinement read only
//! the objects they can use, and must produce exactly what the
//! all-objects versions produced.
//!
//! * [`filter_simplified`] builds each λ-partition's items from an active
//!   set of trajectories whose interval meets the window. The oracle here
//!   is the all-objects scan: `SubTrajectory::for_window` on every
//!   simplified trajectory for every partition, in slice order.
//! * [`refine_partitions`] sweeps each object only on its covered runs. The
//!   oracle is a full-domain [`SnapshotSweep`] over every object, each
//!   snapshot restricted to the coverage and folded through a plain
//!   `CmcState`; the refinement must also be the same on every
//!   [`CmcEngine`].
//! * The tick two consecutive partitions share clusters alike restricted
//!   to either partition's members or to their union: the restriction
//!   theorem of `convoy_core::cuts::refine` holds for each partition
//!   covering a tick alone, which is why the stream folds a shared tick
//!   once, with the earlier partition's coverage.
//! * The filter's partitions hold pairwise-disjoint clusters, like every
//!   DBSCAN output.
//! * The filter dismisses no convoy: at every tick, each cluster of the
//!   full snapshot lies inside one cluster of every partition whose window
//!   holds the tick — step 1 of the exactness argument of
//!   `convoy_core::cuts::refine`, which the Lemma 1–3 bounds carry. Dense
//!   clumps ride along, so snapshot clusters are often far larger than `m`.
//!
//! The databases churn: objects start late and end early, some have a
//! single sample, sampling has gaps, and the simplified slice handed to the
//! filter is shuffled out of id order (its order fixes DBSCAN's scan order,
//! so the active set must keep it).

use convoy_core::cuts::filter::{filter_simplified, simplify_database, FilterOutput};
use convoy_core::{
    auto_delta, auto_lambda, cluster_partition, refine_partitions, CmcEngine, CmcState, CmcStats,
    Convoy, ConvoyQuery, CutsConfig, CutsVariant, Discovery, Method, PartitionClusters,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use traj_cluster::{snapshot_clusters, Cluster, SubTrajectory};
use traj_simplify::{SimplifiedTrajectory, ToleranceMode};
use trajectory::{
    ObjectId, Snapshot, SnapshotPolicy, SnapshotSweep, TimeInterval, TimePartition, TrajPoint,
    Trajectory, TrajectoryDatabase,
};

/// The all-objects filter: every λ-partition scans every simplified
/// trajectory for a sub-trajectory in the window.
#[allow(deprecated)] // `FilterOutput::candidates`, always empty
fn all_objects_filter(
    simplified: &[(ObjectId, SimplifiedTrajectory)],
    db: &TrajectoryDatabase,
    query: &ConvoyQuery,
    config: &CutsConfig,
    delta: f64,
) -> FilterOutput {
    let original_points = db.total_points();
    let simplified_points = simplified.iter().map(|(_, s)| s.num_points()).sum();
    let lambda = config
        .lambda
        .unwrap_or_else(|| auto_lambda(simplified.iter().map(|(_, s)| s), query.k));
    let Some(domain) = db.time_domain() else {
        return FilterOutput {
            candidates: Vec::new(),
            partitions: Vec::new(),
            delta,
            lambda,
            original_points,
            simplified_points,
        };
    };
    let distance = config.variant.segment_distance();
    let mut partitions = Vec::new();
    for window in TimePartition::new(domain, lambda as i64).iter() {
        let items: Vec<SubTrajectory> = simplified
            .iter()
            .filter_map(|(id, s)| SubTrajectory::for_window(*id, s, window))
            .collect();
        let clustered = cluster_partition(window, &items, query, distance, config.tolerance_mode);
        partitions.push(clustered);
    }
    FilterOutput {
        candidates: Vec::new(),
        partitions,
        delta,
        lambda,
        original_points,
        simplified_points,
    }
}

/// Restricts a snapshot to the objects in `coverage`.
fn restrict_snapshot(mut snapshot: Snapshot, coverage: &BTreeSet<ObjectId>) -> Snapshot {
    snapshot.entries.retain(|e| coverage.contains(&e.id));
    snapshot
}

/// The full-sweep refinement, written without the code under test: one
/// full-domain [`SnapshotSweep`] over every object, each tick restricted to
/// the union of the clusters of every partition that contains it and folded
/// through a plain [`CmcState`].
fn full_sweep_refine(
    db: &TrajectoryDatabase,
    query: &ConvoyQuery,
    partitions: &[PartitionClusters],
) -> (Vec<Convoy>, CmcStats) {
    let (Some(first), Some(last)) = (partitions.first(), partitions.last()) else {
        return (Vec::new(), CmcStats::default());
    };
    let domain = TimeInterval::new(first.window.start, last.window.end);
    let mut state = CmcState::new(query);
    for snapshot in SnapshotSweep::new(db, domain, SnapshotPolicy::Interpolate) {
        let coverage: BTreeSet<ObjectId> = partitions
            .iter()
            .filter(|p| p.window.contains(snapshot.time))
            .flat_map(|p| p.clusters.iter().flat_map(|c| c.iter()))
            .collect();
        state.ingest_snapshot(&restrict_snapshot(snapshot, &coverage));
    }
    state.finish_with_stats()
}

prop_compose! {
    /// A churning database of up to 12 random walks with sparse ids. Each
    /// object draws its first tick (late starts), a set of sampled tick
    /// offsets (one offset makes a single-sample trajectory, a short span an
    /// early end, sparse offsets sampling gaps), a start position and walk
    /// steps that keep objects close enough to cluster.
    fn arb_db()(objects in proptest::collection::vec(
        (
            (0i64..40, proptest::collection::btree_set(0i64..30, 1..12)),
            (-4.0f64..4.0, -4.0f64..4.0),
            proptest::collection::vec((-1.5f64..1.5, -1.5f64..1.5), 12),
        ),
        0..12,
    )) -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        for (i, ((start, offsets), (mut x, mut y), steps)) in objects.into_iter().enumerate() {
            let points: Vec<TrajPoint> = offsets
                .into_iter()
                .zip(steps)
                .map(|(offset, (dx, dy))| {
                    x += dx;
                    y += dy;
                    TrajPoint::new(x, y, start + offset)
                })
                .collect();
            db.insert(ObjectId(3 + 7 * i as u64), Trajectory::from_points(points).unwrap());
        }
        db
    }
}

prop_compose! {
    /// [`arb_db`] plus up to three dense clumps: groups of 3 to 6 objects
    /// (ids from 1000 up) that follow one random walk, each member within a
    /// small jitter of it, over a shared run of ticks. Snapshots then hold
    /// clusters well above `m`, which a partition's looser bounds may merge
    /// with their neighbours.
    fn arb_clumped_db()(
        db in arb_db(),
        clumps in proptest::collection::vec(
            (
                (0i64..40, 1usize..12, 3usize..7),
                (
                    (-4.0f64..4.0, -4.0f64..4.0),
                    proptest::collection::vec((-1.5f64..1.5, -1.5f64..1.5), 12),
                ),
                proptest::collection::vec((-0.3f64..0.3, -0.3f64..0.3), 72),
            ),
            0..4,
        ),
    ) -> TrajectoryDatabase {
        let mut db = db;
        for (c, ((start, ticks, members), ((mut x, mut y), steps), jitter)) in
            clumps.into_iter().enumerate()
        {
            let path: Vec<(f64, f64, i64)> = steps
                .into_iter()
                .take(ticks)
                .enumerate()
                .map(|(i, (dx, dy))| {
                    x += dx;
                    y += dy;
                    (x, y, start + i as i64)
                })
                .collect();
            for member in 0..members {
                let points = path.iter().enumerate().map(|(i, &(x, y, t))| {
                    let (jx, jy) = jitter[member * 12 + i];
                    TrajPoint::new(x + jx, y + jy, t)
                });
                let id = ObjectId(1000 + 10 * c as u64 + member as u64);
                db.insert(id, Trajectory::from_points(points.collect()).unwrap());
            }
        }
        db
    }
}

/// The simplified slice in a shuffled order: entry `i` goes to the rank of
/// `keys[i]` (ties broken by position), so the slice is generally not
/// sorted by id.
fn shuffled(
    simplified: Vec<(ObjectId, SimplifiedTrajectory)>,
    keys: &[u64],
) -> Vec<(ObjectId, SimplifiedTrajectory)> {
    let mut keyed: Vec<(u64, usize, (ObjectId, SimplifiedTrajectory))> = simplified
        .into_iter()
        .enumerate()
        .map(|(i, entry)| (keys[i % keys.len()], i, entry))
        .collect();
    keyed.sort_by_key(|(key, i, _)| (*key, *i));
    keyed.into_iter().map(|(_, _, entry)| entry).collect()
}

/// A CuTS configuration from generated knobs: automatic or explicit δ and
/// λ, either tolerance mode.
fn config(
    variant: CutsVariant,
    delta: Option<f64>,
    lambda: usize,
    global_tolerance: bool,
) -> CutsConfig {
    let mut config = CutsConfig::new(variant);
    config.delta = delta;
    // λ = 0 selects the automatic guideline.
    config.lambda = (lambda > 0).then_some(lambda);
    if global_tolerance {
        config = config.with_tolerance_mode(ToleranceMode::Global);
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn active_set_filter_matches_the_all_objects_scan(
        db in arb_db(),
        keys in proptest::collection::vec(0u64..8, 1..13),
        m in 2usize..4,
        k in 1usize..6,
        e in 0.5f64..4.0,
        delta in 0.0f64..2.0,
        lambda in 0usize..9,
        global in 0u8..2,
    ) {
        let query = ConvoyQuery::new(m, k, e);
        for variant in CutsVariant::ALL {
            let config = config(variant, (delta > 0.2).then_some(delta), lambda, global == 1);
            let delta = config.delta.unwrap_or_else(|| auto_delta(&db, query.e));
            let simplified = shuffled(simplify_database(&db, &config, delta), &keys);
            let got = filter_simplified(&simplified, &db, &query, &config, delta);
            let expected = all_objects_filter(&simplified, &db, &query, &config, delta);
            prop_assert_eq!(&got.partitions, &expected.partitions, "{} partitions", variant);
            prop_assert_eq!(got, expected, "{}", variant);
        }
    }

    #[test]
    fn every_partition_holds_pairwise_disjoint_clusters(
        db in arb_db(),
        keys in proptest::collection::vec(0u64..8, 1..13),
        m in 2usize..4,
        k in 1usize..6,
        e in 0.5f64..4.0,
        delta in 0.0f64..2.0,
        lambda in 0usize..9,
        global in 0u8..2,
    ) {
        // TRAJ-DBSCAN, like DBSCAN, puts every item in at most one cluster.
        let query = ConvoyQuery::new(m, k, e);
        for variant in CutsVariant::ALL {
            let config = config(variant, (delta > 0.2).then_some(delta), lambda, global == 1);
            let delta = config.delta.unwrap_or_else(|| auto_delta(&db, query.e));
            let simplified = shuffled(simplify_database(&db, &config, delta), &keys);
            let output = filter_simplified(&simplified, &db, &query, &config, delta);
            for partition in &output.partitions {
                let mut seen = BTreeSet::new();
                for id in partition.clusters.iter().flat_map(|c| c.iter()) {
                    prop_assert!(
                        seen.insert(id),
                        "{} {:?}: {:?} is in two clusters",
                        variant,
                        partition.window,
                        id
                    );
                }
            }
        }
    }

    #[test]
    fn every_snapshot_cluster_lies_in_one_cluster_of_each_covering_partition(
        db in arb_clumped_db(),
        keys in proptest::collection::vec(0u64..8, 1..13),
        m in 2usize..4,
        e in 0.5f64..4.0,
        delta in 0.0f64..2.0,
        lambda in 0usize..9,
    ) {
        let query = ConvoyQuery::new(m, 1, e);
        let Some(domain) = db.time_domain() else {
            return Ok(());
        };
        let snapshots: Vec<(i64, Vec<Cluster>)> =
            SnapshotSweep::new(&db, domain, SnapshotPolicy::Interpolate)
                .map(|snapshot| (snapshot.time, snapshot_clusters(&snapshot, e, m)))
                .collect();
        for variant in CutsVariant::ALL {
            for global in [false, true] {
                let config = config(variant, (delta > 0.2).then_some(delta), lambda, global);
                let delta = config.delta.unwrap_or_else(|| auto_delta(&db, query.e));
                let simplified = shuffled(simplify_database(&db, &config, delta), &keys);
                let output = filter_simplified(&simplified, &db, &query, &config, delta);
                for (t, clusters) in &snapshots {
                    let covering = output.partitions.iter().filter(|p| p.window.contains(*t));
                    for partition in covering {
                        for cluster in clusters {
                            prop_assert!(
                                partition.clusters.iter().any(|p| cluster.is_subset_of(p)),
                                "{} (global tolerance: {}) at t={}: snapshot cluster {:?} \
                                 is in no single cluster of partition {:?}: {:?}",
                                variant,
                                global,
                                t,
                                cluster,
                                partition.window,
                                partition.clusters
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn coverage_lookup_refine_matches_the_full_sweep(
        db in arb_db(),
        keys in proptest::collection::vec(0u64..8, 1..13),
        m in 2usize..4,
        k in 1usize..6,
        e in 0.5f64..4.0,
        delta in 0.0f64..2.0,
        lambda in 0usize..9,
        global in 0u8..2,
    ) {
        let query = ConvoyQuery::new(m, k, e);
        for variant in CutsVariant::ALL {
            let config = config(variant, (delta > 0.2).then_some(delta), lambda, global == 1);
            let delta = config.delta.unwrap_or_else(|| auto_delta(&db, query.e));
            let simplified = shuffled(simplify_database(&db, &config, delta), &keys);
            let output = filter_simplified(&simplified, &db, &query, &config, delta);
            let (convoys, stats) = refine_partitions(&db, &query, &output.partitions);
            let (expected_convoys, expected_stats) =
                full_sweep_refine(&db, &query, &output.partitions);
            prop_assert_eq!(convoys, expected_convoys, "{} convoys", variant);
            prop_assert_eq!(stats, expected_stats, "{} stats", variant);
        }
    }

    #[test]
    fn a_shared_tick_clusters_alike_under_either_partitions_coverage(
        db in arb_db(),
        keys in proptest::collection::vec(0u64..8, 1..13),
        m in 2usize..4,
        k in 1usize..6,
        e in 0.5f64..4.0,
        delta in 0.0f64..2.0,
        lambda in 0usize..9,
        global in 0u8..2,
    ) {
        let query = ConvoyQuery::new(m, k, e);
        let members = |p: &PartitionClusters| -> BTreeSet<ObjectId> {
            p.clusters.iter().flat_map(|c| c.iter()).collect()
        };
        for variant in CutsVariant::ALL {
            let config = config(variant, (delta > 0.2).then_some(delta), lambda, global == 1);
            let delta = config.delta.unwrap_or_else(|| auto_delta(&db, query.e));
            let simplified = shuffled(simplify_database(&db, &config, delta), &keys);
            let output = filter_simplified(&simplified, &db, &query, &config, delta);
            for pair in output.partitions.windows(2) {
                let t = pair[0].window.end;
                let (first, second) = (members(&pair[0]), members(&pair[1]));
                let union = first.union(&second).copied().collect();
                let snapshot = db.snapshot(t, SnapshotPolicy::Interpolate);
                let full = snapshot_clusters(&snapshot, e, m);
                for (name, coverage) in [("first", &first), ("second", &second), ("union", &union)] {
                    let restricted = restrict_snapshot(snapshot.clone(), coverage);
                    prop_assert_eq!(
                        &snapshot_clusters(&restricted, e, m),
                        &full,
                        "{} at t={}: {} partition's coverage",
                        variant,
                        t,
                        name
                    );
                }
            }
        }
    }

    #[test]
    fn coverage_lookup_refine_matches_the_full_sweep_on_arbitrary_coverage(
        db in arb_db(),
        m in 1usize..4,
        k in 1usize..6,
        e in 0.5f64..4.0,
        lambda in 2i64..9,
        clusters in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::btree_set(0u64..90, 0..6), 0..4),
            20,
        ),
    ) {
        // Coverage need not come from a filter: any cluster lists over any
        // ids, unknown ones included, must restrict the snapshots the same.
        let query = ConvoyQuery::new(m, k, e);
        let Some(domain) = db.time_domain() else {
            return Ok(());
        };
        let partitions: Vec<PartitionClusters> = TimePartition::new(domain, lambda)
            .iter()
            .zip(clusters.iter().cycle())
            .map(|(window, lists)| PartitionClusters {
                window,
                clusters: lists
                    .iter()
                    .map(|ids| Cluster::new(ids.iter().map(|&i| ObjectId(i)).collect()))
                    .collect(),
            })
            .collect();
        prop_assert_eq!(
            refine_partitions(&db, &query, &partitions),
            full_sweep_refine(&db, &query, &partitions)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_refinement_matches_the_swept_run(
        db in arb_db(),
        m in 2usize..4,
        k in 1usize..6,
        e in 0.5f64..4.0,
        lambda in 0usize..9,
        threads in 1usize..=4,
    ) {
        let query = ConvoyQuery::new(m, k, e);
        for method in [Method::Cuts, Method::CutsPlus, Method::CutsStar] {
            let variant = method.cuts_variant().unwrap();
            let config = config(variant, None, lambda, false);
            let swept = Discovery::new(method).with_config(config).run(&db, &query);
            let parallel = Discovery::new(method)
                .with_config(config)
                .with_cmc_engine(CmcEngine::Parallel { threads })
                .run(&db, &query);
            prop_assert_eq!(&parallel.convoys, &swept.convoys, "{} convoys", method);
            prop_assert_eq!(parallel.stats, swept.stats, "{} stats", method);
        }
    }
}

#[test]
fn restrict_snapshot_keeps_only_covered_objects() {
    let mut db = TrajectoryDatabase::new();
    for (i, y) in [0.0, 0.5, 1.0].into_iter().enumerate() {
        db.insert(
            ObjectId(i as u64),
            Trajectory::from_tuples((0..20).map(|t| (t as f64, y, t))).unwrap(),
        );
    }
    let snapshot = db.snapshot(0, SnapshotPolicy::Interpolate);
    assert_eq!(snapshot.len(), 3);
    let coverage: BTreeSet<ObjectId> = [ObjectId(0), ObjectId(2)].into_iter().collect();
    let restricted = restrict_snapshot(snapshot, &coverage);
    let ids: Vec<ObjectId> = restricted.iter().map(|(id, _)| id).collect();
    assert_eq!(ids, vec![ObjectId(0), ObjectId(2)]);
    assert_eq!(restricted.time, 0);
}
