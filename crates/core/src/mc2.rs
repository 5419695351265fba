//! MC2 — the moving-cluster baseline (Kalnis et al., SSTD 2005), used by the
//! paper's Appendix B.1 to demonstrate that moving-cluster semantics cannot
//! answer convoy queries exactly.
//!
//! A moving cluster is a chain of snapshot clusters at consecutive time
//! points whose consecutive Jaccard overlap `|c_t ∩ c_{t+1}| / |c_t ∪ c_{t+1}|`
//! is at least a threshold θ. Unlike a convoy, a moving cluster has no
//! lifetime constraint and its membership may drift over time.

use crate::query::Convoy;
use traj_cluster::{Cluster, SnapshotClusterer};
use trajectory::{SnapshotPolicy, TimePoint, TrajectoryDatabase};

/// Parameters of the MC2 baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mc2Config {
    /// Distance threshold for the snapshot clustering (the convoy query's `e`).
    pub e: f64,
    /// Density threshold for the snapshot clustering (the convoy query's `m`).
    pub m: usize,
    /// Minimum Jaccard overlap θ between consecutive snapshot clusters.
    pub theta: f64,
}

/// One moving cluster under construction.
#[derive(Debug, Clone)]
struct MovingCluster {
    /// Cluster at the chain's latest time point.
    head: Cluster,
    /// Intersection of every snapshot cluster in the chain — the objects that
    /// have been present throughout, which is what we report as the chain's
    /// "convoy interpretation".
    common: Cluster,
    start: TimePoint,
    end: TimePoint,
}

/// Runs the MC2 moving-cluster algorithm and reports each moving cluster in
/// convoy form: the objects common to the whole chain, over the chain's time
/// interval.
///
/// The output is deliberately *not* filtered by the convoy constraints `m`
/// and `k` on the chain level — reproducing the paper's point that MC2 both
/// over-reports (no lifetime constraint, drifting membership) and
/// under-reports (a high θ splits long convoys into fragments).
pub fn mc2(db: &TrajectoryDatabase, config: &Mc2Config) -> Vec<Convoy> {
    let mut results: Vec<Convoy> = Vec::new();
    let mut current: Vec<MovingCluster> = Vec::new();
    // Snapshot-clustering scratch reused across the whole domain sweep.
    let mut clusterer = SnapshotClusterer::new();

    for snapshot in db.sweep(SnapshotPolicy::Interpolate) {
        let t = snapshot.time;
        let clusters: Vec<Cluster> = if snapshot.len() < config.m {
            Vec::new()
        } else {
            clusterer
                .cluster_into(&snapshot, config.e, config.m)
                .to_vec()
        };

        let mut next: Vec<MovingCluster> = Vec::new();
        let mut cluster_used = vec![false; clusters.len()];

        for mc in &current {
            let mut extended = false;
            for (ci, cluster) in clusters.iter().enumerate() {
                if mc.head.jaccard(cluster) >= config.theta {
                    extended = true;
                    cluster_used[ci] = true;
                    next.push(MovingCluster {
                        head: cluster.clone(),
                        common: mc.common.intersection(cluster),
                        start: mc.start,
                        end: t,
                    });
                }
            }
            if !extended {
                results.push(Convoy::new(mc.common.clone(), mc.start, mc.end));
            }
        }

        for (ci, cluster) in clusters.into_iter().enumerate() {
            if !cluster_used[ci] {
                next.push(MovingCluster {
                    common: cluster.clone(),
                    head: cluster,
                    start: t,
                    end: t,
                });
            }
        }
        current = next;
    }

    for mc in current {
        results.push(Convoy::new(mc.common, mc.start, mc.end));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CmcEngine;
    use crate::query::{compare_result_sets, normalize_convoys, ConvoyQuery};
    use trajectory::{ObjectId, Trajectory};

    fn db_from(rows: Vec<Vec<(f64, f64, i64)>>) -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        for (i, samples) in rows.into_iter().enumerate() {
            db.insert(
                ObjectId(i as u64),
                Trajectory::from_tuples(samples).unwrap(),
            );
        }
        db
    }

    /// Two objects together the whole time, a third drifting in and out.
    fn drift_db() -> TrajectoryDatabase {
        db_from(vec![
            (0..12).map(|t| (t as f64, 0.0, t as i64)).collect(),
            (0..12).map(|t| (t as f64, 0.5, t as i64)).collect(),
            (0..12)
                .map(|t| {
                    let y = if (4..=7).contains(&t) { 1.0 } else { 30.0 };
                    (t as f64, y, t as i64)
                })
                .collect(),
        ])
    }

    #[test]
    fn mc2_reports_chains_without_lifetime_constraint() {
        let db = drift_db();
        let config = Mc2Config {
            e: 1.5,
            m: 2,
            theta: 0.5,
        };
        let result = mc2(&db, &config);
        assert!(!result.is_empty());
        // At least one reported chain spans the whole domain (objects 0 and 1).
        assert!(result.iter().any(|c| c.lifetime() == 12));
    }

    #[test]
    fn theta_one_requires_identical_clusters() {
        let db = drift_db();
        let strict = Mc2Config {
            e: 1.5,
            m: 2,
            theta: 1.0,
        };
        let loose = Mc2Config {
            e: 1.5,
            m: 2,
            theta: 0.4,
        };
        // With θ = 1 the chain breaks every time object 2 joins or leaves, so
        // MC2 reports more, shorter chains than with a low θ.
        let strict_result = mc2(&db, &strict);
        let loose_result = mc2(&db, &loose);
        let strict_max = strict_result.iter().map(|c| c.lifetime()).max().unwrap();
        let loose_max = loose_result.iter().map(|c| c.lifetime()).max().unwrap();
        assert!(strict_max <= loose_max);
        assert!(strict_result.len() >= loose_result.len());
    }

    #[test]
    fn mc2_misses_convoys_that_cmc_finds_with_high_theta() {
        // The lossy behaviour of Figure 19(b): a convoy of two objects with a
        // third object repeatedly joining/leaving the cluster. With θ = 1 the
        // moving-cluster chain keeps breaking, so no reported chain covers the
        // convoy's full interval.
        let db = db_from(vec![
            (0..12).map(|t| (t as f64, 0.0, t as i64)).collect(),
            (0..12).map(|t| (t as f64, 0.5, t as i64)).collect(),
            (0..12)
                .map(|t| {
                    let y = if t % 2 == 0 { 1.0 } else { 40.0 };
                    (t as f64, y, t as i64)
                })
                .collect(),
        ]);
        let query = ConvoyQuery::new(2, 12, 1.5);
        let reference = normalize_convoys(CmcEngine::Swept.run(&db, &query), &query);
        assert_eq!(reference.len(), 1, "CMC finds the 12-tick convoy");
        let reported = mc2(
            &db,
            &Mc2Config {
                e: 1.5,
                m: 2,
                theta: 1.0,
            },
        );
        let report = compare_result_sets(&reported, &reference, &query);
        assert!(
            report.false_negatives > 0,
            "θ=1 must miss the convoy that CMC finds"
        );
        assert!(report.false_positive_percent() > 0.0);
    }

    #[test]
    fn empty_database() {
        let config = Mc2Config {
            e: 1.0,
            m: 2,
            theta: 0.5,
        };
        assert!(mc2(&TrajectoryDatabase::new(), &config).is_empty());
    }
}
