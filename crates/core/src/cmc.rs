//! CMC — the Coherent Moving Cluster algorithm (Algorithm 1 of the paper).
//!
//! CMC is the exact baseline: it density-clusters the objects' (possibly
//! interpolated) positions at every time point and intersects clusters across
//! consecutive time points, reporting every chain that keeps at least `m`
//! common objects for at least `k` consecutive time points.
//!
//! It is also the building block of the CuTS refinement step, which runs CMC
//! on the candidate's objects restricted to the candidate's time window
//! ([`CmcEngine::run_windowed_with_stats`]).

use crate::engine::CmcEngine;
use crate::query::{Convoy, ConvoyQuery};
use trajectory::TrajectoryDatabase;

/// Runs CMC over the whole time domain of `db`.
///
/// Positions of objects that cover a time point without an exact sample are
/// linearly interpolated (the *virtual points* of Section 4). Time points at
/// which fewer than `m` objects are present produce no clusters, which closes
/// every open candidate chain exactly as an empty clustering would.
///
/// Snapshots are streamed from one sorted sweep over all samples (the
/// [`CmcEngine::Swept`] engine) and folded through
/// [`crate::engine::CmcState`]; use [`CmcEngine`] directly for a window, the
/// per-tick baseline or the parallel drivers.
pub fn cmc(db: &TrajectoryDatabase, query: &ConvoyQuery) -> Vec<Convoy> {
    CmcEngine::Swept.run(db, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::normalize_convoys;
    use trajectory::{ObjectId, TimeInterval, Trajectory};

    /// Builds a database from per-object position tables: `positions[i]` is a
    /// list of `(x, y, t)` samples for object `i`.
    fn db_from(positions: &[&[(f64, f64, i64)]]) -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        for (i, samples) in positions.iter().enumerate() {
            db.insert(
                ObjectId(i as u64),
                Trajectory::from_tuples(samples.iter().copied()).unwrap(),
            );
        }
        db
    }

    /// A database with three objects travelling together on [0, 9] and one
    /// object far away.
    fn convoy_db() -> TrajectoryDatabase {
        let mut rows: Vec<Vec<(f64, f64, i64)>> = Vec::new();
        for lane in 0..3 {
            rows.push(
                (0..10)
                    .map(|t| (t as f64, lane as f64 * 0.5, t as i64))
                    .collect(),
            );
        }
        rows.push((0..10).map(|t| (t as f64, 100.0, t as i64)).collect());
        let refs: Vec<&[(f64, f64, i64)]> = rows.iter().map(|r| r.as_slice()).collect();
        db_from(&refs)
    }

    #[test]
    fn finds_a_simple_convoy() {
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 5, 1.5);
        let result = normalize_convoys(cmc(&db, &query), &query);
        assert_eq!(result.len(), 1);
        let convoy = &result[0];
        assert_eq!(convoy.objects.len(), 3);
        assert_eq!(convoy.start, 0);
        assert_eq!(convoy.end, 9);
        assert!(!convoy.objects.contains(ObjectId(3)));
    }

    #[test]
    fn lifetime_constraint_filters_short_groups() {
        let db = convoy_db();
        // k larger than the whole domain: nothing qualifies.
        let query = ConvoyQuery::new(3, 50, 1.5);
        assert!(cmc(&db, &query).is_empty());
    }

    #[test]
    fn group_size_constraint() {
        let db = convoy_db();
        let query = ConvoyQuery::new(4, 5, 1.5);
        assert!(normalize_convoys(cmc(&db, &query), &query).is_empty());
    }

    #[test]
    fn empty_database_returns_nothing() {
        let db = TrajectoryDatabase::new();
        assert!(cmc(&db, &ConvoyQuery::new(2, 2, 1.0)).is_empty());
    }

    #[test]
    fn convoy_ends_when_an_object_departs() {
        // Objects 0 and 1 travel together on [0, 9]; object 2 joins them only
        // on [0, 4] and then veers away.
        let rows: Vec<Vec<(f64, f64, i64)>> = vec![
            (0..10).map(|t| (t as f64, 0.0, t as i64)).collect(),
            (0..10).map(|t| (t as f64, 0.5, t as i64)).collect(),
            (0..10)
                .map(|t| {
                    let y = if t <= 4 {
                        1.0
                    } else {
                        1.0 + (t - 4) as f64 * 10.0
                    };
                    (t as f64, y, t as i64)
                })
                .collect(),
        ];
        let refs: Vec<&[(f64, f64, i64)]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = db_from(&refs);
        let query = ConvoyQuery::new(2, 3, 1.5);
        let result = normalize_convoys(cmc(&db, &query), &query);
        // The pair {0,1} convoys for the whole window. Note that Algorithm 1
        // reports a candidate only when it *fails* to extend, so the
        // shrinking candidate {0,1,2}→{0,1} does not additionally emit the
        // triple over [0,4] — this matches the paper's published algorithm
        // (Table 2 / Figure 5) and is the semantics CuTS reproduces exactly.
        assert_eq!(result.len(), 1);
        assert!(result
            .iter()
            .any(|c| c.objects.len() == 2 && c.start == 0 && c.end == 9));
    }

    #[test]
    fn departing_object_is_reported_when_the_remaining_group_dissolves() {
        // Same shape as above, but objects 0 and 1 also separate at t=5, so
        // the candidate fails to extend and the triple over [0, 4] *is*
        // reported.
        let rows: Vec<Vec<(f64, f64, i64)>> = vec![
            (0..10)
                .map(|t| {
                    let y = if t <= 4 { 0.0 } else { -(t - 4) as f64 * 20.0 };
                    (t as f64, y, t as i64)
                })
                .collect(),
            (0..10).map(|t| (t as f64, 0.5, t as i64)).collect(),
            (0..10)
                .map(|t| {
                    let y = if t <= 4 {
                        1.0
                    } else {
                        1.0 + (t - 4) as f64 * 20.0
                    };
                    (t as f64, y, t as i64)
                })
                .collect(),
        ];
        let refs: Vec<&[(f64, f64, i64)]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = db_from(&refs);
        let query = ConvoyQuery::new(2, 3, 1.5);
        let result = normalize_convoys(cmc(&db, &query), &query);
        assert!(result
            .iter()
            .any(|c| c.objects.len() == 3 && c.start == 0 && c.end == 4));
    }

    #[test]
    fn missing_samples_are_interpolated() {
        // Object 1 has no sample at t=2 but is travelling alongside object 0;
        // interpolation must keep the convoy alive through the gap.
        let rows: Vec<Vec<(f64, f64, i64)>> = vec![
            (0..6).map(|t| (t as f64, 0.0, t as i64)).collect(),
            vec![
                (0.0, 0.5, 0),
                (1.0, 0.5, 1),
                (3.0, 0.5, 3),
                (4.0, 0.5, 4),
                (5.0, 0.5, 5),
            ],
        ];
        let refs: Vec<&[(f64, f64, i64)]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = db_from(&refs);
        let query = ConvoyQuery::new(2, 6, 1.0);
        let result = normalize_convoys(cmc(&db, &query), &query);
        assert_eq!(
            result.len(),
            1,
            "interpolation must bridge the missing sample"
        );
        assert_eq!(result[0].lifetime(), 6);
    }

    #[test]
    fn windowed_cmc_restricts_the_search() {
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 3, 1.5);
        let window = TimeInterval::new(2, 6);
        let (raw, _) = CmcEngine::Swept.run_windowed_with_stats(&db, &query, window);
        let result = normalize_convoys(raw, &query);
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].start, 2);
        assert_eq!(result[0].end, 6);
    }

    #[test]
    fn two_disjoint_convoys_are_both_reported() {
        let rows: Vec<Vec<(f64, f64, i64)>> = vec![
            (0..8).map(|t| (t as f64, 0.0, t as i64)).collect(),
            (0..8).map(|t| (t as f64, 0.5, t as i64)).collect(),
            (0..8).map(|t| (-(t as f64), 50.0, t as i64)).collect(),
            (0..8).map(|t| (-(t as f64), 50.5, t as i64)).collect(),
        ];
        let refs: Vec<&[(f64, f64, i64)]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = db_from(&refs);
        let query = ConvoyQuery::new(2, 4, 1.0);
        let result = normalize_convoys(cmc(&db, &query), &query);
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn density_connected_chain_forms_one_convoy() {
        // Figure 1: an elongated chain of objects each within e of the next —
        // the group a fixed-size flock disc would lose, but density connection
        // keeps whole.
        let rows: Vec<Vec<(f64, f64, i64)>> = (0..5)
            .map(|lane| (0..6).map(|t| (t as f64, lane as f64, t as i64)).collect())
            .collect();
        let refs: Vec<&[(f64, f64, i64)]> = rows.iter().map(|r| r.as_slice()).collect();
        let db = db_from(&refs);
        let query = ConvoyQuery::new(2, 6, 1.2);
        let result = normalize_convoys(cmc(&db, &query), &query);
        assert_eq!(result.len(), 1);
        assert_eq!(result[0].objects.len(), 5);
    }
}
