//! Engine-equivalence property tests: the per-tick baseline, the swept
//! streaming engine, the time-partitioned parallel driver, and a hand-driven
//! incremental [`CmcState`] fold must produce identical normalized convoy
//! sets on randomly generated databases.
//!
//! Two corpus sources feed the properties: the synthetic dataset generator
//! (planted convoys plus background noise, the corpus the paper's figures
//! use) and unconstrained random walks from proptest strategies (no planted
//! structure, exercising degenerate chains, gaps and partial presence).

use convoy_suite::prelude::*;
use proptest::prelude::*;
use trajectory::SnapshotPolicy;

/// Runs every engine plus the manual streaming fold and asserts the
/// normalized result sets are identical (not merely equivalent up to
/// domination — the engines share one fold, so they must agree exactly).
fn assert_engines_agree(db: &TrajectoryDatabase, query: &ConvoyQuery, context: &str) {
    let reference = normalize_convoys(CmcEngine::PerTick.run(db, query), query);
    for engine in [
        CmcEngine::Swept,
        CmcEngine::Parallel { threads: 2 },
        CmcEngine::Parallel { threads: 3 },
        CmcEngine::Parallel { threads: 7 },
    ] {
        let got = normalize_convoys(engine.run(db, query), query);
        assert_eq!(
            got,
            reference,
            "{} engine diverged from per-tick on {context}",
            engine.name()
        );
    }
    // Raw, un-normalized: the parallel driver folds the same per-tick
    // clusters through the same state machine in the same order, so it must
    // return the swept engine's convoys bit for bit, in the same order.
    let swept = CmcEngine::Swept.run(db, query);
    for threads in [2, 3, 7, 0] {
        assert_eq!(
            CmcEngine::Parallel { threads }.run(db, query),
            swept,
            "parallel ({threads} threads) is not bit-identical to swept on {context}"
        );
    }
    // The incremental state driven snapshot-by-snapshot, with mid-stream
    // drains, is the same computation the batch entry points run.
    let mut state = CmcState::new(query);
    let mut streamed = Vec::new();
    for snapshot in db.sweep(SnapshotPolicy::Interpolate) {
        state.ingest_snapshot(&snapshot);
        streamed.extend(state.drain_closed());
    }
    streamed.extend(state.finish());
    assert_eq!(
        normalize_convoys(streamed, query),
        reference,
        "incremental CmcState fold diverged from per-tick on {context}"
    );
}

prop_compose! {
    /// A database of unconstrained random walks with irregular sampling.
    fn arb_walk_db()(num_objects in 2usize..8)
        (tables in proptest::collection::vec(
            (proptest::collection::btree_set(0i64..25, 2..20),
             proptest::collection::vec((-8.0f64..8.0, -8.0f64..8.0), 20)),
            num_objects..num_objects + 1))
        -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        for (i, (times, coords)) in tables.into_iter().enumerate() {
            // Random walk: cumulative steps keep objects close enough that
            // clusters actually form and dissolve.
            let (mut x, mut y) = (0.0, 0.0);
            let pts: Vec<TrajPoint> = times
                .into_iter()
                .zip(coords)
                .map(|(t, (dx, dy))| {
                    x += dx;
                    y += dy;
                    TrajPoint::new(x, y, t)
                })
                .collect();
            db.insert(ObjectId(i as u64), Trajectory::from_points(pts).unwrap());
        }
        db
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_walk_databases(
        db in arb_walk_db(),
        m in 2usize..4,
        k in 2usize..6,
        e in 2.0f64..12.0,
    ) {
        let query = ConvoyQuery::new(m, k, e);
        assert_engines_agree(&db, &query, "a random-walk database");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn engines_agree_on_generated_datasets(seed in 0u64..1_000_000) {
        // The paper-shaped corpus: planted convoys, hotspot attraction,
        // irregular sampling and partial presence.
        let profile = DatasetProfile::truck().scaled(0.02);
        let data = generate(&profile, seed);
        let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
        assert_engines_agree(&data.database, &query, "a generated truck dataset");
    }
}

#[test]
fn engines_agree_on_every_dataset_profile() {
    for name in ProfileName::ALL {
        let profile = DatasetProfile::named(name).scaled(0.02);
        let data = generate(&profile, 20080824);
        let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
        assert_engines_agree(&data.database, &query, name.name());
    }
}

#[test]
fn parallel_discovery_outcome_matches_sequential_on_a_planted_dataset() {
    let profile = DatasetProfile::cattle().scaled(0.03);
    let data = generate(&profile, 99);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    let sequential = Discovery::new(Method::Cmc).run(&data.database, &query);
    let parallel = Discovery::new(Method::Cmc)
        .with_cmc_engine(CmcEngine::Parallel { threads: 4 })
        .run(&data.database, &query);
    assert_eq!(parallel.convoys, sequential.convoys);
    assert_eq!(parallel.stats.num_convoys, sequential.stats.num_convoys);
}
