//! Stream-equivalence property tests: replaying a finite database through
//! the `convoy_stream` pipeline must reproduce batch CuTS discovery
//! **bit-identically** — the raw refinement output (order included), the
//! refinement fold's counters, and the normalised result set — even though
//! the streaming filter simplifies per λ-partition window and its clusters
//! and candidates may therefore differ from the batch filter's. The
//! coverage-fold restriction theorem (`convoy_core::cuts::refine`) is what
//! makes the claim provable rather than statistical; these tests lock it in
//! over random walks and every generated dataset profile.
//!
//! Finite-horizon runs are *not* equivalent to batch by design; for those
//! the harness asserts the safety contract instead: no reported convoy may
//! bridge a feed gap larger than the horizon, and every reported convoy is
//! density-connected in the original data at every tick of its interval.

use convoy_core::cuts::filter::filter;
use convoy_core::{refine_partitions, CutsConfig};
use convoy_suite::prelude::*;
use proptest::prelude::*;

/// Replays `db` through the stream for every CuTS method and asserts the
/// bit-identity contract against the batch pipeline.
fn assert_stream_matches_batch(db: &TrajectoryDatabase, query: &ConvoyQuery, context: &str) {
    for method in [Method::Cuts, Method::CutsPlus, Method::CutsStar] {
        let discovery = Discovery::new(method);
        let outcome = discovery.replay_stream(db, query);

        // Raw refinement output: identical Vec<Convoy>, closure order
        // included, against the batch coverage fold over the batch filter's
        // partitions.
        let variant = method.cuts_variant().expect("CuTS methods only");
        let batch_filter = filter(db, query, &CutsConfig::new(variant));
        let (batch_raw, batch_fold) = refine_partitions(db, query, &batch_filter.partitions);
        assert_eq!(
            outcome.convoys, batch_raw,
            "{method} raw stream output diverged from batch refinement on {context}"
        );

        // Fold counters agree bit-for-bit (the "stream stats agree with
        // batch candidate counts" half of the contract: peak open
        // candidates, ticks ingested, closures).
        assert_eq!(
            outcome.stats.fold, batch_fold,
            "{method} fold counters diverged on {context}"
        );
        assert_eq!(
            outcome.stats.candidates_evicted, 0,
            "unbounded policy never evicts"
        );

        // The normalised result set equals the batch façade's.
        let batch = discovery.run(db, query);
        assert_eq!(
            normalize_convoys(outcome.convoys, query),
            batch.convoys,
            "{method} normalised stream output diverged from Discovery on {context}"
        );
        assert_eq!(outcome.stats.fold, batch.stats.fold);
    }
}

prop_compose! {
    /// A database of unconstrained random walks with irregular sampling —
    /// partial presence, sample gaps, degenerate single-sample objects.
    fn arb_walk_db()(num_objects in 2usize..7)
        (tables in proptest::collection::vec(
            (proptest::collection::btree_set(0i64..30, 1..18),
             proptest::collection::vec((-6.0f64..6.0, -6.0f64..6.0), 18)),
            num_objects..num_objects + 1))
        -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        for (i, (times, coords)) in tables.into_iter().enumerate() {
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn stream_matches_batch_on_random_walk_databases(
        db in arb_walk_db(),
        m in 2usize..4,
        k in 2usize..6,
        e in 2.0f64..10.0,
        lambda in 2usize..9,
    ) {
        // Pin λ so the property also exercises partition lengths the
        // automatic guideline would not pick.
        let query = ConvoyQuery::new(m, k, e);
        let discovery = Discovery::new(Method::Cuts)
            .with_config(CutsConfig::new(CutsVariant::Cuts).with_lambda(lambda));
        let outcome = discovery.replay_stream(&db, &query);
        let batch_filter = filter(&db, &query, discovery.config());
        let (batch_raw, batch_fold) = refine_partitions(&db, &query, &batch_filter.partitions);
        prop_assert_eq!(outcome.convoys, batch_raw, "raw divergence on a random walk db");
        prop_assert_eq!(outcome.stats.fold, batch_fold, "fold counter divergence");
    }

    #[test]
    fn stream_matches_batch_with_auto_parameters(db in arb_walk_db(), seed_k in 2usize..5) {
        let query = ConvoyQuery::new(2, seed_k, 5.0);
        assert_stream_matches_batch(&db, &query, "a random-walk database");
    }
}

#[test]
fn stream_matches_batch_on_every_dataset_profile() {
    for name in ProfileName::ALL {
        let profile = DatasetProfile::named(name).scaled(0.02);
        let data = generate(&profile, 20080824);
        let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
        assert_stream_matches_batch(&data.database, &query, name.name());
    }
}

#[test]
fn stream_matches_batch_on_generated_seeds() {
    for seed in [1u64, 7, 99, 20260731] {
        let profile = DatasetProfile::truck().scaled(0.02);
        let data = generate(&profile, seed);
        let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
        assert_stream_matches_batch(&data.database, &query, "a generated truck dataset");
    }
}

#[test]
fn stream_matches_batch_on_single_tick_feeds() {
    // A feed of one tick closes a single instant partition `[5, 5]`: the
    // stream must fold that tick once, as the batch run does, whether it
    // holds one sample or a pair that forms a convoy on its own.
    let at_five = |samples: &[(u64, f64)]| -> TrajectoryDatabase {
        samples
            .iter()
            .map(|&(id, x)| {
                (
                    ObjectId(id),
                    Trajectory::from_tuples([(x, 0.0, 5)]).unwrap(),
                )
            })
            .collect()
    };
    let query = ConvoyQuery::new(2, 1, 1.0);
    for (db, convoys) in [
        (at_five(&[(1, 0.0)]), 0),
        (at_five(&[(1, 0.0), (2, 0.5)]), 1),
    ] {
        let context = format!("a one-tick feed of {} samples", db.total_points());
        assert_stream_matches_batch(&db, &query, &context);
        let outcome = Discovery::new(Method::CutsStar).replay_stream(&db, &query);
        assert_eq!(outcome.stats.fold.ticks_ingested, 1, "{context}");
        assert_eq!(outcome.convoys.len(), convoys, "{context}");
    }
}

/// Pushes a tick of co-moving pair samples.
fn push_pair(stream: &mut ConvoyStream, t: i64) {
    stream.push(ObjectId(1), t, t as f64, 0.0).unwrap();
    stream.push(ObjectId(2), t, t as f64, 0.5).unwrap();
}

#[test]
fn no_convoy_bridges_a_feed_gap_larger_than_the_horizon() {
    // The pair convoys on [0, 9], the feed goes dark for 12 ticks
    // (> horizon = 8), then the pair convoys again on [22, 31].
    let query = ConvoyQuery::new(2, 3, 1.0);
    let config =
        StreamConfig::new(query, 0.2, 4).with_eviction(EvictionPolicy::unbounded().with_horizon(8));
    let mut stream = ConvoyStream::new(config);
    for t in 0..10 {
        push_pair(&mut stream, t);
    }
    for t in 22..32 {
        push_pair(&mut stream, t);
    }
    let outcome = stream.finish();
    assert_eq!(outcome.convoys.len(), 2, "one convoy per side of the gap");
    for convoy in &outcome.convoys {
        assert!(
            convoy.end <= 9 || convoy.start >= 22,
            "convoy {convoy} bridges the evicted gap"
        );
    }
    // A gap of exactly the horizon *is* bridged (eviction is strict): some
    // chain covers the interpolated middle of the silence, even though the
    // same horizon also caps every chain's lifetime at 12 ticks.
    let config = StreamConfig::new(query, 0.2, 4)
        .with_eviction(EvictionPolicy::unbounded().with_horizon(12));
    let mut stream = ConvoyStream::new(config);
    for t in 0..10 {
        push_pair(&mut stream, t);
    }
    for t in 22..32 {
        push_pair(&mut stream, t);
    }
    let outcome = stream.finish();
    assert!(
        outcome.convoys.iter().any(|c| c.interval().contains(15)),
        "a gap of exactly the horizon must interpolate: {:?}",
        outcome.convoys
    );
    assert!(outcome.convoys.iter().all(|c| c.lifetime() <= 12));
}

#[test]
fn refinement_never_interpolates_a_silence_longer_than_the_horizon() {
    // Objects 1–3 travel together on [0, 23]. Object 1 is silent on ticks
    // 6..=10: five missing ticks, one more than the horizon, in the middle of
    // the λ-partition [0, 11]. It co-clusters there before its silence, so it
    // stays in that partition's coverage at ticks 6..=10, and its samples at
    // 5 and 11 are both buffered when the partition closes. Interpolating
    // between them would put it with the others on those five ticks (k = 3).
    let query = ConvoyQuery::new(3, 3, 1.5);
    let config = StreamConfig::new(query, 0.2, 12)
        .with_eviction(EvictionPolicy::unbounded().with_horizon(4));
    let mut stream = ConvoyStream::new(config);
    for t in 0..24 {
        for o in 1..=3u64 {
            if o == 1 && (6..=10).contains(&t) {
                continue;
            }
            stream
                .push(ObjectId(o), t, t as f64, o as f64 * 0.5)
                .unwrap();
        }
    }
    let outcome = stream.finish();
    let trio = Cluster::new(vec![ObjectId(1), ObjectId(2), ObjectId(3)]);
    let expected: Vec<Convoy> = [(0, 3), (11, 14), (15, 18), (19, 22)]
        .into_iter()
        .map(|(start, end)| Convoy::new(trio.clone(), start, end))
        .collect();
    assert_eq!(outcome.convoys, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn horizon_runs_never_bridge_gaps_and_stay_density_connected(
        db in arb_walk_db(),
        horizon in 2i64..6,
        lambda in 2usize..6,
    ) {
        // Shift the second half of every trajectory far forward in time so
        // the feed contains a global gap wider than any tested horizon.
        let gap_at = 15i64;
        let shift = 40i64;
        let mut shifted = TrajectoryDatabase::new();
        for (id, traj) in db.iter() {
            let pts: Vec<TrajPoint> = traj
                .points()
                .iter()
                .map(|p| {
                    if p.t >= gap_at {
                        TrajPoint::new(p.x, p.y, p.t + shift)
                    } else {
                        *p
                    }
                })
                .collect();
            shifted.insert(id, Trajectory::from_points(pts).unwrap());
        }

        let query = ConvoyQuery::new(2, 2, 6.0);
        let config = StreamConfig::new(query, 0.5, lambda)
            .with_eviction(EvictionPolicy::unbounded().with_horizon(horizon));
        let mut stream = ConvoyStream::new(config);
        let mut samples = shifted.all_samples();
        samples.sort_by_key(|(id, p)| (p.t, *id));
        for (id, p) in samples {
            stream.push(id, p.t, p.x, p.y).unwrap();
        }
        let outcome = stream.finish();
        for convoy in &outcome.convoys {
            // Safety half of the contract: nothing spans the evicted gap…
            prop_assert!(
                convoy.end < gap_at + shift || convoy.start >= gap_at,
                "convoy {} bridges the gap", convoy
            );
            // …no chain outlives the horizon…
            prop_assert!(convoy.lifetime() <= horizon);
            // …and everything reported is a real convoy of the original
            // data: density-connected at every tick of its interval.
            for t in convoy.interval().iter() {
                let snapshot = shifted.snapshot(t, convoy_suite::trajectory::SnapshotPolicy::Interpolate);
                let clusters = snapshot_clusters(&snapshot, query.e, query.m);
                prop_assert!(
                    clusters.iter().any(|cl| convoy.objects.iter().all(|o| cl.contains(o))),
                    "convoy {} not density-connected at t={}", convoy, t
                );
            }
        }
    }
}

#[test]
fn max_candidates_caps_the_working_set_mid_tick() {
    // Five disjoint pairs convoy simultaneously: with max_candidates = 2 the
    // fold must close the excess chains the moment a tick opens them.
    let query = ConvoyQuery::new(2, 2, 1.0);
    let config = StreamConfig::new(query, 0.2, 3)
        .with_eviction(EvictionPolicy::unbounded().with_max_candidates(2));
    let mut stream = ConvoyStream::new(config);
    for t in 0..12i64 {
        for pair in 0..5u64 {
            let base = pair as f64 * 100.0;
            stream.push(ObjectId(pair * 2), t, base, t as f64).unwrap();
            stream
                .push(ObjectId(pair * 2 + 1), t, base + 0.5, t as f64)
                .unwrap();
        }
    }
    let outcome = stream.finish();
    // The cap was hit on the very first clustered tick (5 fresh chains
    // against a capacity of 2) and on every tick after it.
    assert!(
        outcome.stats.candidates_evicted > 0,
        "capacity eviction must fire mid-tick"
    );
    // Chains churn under eviction: old chains close (and report, since they
    // satisfy k) while fresh ones reopen, so the output holds many short
    // fragments instead of five long convoys.
    assert!(
        outcome.convoys.len() > 5,
        "eviction churn should fragment the convoys, got {:?}",
        outcome.convoys
    );
    assert!(outcome.convoys.iter().all(|c| c.satisfies(&query)));
    // The exact working-set bound is locked in at the CmcState level
    // (`evict_to_capacity` unit tests); here the observable is that the
    // *carried* set stays within capacity: at most `max` chains survive any
    // tick, so no reported convoy set at one closing tick exceeds it.
    let mut closures_per_end: std::collections::BTreeMap<i64, usize> = Default::default();
    for convoy in &outcome.convoys {
        *closures_per_end.entry(convoy.end).or_default() += 1;
    }
    assert!(
        closures_per_end.values().all(|&n| n <= 2 + 3),
        "at most capacity + one tick's evictions can close per tick"
    );
}

/// Replays the fixed seeds recorded in
/// `proptest-regressions/stream_equivalence.txt` against the random-walk
/// generator: the vendored proptest stand-in derives its seed from the
/// test name and does not read shrink files, so this test gives the
/// checked-in corpus teeth — add a failing seed to the file and it stays
/// covered forever, in both debug and `--release` CI runs.
#[test]
fn replays_checked_in_regression_seeds() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/proptest-regressions/stream_equivalence.txt"
    );
    let corpus = std::fs::read_to_string(path).expect("regression corpus must be checked in");
    let mut replayed = 0u32;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let seed = line
            .strip_prefix("cc ")
            .and_then(|rest| {
                let token = rest.split_whitespace().next()?;
                token.strip_prefix("0x").map_or_else(
                    || token.parse().ok(),
                    |hex| u64::from_str_radix(hex, 16).ok(),
                )
            })
            .unwrap_or_else(|| panic!("malformed regression line: `{line}`"));
        let mut rng = proptest::new_rng(seed);
        // Same draw order as `stream_matches_batch_on_random_walk_databases`.
        let db = arb_walk_db().sample(&mut rng);
        let m = (2usize..4).sample(&mut rng);
        let k = (2usize..6).sample(&mut rng);
        let e = (2.0f64..10.0).sample(&mut rng);
        let lambda = (2usize..9).sample(&mut rng);
        let query = ConvoyQuery::new(m, k, e);
        let discovery = Discovery::new(Method::Cuts)
            .with_config(CutsConfig::new(CutsVariant::Cuts).with_lambda(lambda));
        let outcome = discovery.replay_stream(&db, &query);
        let batch_filter = filter(&db, &query, discovery.config());
        let (batch_raw, batch_fold) = refine_partitions(&db, &query, &batch_filter.partitions);
        assert_eq!(
            outcome.convoys, batch_raw,
            "raw divergence replaying regression seed {seed:#x}"
        );
        assert_eq!(
            outcome.stats.fold, batch_fold,
            "fold counter divergence replaying regression seed {seed:#x}"
        );
        // Same draw order as `stream_matches_batch_with_auto_parameters`.
        let db = arb_walk_db().sample(&mut rng);
        let seed_k = (2usize..5).sample(&mut rng);
        assert_stream_matches_batch(
            &db,
            &ConvoyQuery::new(2, seed_k, 5.0),
            &format!("regression seed {seed:#x} (auto parameters)"),
        );
        replayed += 1;
    }
    assert!(
        replayed >= 4,
        "regression corpus unexpectedly small: {replayed}"
    );
}

#[test]
fn out_of_order_samples_are_rejected_and_do_not_corrupt_equivalence() {
    // Build a valid feed, inject stragglers that must all be rejected, and
    // check the outcome still matches the clean replay.
    let profile = DatasetProfile::truck().scaled(0.02);
    let data = generate(&profile, 11);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    let discovery = Discovery::new(Method::Cuts);
    let clean = discovery.replay_stream(&data.database, &query);

    let cuts = CutsConfig::new(CutsVariant::Cuts);
    let delta = convoy_core::auto_delta(&data.database, query.e);
    let simplified = convoy_core::cuts::filter::simplify_database(&data.database, &cuts, delta);
    let lambda = convoy_core::auto_lambda(simplified.iter().map(|(_, s)| s), query.k);

    let mut stream = ConvoyStream::new(StreamConfig::new(query, delta, lambda));
    let mut samples = data.database.all_samples();
    samples.sort_by_key(|(id, p)| (p.t, *id));
    let mut rejected = 0;
    for (i, (id, p)) in samples.iter().enumerate() {
        stream.push(*id, p.t, p.x, p.y).unwrap();
        if i % 50 == 25 {
            // A sample from the distant past must bounce.
            if stream.push(*id, p.t - 1000, p.x, p.y).is_err() {
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "the test must actually exercise rejection");
    let outcome = stream.finish();
    assert_eq!(outcome.convoys, clean.convoys);
    assert_eq!(outcome.stats.fold, clean.stats.fold);
}
