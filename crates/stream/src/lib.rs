//! # `convoy_stream` — end-to-end streaming convoy discovery
//!
//! The batch CuTS pipeline (Jeung et al., PVLDB 2008) simplifies, filters
//! and refines over a complete trajectory database. This crate turns the
//! whole pipeline incremental, so convoys are discovered over a **live
//! feed** and emitted as soon as their chains close:
//!
//! ```text
//! ingest ──► λ-close ──► incremental filter ──► CmcState ──► drain
//! (feed      (sliding-    (shared partition      (coverage    (confirmed
//!  order      window DP    clustering +           fold +       convoys,
//!  checks)    per object)  candidate chain)       eviction)    StreamStats)
//! ```
//!
//! * [`ConvoyStream`] is the pipeline; samples go in through the
//!   [`FeedIngest`] API, confirmed convoys come out of
//!   [`ConvoyStream::drain`].
//! * [`StreamConfig`] fixes the query, CuTS variant, δ and λ;
//!   [`EvictionPolicy`] bounds the working set of an unbounded feed
//!   (age horizon + open-chain capacity).
//! * [`StreamStats`] reports the pipeline's counters, built on the
//!   refinement fold's [`convoy_core::CmcStats`].
//! * [`ReplayStream`] replays a finite database through the stream with the
//!   batch parameter selection — the bridge `tests/stream_equivalence.rs`
//!   uses to assert that a replay is **bit-identical** to batch
//!   [`convoy_core::Discovery`] output.
//!
//! The correctness contract and its proof sketch live in [`stream`] (module
//! docs) and [`convoy_core::cuts::refine`] (the coverage-fold restriction
//! theorem).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod buffer;
pub mod checkpoint;
pub mod config;
mod refine;
pub mod stream;

pub use checkpoint::CheckpointError;
pub use config::{publish_stream_stats, EvictionPolicy, StreamConfig, StreamStats};
pub use stream::{
    feed_order_samples, replay_config, ConvoyStream, FeedIngest, ReplayStream, StreamOutcome,
};

#[cfg(test)]
mod tests {
    use super::*;
    use convoy_core::{ConvoyQuery, CutsVariant, Discovery, Method};
    use trajectory::{FeedError, ObjectId, Trajectory, TrajectoryDatabase};

    fn push_tick(stream: &mut ConvoyStream, t: i64, rows: &[(u64, f64, f64)]) {
        for &(id, x, y) in rows {
            stream.push(ObjectId(id), t, x, y).unwrap();
        }
    }

    #[test]
    fn convoy_confirms_mid_stream_not_only_at_finish() {
        // Objects 0 and 1 travel together for ticks 0..=9, then scatter for
        // ticks 10..=29. The confirmed convoy must be drainable long before
        // the feed ends.
        let config = StreamConfig::new(ConvoyQuery::new(2, 5, 1.0), 0.2, 4);
        let mut stream = ConvoyStream::new(config);
        let mut confirmed_at = None;
        for t in 0..30i64 {
            let spread = if t < 10 { 0.5 } else { 500.0 };
            push_tick(&mut stream, t, &[(0, t as f64, 0.0), (1, t as f64, spread)]);
            if confirmed_at.is_none() {
                let drained = stream.drain();
                if !drained.is_empty() {
                    assert_eq!(drained[0].interval(), trajectory::TimeInterval::new(0, 9));
                    confirmed_at = Some(t);
                }
            }
        }
        let confirmed_at = confirmed_at.expect("the convoy must confirm mid-stream");
        assert!(
            confirmed_at < 29,
            "confirmation at t={confirmed_at} should precede the end of the feed"
        );
        let outcome = stream.finish();
        assert!(outcome.convoys.is_empty(), "already drained");
        // The coarse candidate covering the convoy is an output too, and the
        // counter matches what was drained plus what finish() flushed.
        assert!(outcome
            .candidates
            .iter()
            .any(|c| c.start <= 0 && c.end >= 9));
        assert_eq!(
            outcome.stats.filter_candidates,
            outcome.candidates.len() as u64
        );
        assert!(outcome.stats.partitions_closed > 0);
        assert_eq!(outcome.stats.fold.convoys_closed, 1);
        assert!(
            outcome.stats.samples_buffered < 60,
            "trimming must shed folded samples"
        );
    }

    #[test]
    fn out_of_order_and_duplicate_samples_are_rejected_without_corruption() {
        let config = StreamConfig::new(ConvoyQuery::new(2, 3, 1.0), 0.2, 4);
        let mut stream = ConvoyStream::new(config);
        push_tick(&mut stream, 5, &[(0, 0.0, 0.0), (1, 0.0, 0.5)]);
        assert!(matches!(
            stream.push(ObjectId(0), 3, 1.0, 1.0),
            Err(FeedError::OutOfOrder { .. })
        ));
        assert!(matches!(
            stream.push(ObjectId(0), 5, 1.0, 1.0),
            Err(FeedError::DuplicateTimestamp { .. })
        ));
        for (x, y) in [
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
            (f64::INFINITY, 0.0),
            (0.0, f64::NEG_INFINITY),
        ] {
            assert_eq!(
                stream.push(ObjectId(0), 6, x, y),
                Err(FeedError::NonFiniteCoordinate {
                    object: ObjectId(0),
                    t: 6
                })
            );
        }
        assert_eq!(stream.watermark(), Some(5), "rejections move nothing");
        // The stream keeps working after rejections.
        for t in 6..12 {
            push_tick(&mut stream, t, &[(0, t as f64, 0.0), (1, t as f64, 0.5)]);
        }
        let outcome = stream.finish();
        assert_eq!(outcome.convoys.len(), 1);
        assert_eq!(outcome.convoys[0].start, 5);
        assert_eq!(outcome.convoys[0].end, 11);

        // A rejected first sample leaves a fresh stream fresh.
        let mut stream = ConvoyStream::new(config);
        assert!(stream.push(ObjectId(0), 0, f64::NAN, 0.0).is_err());
        assert_eq!(stream.watermark(), None);
        assert!(stream.buffers.is_empty());
    }

    #[test]
    fn feed_keeps_the_first_duplicate_as_documented() {
        // The file `traj-datasets`' batch test reads, fed line by line: the
        // feed refuses the later duplicate `(o1, t=1)` and keeps the FIRST
        // sample, where batch `read_csv` keeps the LAST (see
        // `FeedError::DuplicateTimestamp`).
        let csv = "1,0,1.0,0.0\n1,1,2.0,0.0\n1,1,9.0,0.0\n2,1,5.0,5.0\n";
        let mut stream = ConvoyStream::new(StreamConfig::new(ConvoyQuery::new(2, 2, 1.0), 0.2, 4));
        let mut rejected = Vec::new();
        for (line_no, line) in csv.lines().enumerate() {
            let (id, t, x, y) = traj_datasets::io::parse_csv_line(line, line_no + 1)
                .unwrap()
                .unwrap();
            if let Err(e) = stream.push(id, t, x, y) {
                rejected.push(e);
            }
        }
        assert_eq!(
            rejected,
            vec![FeedError::DuplicateTimestamp {
                object: ObjectId(1),
                t: 1
            }]
        );
        assert_eq!(stream.stats().samples_buffered, 3);
        let o1 = stream.buffers[&ObjectId(1)].samples();
        assert_eq!((o1[1].t, o1[1].x), (1, 2.0), "the first sample stands");
    }

    #[test]
    fn replay_matches_batch_on_a_small_database() {
        let mut db = TrajectoryDatabase::new();
        for lane in 0..3u64 {
            db.insert(
                ObjectId(lane),
                Trajectory::from_tuples((0..25).map(|t| {
                    let jitter = if (t + lane as i64) % 2 == 0 {
                        0.1
                    } else {
                        -0.1
                    };
                    (t as f64, lane as f64 * 0.4 + jitter, t)
                }))
                .unwrap(),
            );
        }
        db.insert(
            ObjectId(9),
            Trajectory::from_tuples((0..25).map(|t| (t as f64, 300.0, t))).unwrap(),
        );
        let query = ConvoyQuery::new(3, 8, 1.5);
        for method in [Method::Cuts, Method::CutsPlus, Method::CutsStar] {
            let discovery = Discovery::new(method);
            let outcome = discovery.replay_stream(&db, &query);
            let batch = discovery.run(&db, &query);
            assert_eq!(
                convoy_core::normalize_convoys(outcome.convoys.clone(), &query),
                batch.convoys,
                "{method} replay diverged from batch"
            );
            assert_eq!(
                outcome.stats.fold, batch.stats.fold,
                "{method} fold counters diverged"
            );
            assert_eq!(outcome.stats.candidates_evicted, 0);
        }
    }

    #[test]
    fn variant_and_parameters_flow_into_the_stream() {
        let query = ConvoyQuery::new(2, 3, 1.0);
        let config = StreamConfig::new(query, 0.7, 6).with_variant(CutsVariant::CutsStar);
        let stream = ConvoyStream::new(config);
        assert_eq!(stream.config().variant, CutsVariant::CutsStar);
        assert_eq!(stream.config().delta, 0.7);
        assert_eq!(stream.config().lambda, 6);
        assert_eq!(stream.watermark(), None);
    }

    #[test]
    fn empty_and_single_sample_streams_finish_cleanly() {
        let query = ConvoyQuery::new(2, 3, 1.0);
        let outcome = ConvoyStream::new(StreamConfig::new(query, 0.5, 4)).finish();
        assert!(outcome.convoys.is_empty());
        assert_eq!(outcome.stats, StreamStats::default());

        let mut stream = ConvoyStream::new(StreamConfig::new(query, 0.5, 4));
        stream.push(ObjectId(1), 7, 0.0, 0.0).unwrap();
        let outcome = stream.finish();
        assert!(outcome.convoys.is_empty(), "one object can never reach m=2");
        assert_eq!(outcome.stats.partitions_closed, 1);
    }

    #[test]
    fn departed_objects_are_evicted_under_a_finite_horizon() {
        // Object churn: a retiring object must not pin its buffer forever
        // once it is severed past the horizon.
        let query = ConvoyQuery::new(2, 3, 1.0);
        let config = StreamConfig::new(query, 0.2, 3)
            .with_eviction(EvictionPolicy::unbounded().with_horizon(4));
        let mut stream = ConvoyStream::new(config);
        // o9 appears briefly alongside the long-lived pair, then never again.
        for t in 0..40i64 {
            push_tick(&mut stream, t, &[(0, t as f64, 0.0), (1, t as f64, 0.5)]);
            if t < 2 {
                stream
                    .push(ObjectId(9), t, 500.0, 500.0 + t as f64)
                    .unwrap();
            }
        }
        let outcome = stream.finish();
        // o9's two samples are gone from the buffers long before the end:
        // only the live pair's trimmed window remains.
        assert!(
            outcome.stats.samples_buffered <= 8,
            "severed object's buffer must be dropped, {} samples remain",
            outcome.stats.samples_buffered
        );
        // And the pair's convoys are unaffected by the churn.
        assert!(outcome
            .convoys
            .iter()
            .all(|c| !c.objects.contains(ObjectId(9))));
        assert!(!outcome.convoys.is_empty());
    }

    #[test]
    fn huge_horizon_with_negative_timestamps_matches_unbounded() {
        // Regression: the eviction cutoff `window.end - horizon` used raw
        // subtraction, which underflows for `horizon = i64::MAX` on a
        // negative-epoch feed (panic in debug, wrapping mis-eviction in
        // release). A horizon that large can never bind, so the run must be
        // identical to the unbounded one in both build profiles.
        let query = ConvoyQuery::new(2, 3, 1.0);
        let base = StreamConfig::new(query, 0.2, 4);
        let run = |config: StreamConfig| {
            let mut stream = ConvoyStream::new(config);
            for t in -100..-80i64 {
                push_tick(&mut stream, t, &[(0, t as f64, 0.0), (1, t as f64, 0.5)]);
            }
            stream.finish()
        };
        let unbounded = run(base);
        let huge = run(base.with_eviction(EvictionPolicy::unbounded().with_horizon(i64::MAX)));
        assert_eq!(huge, unbounded);
        assert_eq!(huge.stats.candidates_evicted, 0);
        assert_eq!(huge.convoys.len(), 1);
        assert_eq!(
            huge.convoys[0].interval(),
            trajectory::TimeInterval::new(-100, -81)
        );
    }

    #[test]
    fn horizon_caps_reported_convoy_lifetimes() {
        let query = ConvoyQuery::new(2, 3, 1.0);
        let config = StreamConfig::new(query, 0.2, 3)
            .with_eviction(EvictionPolicy::unbounded().with_horizon(6));
        let mut stream = ConvoyStream::new(config);
        for t in 0..30i64 {
            push_tick(&mut stream, t, &[(0, t as f64, 0.0), (1, t as f64, 0.5)]);
        }
        let outcome = stream.finish();
        assert!(
            outcome.convoys.len() > 1,
            "the horizon splits the long convoy"
        );
        assert!(
            outcome.convoys.iter().all(|c| c.lifetime() <= 6),
            "no reported chain may outlive the horizon: {:?}",
            outcome.convoys
        );
        assert!(outcome.stats.candidates_evicted > 0);
        // The splits tile the feed without overlap.
        for pair in outcome.convoys.windows(2) {
            assert_eq!(pair[0].end + 1, pair[1].start);
        }
    }
}
