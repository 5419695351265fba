//! Resume by replay: a stream restored from a checkpoint and fed the whole
//! log again from the top must refuse exactly the samples it had already
//! accepted — each as out-of-order (behind the watermark) or as a duplicate
//! (on it) — and accept every later one, finishing bit-identical to a run
//! that never stopped. This is what makes `convoy stream --resume` with the
//! same input exactly-once: the checkpoint's watermark and buffered samples
//! are the only feed-order memory it needs.

use convoy_stream::{feed_order_samples, replay_config};
use convoy_suite::prelude::*;
use trajectory::FeedError;

fn assert_replay_resume(profile: DatasetProfile, seed: u64, eviction: EvictionPolicy) {
    let data = generate(&profile, seed);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    let config = replay_config(&CutsConfig::new(CutsVariant::Cuts), &data.database, &query)
        .with_eviction(eviction);
    let samples = feed_order_samples(&data.database);
    let n = samples.len();

    let mut straight = ConvoyStream::new(config);
    for (id, p) in &samples {
        straight.push(*id, p.t, p.x, p.y).unwrap();
    }
    let expected = straight.finish();

    for cut in [0, 1, n / 3, n / 2 + 1, n] {
        let context = format!("{} at cut {cut} of {n}", profile.name.name());
        let mut first = ConvoyStream::new(config);
        for (id, p) in &samples[..cut] {
            first.push(*id, p.t, p.x, p.y).unwrap();
        }
        let mut resumed = ConvoyStream::from_checkpoint_bytes(&first.checkpoint_bytes())
            .unwrap_or_else(|e| panic!("restore failed on {context}: {e}"));
        for (i, (id, p)) in samples.iter().enumerate() {
            let result = resumed.push(*id, p.t, p.x, p.y);
            if i < cut {
                assert!(
                    matches!(
                        result,
                        Err(FeedError::OutOfOrder { .. } | FeedError::DuplicateTimestamp { .. })
                    ),
                    "already-accepted sample {i} must be refused on {context}, got {result:?}"
                );
            } else {
                assert!(
                    result.is_ok(),
                    "new sample {i} must be accepted on {context}, got {result:?}"
                );
            }
        }
        assert_eq!(
            resumed.finish(),
            expected,
            "replayed resume diverged from the straight run on {context}"
        );
    }
}

#[test]
fn replayed_log_is_refused_up_to_the_cut_on_cattle_unbounded() {
    assert_replay_resume(
        DatasetProfile::cattle().scaled(0.02),
        20080824,
        EvictionPolicy::unbounded(),
    );
}

#[test]
fn replayed_log_is_refused_up_to_the_cut_on_truck_with_horizon() {
    assert_replay_resume(
        DatasetProfile::truck().scaled(0.02),
        7,
        EvictionPolicy::unbounded().with_horizon(12),
    );
}
