//! Checkpoint/restore equivalence: resuming a [`ConvoyStream`] from a
//! snapshot must be **bit-identical** to never having stopped — run N ticks,
//! checkpoint, restore, run M more ≡ run N+M straight, on the raw convoys
//! (order included), the candidates, and every [`StreamStats`] counter. The
//! property holds at *any* cut point, mid-partition included, because the
//! checkpoint captures the full resumable frontier (feed watermark, buffers,
//! partition cursor, candidate chain, refinement fold, undrained output)
//! and everything it omits is scratch whose reconstruction is
//! output-neutral.
//!
//! The second half of the suite is the durability contract: a torn write
//! (every strict prefix), a flipped bit (every byte), a foreign file, a
//! future format version and trailing garbage must each produce a clean
//! [`CheckpointError`] — never a panic, never a silently wrong stream.

use convoy_core::CutsConfig;
use convoy_stream::{feed_order_samples, replay_config, CheckpointError};
use convoy_suite::prelude::*;
use proptest::prelude::*;

/// Feeds `samples[..cut]` into a fresh stream, checkpoints it, restores,
/// feeds the rest, and asserts the outcome equals the uninterrupted run —
/// raw convoys, candidates and stats alike. Also asserts the encoding is
/// deterministic (restore → re-encode reproduces the same bytes).
fn assert_resume_equivalence(
    config: StreamConfig,
    samples: &[(ObjectId, TrajPoint)],
    cut: usize,
    context: &str,
) {
    let mut straight = ConvoyStream::new(config);
    for (id, p) in samples {
        straight.push(*id, p.t, p.x, p.y).unwrap();
    }
    let expected = straight.finish();

    let mut first = ConvoyStream::new(config);
    for (id, p) in &samples[..cut] {
        first.push(*id, p.t, p.x, p.y).unwrap();
    }
    let bytes = first.checkpoint_bytes();
    let mut resumed = ConvoyStream::from_checkpoint_bytes(&bytes)
        .unwrap_or_else(|e| panic!("restore failed on {context} at cut {cut}: {e}"));
    assert_eq!(
        resumed.checkpoint_bytes(),
        bytes,
        "restore → re-encode must be byte-stable on {context} at cut {cut}"
    );
    assert_eq!(resumed.config(), &config, "configuration rides along");
    for (id, p) in &samples[cut..] {
        resumed.push(*id, p.t, p.x, p.y).unwrap();
    }
    let outcome = resumed.finish();
    assert_eq!(
        outcome, expected,
        "resumed run diverged from the straight run on {context} at cut {cut}"
    );
}

prop_compose! {
    /// A database of unconstrained random walks with irregular sampling —
    /// the same generator shape as the stream-equivalence harness.
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn resume_is_bit_identical_on_random_walks(
        db in arb_walk_db(),
        m in 2usize..4,
        k in 2usize..5,
        lambda in 2usize..7,
        cut_frac in 0.0f64..1.0,
        horizon_sel in 0i64..8,
    ) {
        let query = ConvoyQuery::new(m, k, 5.0);
        // horizon_sel < 2 means unbounded; otherwise a finite horizon of
        // that many ticks, so both eviction regimes are exercised.
        let mut eviction = EvictionPolicy::unbounded();
        if horizon_sel >= 2 {
            eviction = eviction.with_horizon(horizon_sel);
        }
        let config = StreamConfig::new(query, 0.5, lambda).with_eviction(eviction);
        let samples = feed_order_samples(&db);
        // Cut anywhere, first and one-past-last sample included: a
        // checkpoint of an empty or fully-fed stream must resume too.
        let cut = ((samples.len() as f64) * cut_frac) as usize;
        let cut = cut.min(samples.len());
        assert_resume_equivalence(config, &samples, cut, "a random-walk database");
    }
}

#[test]
fn resume_is_bit_identical_on_every_dataset_profile() {
    for name in ProfileName::ALL {
        let profile = DatasetProfile::named(name).scaled(0.02);
        let data = generate(&profile, 20080824);
        let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
        let cuts = CutsConfig::new(CutsVariant::Cuts);
        let config = replay_config(&cuts, &data.database, &query);
        let samples = feed_order_samples(&data.database);
        for cut in [0, samples.len() / 3, samples.len() / 2, samples.len()] {
            assert_resume_equivalence(config, &samples, cut, name.name());
        }
    }
}

#[test]
fn resume_is_bit_identical_under_finite_horizon_on_a_profile() {
    let profile = DatasetProfile::truck().scaled(0.02);
    let data = generate(&profile, 7);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    let cuts = CutsConfig::new(CutsVariant::CutsStar);
    let config = replay_config(&cuts, &data.database, &query).with_eviction(
        EvictionPolicy::unbounded()
            .with_horizon(12)
            .with_max_candidates(8),
    );
    let samples = feed_order_samples(&data.database);
    for cut in [samples.len() / 4, (samples.len() * 3) / 4] {
        assert_resume_equivalence(config, &samples, cut, "truck with horizon+cap");
    }
}

#[test]
fn empty_stream_round_trips() {
    let config = StreamConfig::new(ConvoyQuery::new(2, 3, 1.0), 0.2, 4);
    let stream = ConvoyStream::new(config);
    let bytes = stream.checkpoint_bytes();
    let restored = ConvoyStream::from_checkpoint_bytes(&bytes).unwrap();
    assert_eq!(restored.checkpoint_bytes(), bytes);
    let outcome = restored.finish();
    assert!(outcome.convoys.is_empty());
    assert_eq!(outcome.stats, ConvoyStream::new(config).finish().stats);
}

/// A checkpoint with every section non-trivially populated: open chains in
/// the filter and the fold, buffered stragglers, undrained output.
fn busy_checkpoint() -> Vec<u8> {
    let profile = DatasetProfile::cattle().scaled(0.02);
    let data = generate(&profile, 42);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    let config = replay_config(&CutsConfig::new(CutsVariant::Cuts), &data.database, &query);
    let mut stream = ConvoyStream::new(config);
    let samples = feed_order_samples(&data.database);
    for (id, p) in &samples[..(samples.len() * 2) / 3] {
        stream.push(*id, p.t, p.x, p.y).unwrap();
    }
    stream.checkpoint_bytes()
}

#[test]
fn every_truncation_fails_cleanly() {
    let bytes = busy_checkpoint();
    assert!(ConvoyStream::from_checkpoint_bytes(&bytes).is_ok());
    for len in 0..bytes.len() {
        let err = ConvoyStream::from_checkpoint_bytes(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("a {len}-byte prefix of {} decoded", bytes.len()));
        assert!(
            matches!(
                err,
                CheckpointError::Truncated
                    | CheckpointError::ChecksumMismatch
                    | CheckpointError::BadMagic
            ),
            "prefix {len}: unexpected error {err}"
        );
    }
}

#[test]
fn every_single_byte_flip_fails_cleanly() {
    let bytes = busy_checkpoint();
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x40;
        let err = ConvoyStream::from_checkpoint_bytes(&corrupt)
            .err()
            .unwrap_or_else(|| panic!("flip at byte {i} decoded"));
        // A flip inside the body (or in the stored CRC itself) is caught by
        // the checksum; a flip in the magic is caught even earlier.
        assert!(
            matches!(
                err,
                CheckpointError::ChecksumMismatch | CheckpointError::BadMagic
            ),
            "flip at byte {i}: unexpected error {err}"
        );
    }
}

#[test]
fn foreign_future_and_padded_files_are_rejected() {
    // Not a checkpoint at all.
    assert!(matches!(
        ConvoyStream::from_checkpoint_bytes(b"PNG\r\n-definitely-not-a-checkpoint"),
        Err(CheckpointError::BadMagic)
    ));
    assert!(matches!(
        ConvoyStream::from_checkpoint_bytes(b""),
        Err(CheckpointError::Truncated)
    ));
    // A valid file stamped with a future format version (CRC recomputed so
    // the version check, not the checksum, is what rejects it).
    let bytes = busy_checkpoint();
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    let crc = convoy_stream::checkpoint::crc32(&future[..future.len() - 4]);
    let at = future.len() - 4;
    future[at..].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        ConvoyStream::from_checkpoint_bytes(&future),
        Err(CheckpointError::UnsupportedVersion(99))
    ));
    // Trailing garbage after the last section, CRC made consistent again:
    // strict decoding still refuses it.
    let mut padded = bytes[..bytes.len() - 4].to_vec();
    padded.extend_from_slice(b"junk");
    let crc = convoy_stream::checkpoint::crc32(&padded);
    padded.extend_from_slice(&crc.to_le_bytes());
    assert!(ConvoyStream::from_checkpoint_bytes(&padded).is_err());
}

#[test]
fn checkpoint_file_round_trip_is_atomic_and_clean() {
    let dir = std::env::temp_dir().join("convoy-checkpoint-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.snap");

    let profile = DatasetProfile::truck().scaled(0.02);
    let data = generate(&profile, 11);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    let config = replay_config(&CutsConfig::new(CutsVariant::Cuts), &data.database, &query);
    let mut stream = ConvoyStream::new(config);
    let samples = feed_order_samples(&data.database);
    let cut = samples.len() / 2;
    for (id, p) in &samples[..cut] {
        stream.push(*id, p.t, p.x, p.y).unwrap();
    }
    let bytes = stream.checkpoint_bytes();
    stream.checkpoint(&path).unwrap();
    assert!(!dir.join("state.snap.tmp").exists(), "no temp file left");
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "file holds the bytes");

    // Restore from disk and finish both streams identically.
    let mut restored = ConvoyStream::restore(&path).unwrap();
    for (id, p) in &samples[cut..] {
        stream.push(*id, p.t, p.x, p.y).unwrap();
        restored.push(*id, p.t, p.x, p.y).unwrap();
    }
    assert_eq!(restored.finish(), stream.finish());

    // A torn file on disk is a clean error.
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(ConvoyStream::restore(&path).is_err());
    // A missing file is an I/O error, not a panic.
    assert!(matches!(
        ConvoyStream::restore(dir.join("never-written.snap")),
        Err(CheckpointError::Io(_))
    ));
}
