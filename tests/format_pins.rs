//! Format pins: both on-disk formats must serialize a fixed input to the
//! same bytes in every build. A `.convoy` container or a stream checkpoint
//! written by one build is read by the next (`convoy stream --resume`
//! restores a file an older binary wrote), so an accidental change to
//! either encoding would otherwise surface only as a failed resume or a
//! rejected file.
//!
//! Each pin is the IEEE CRC-32 and byte length of the encoding of a small
//! hand-built database. Coordinates are exact dyadic rationals and no
//! generator or transcendental function is involved, so the pinned values
//! hold on every platform. A deliberate format change (a version bump)
//! updates the pins in the same change.

use convoy_suite::prelude::*;
use traj_datasets::container::crc32;
use traj_datasets::write_container;

/// `(block_records, crc32, byte length)` of `write_container` output.
const CONTAINER_PINS: [(usize, u32, usize); 2] = [(4, 0x4656_9b3f, 3152), (64, 0x4b03_6b66, 2252)];

/// `(crc32, byte length)` of `ConvoyStream::checkpoint_bytes` after the
/// whole database has been fed. The CRC is taken over the body, everything
/// but the stored CRC-32 trailer: a CRC over a whole checkpoint, trailer
/// included, is the CRC-32 residue `0x2144df1c` for every valid file.
const CHECKPOINT_PIN: (u32, usize) = (0xec69_b6b2, 923);

/// One object moving at `x(t)` along the horizontal line `y`, sampled at
/// `ticks`.
fn track(ticks: impl IntoIterator<Item = i64>, x: impl Fn(i64) -> f64, y: f64) -> Trajectory {
    Trajectory::from_tuples(ticks.into_iter().map(|t| (x(t), y, t))).unwrap()
}

/// Five objects over ticks 0..=15: three that travel together (one with a
/// two-tick gap, one that starts late and ends early), a fourth that joins
/// them halfway, and a loner moving the other way.
fn pinned_database() -> TrajectoryDatabase {
    let half = |t: i64| t as f64 * 0.5;
    let objects = [
        track(0..=15, half, 0.0),
        track((0..=15).filter(|t| !(5..=6).contains(t)), half, 0.25),
        track(2..=13, |t| half(t) + 0.125, 0.5),
        track(0..=15, |t| 20.0 - t as f64 * 0.25, 10.0),
        track(8..=15, half, 0.75),
    ];
    (1..).map(ObjectId).zip(objects).collect()
}

fn digest(bytes: &[u8]) -> (u32, usize) {
    (crc32(bytes), bytes.len())
}

#[test]
fn container_bytes_are_pinned() {
    let db = pinned_database();
    for (block_records, crc, len) in CONTAINER_PINS {
        let mut bytes = Vec::new();
        write_container(&db, &mut bytes, block_records).unwrap();
        let (got_crc, got_len) = digest(&bytes);
        assert_eq!(
            (got_crc, got_len),
            (crc, len),
            "container at block_records={block_records} changed: \
             crc32 {got_crc:#010x}, {got_len} bytes"
        );
    }
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let db = pinned_database();
    let config = StreamConfig::new(ConvoyQuery::new(3, 4, 1.0), 0.25, 4);
    let mut stream = ConvoyStream::new(config);
    for (id, p) in convoy_stream::feed_order_samples(&db) {
        stream.push(id, p.t, p.x, p.y).unwrap();
    }
    let bytes = stream.checkpoint_bytes();
    let (got_crc, got_len) = (crc32(&bytes[..bytes.len() - 4]), bytes.len());
    assert_eq!(
        (got_crc, got_len),
        CHECKPOINT_PIN,
        "checkpoint changed: crc32 {got_crc:#010x}, {got_len} bytes"
    );
    // The pinned state is not trivial: the feed confirms a convoy.
    assert!(!stream.finish().convoys.is_empty());
}
