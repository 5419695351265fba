//! Storage-backend equivalence: the `.convoy` columnar container must be an
//! invisible substitution for CSV. For every dataset profile, writing a
//! database to a container and reading it back is **bit-identical** to the
//! CSV round trip; discovery over either backend — every method, every CMC
//! engine — produces the same outcome; and a windowed load over the
//! container reads strictly fewer blocks than a full scan while returning
//! exactly `load().restrict(window)` (the sample-selecting windowed
//! contract, so block pruning can never change an answer).
//!
//! The durability half mirrors `checkpoint_equivalence`: a torn file (every
//! block-boundary prefix), a flipped bit (every byte), a foreign file and a
//! future format version must each produce a clean [`ContainerError`] or
//! typed [`TrajectoryError`] — never a panic, never a silently wrong
//! database.

use convoy_suite::prelude::*;
use trajectory::TrajectoryError;

/// Round-trips `db` through an on-disk container and returns both paths'
/// loads (via the sniffing factory, exactly the CLI path).
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("convoy-container-equiv-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn container_round_trip_is_bit_identical_on_every_profile() {
    let dir = temp_dir("profiles");
    for name in ProfileName::ALL {
        let profile = DatasetProfile::named(name).scaled(0.02);
        let data = generate(&profile, 20080824);
        let csv = dir.join(format!("{}.csv", name.name()));
        let bin = dir.join(format!("{}.convoy", name.name()));
        traj_datasets::io::write_csv_file(&data.database, &csv).unwrap();
        write_container_file(&data.database, &bin, 64).unwrap();

        let from_csv = open_source(&csv).unwrap().load().unwrap();
        let from_bin = open_source(&bin).unwrap().load().unwrap();
        assert_eq!(from_csv, data.database, "{name:?}: CSV drifted");
        assert_eq!(from_bin, data.database, "{name:?}: container drifted");
        assert_eq!(from_csv, from_bin, "{name:?}: backends disagree");
        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&bin).ok();
    }
}

#[test]
fn discovery_is_identical_across_backends_for_every_method_and_engine() {
    let dir = temp_dir("discovery");
    let profile = DatasetProfile::truck().scaled(0.02);
    let data = generate(&profile, 7);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    let csv = dir.join("truck.csv");
    let bin = dir.join("truck.convoy");
    traj_datasets::io::write_csv_file(&data.database, &csv).unwrap();
    write_container_file(&data.database, &bin, 16).unwrap();

    let engines = [
        CmcEngine::PerTick,
        CmcEngine::Swept,
        CmcEngine::Parallel { threads: 2 },
    ];
    let mut checked = 0usize;
    for method in [
        Method::Cmc,
        Method::Cuts,
        Method::CutsPlus,
        Method::CutsStar,
    ] {
        let applicable: &[CmcEngine] = if method == Method::Cmc {
            &engines
        } else {
            &engines[..1]
        };
        for &engine in applicable {
            let discovery = Discovery::new(method).with_cmc_engine(engine);
            let from_csv = discovery
                .run_source(&mut *open_source(&csv).unwrap(), &query)
                .unwrap();
            let from_bin = discovery
                .run_source(&mut *open_source(&bin).unwrap(), &query)
                .unwrap();
            assert_eq!(
                from_csv.convoys, from_bin.convoys,
                "{method:?}/{engine:?}: convoys depend on the storage backend"
            );
            assert_eq!(
                from_csv.stats, from_bin.stats,
                "{method:?}/{engine:?}: stats depend on the storage backend"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 6, "every method × engine combination ran");
    std::fs::remove_file(&csv).ok();
    std::fs::remove_file(&bin).ok();
}

#[test]
fn windowed_loads_prune_blocks_and_match_restrict_exactly() {
    let dir = temp_dir("windows");
    let profile = DatasetProfile::cattle().scaled(0.02);
    let data = generate(&profile, 13);
    let bin = dir.join("cattle.convoy");
    write_container_file(&data.database, &bin, 8).unwrap();

    let mut source = open_source(&bin).unwrap();
    let full = source.load().unwrap();
    let full_stats = source.scan_stats();
    assert_eq!(full, data.database);
    assert_eq!(full_stats.blocks_read, full_stats.blocks_total);
    assert!(full_stats.blocks_total > 1, "{full_stats:?}");

    let domain = full.time_domain().unwrap();
    let span = domain.end - domain.start;
    for (lo, hi) in [(0, span / 4), (span / 3, (span * 2) / 3), (span, span)] {
        let window = TimeInterval::new(domain.start + lo, domain.start + hi);
        let windowed = source.load_window(window).unwrap();
        assert_eq!(
            windowed,
            full.restrict(window),
            "window [{lo}, {hi}] diverged from restrict()"
        );
        let stats = source.scan_stats();
        assert!(
            stats.blocks_read < stats.blocks_total,
            "window [{lo}, {hi}] read every block: {stats:?}"
        );
    }
    // A window beyond the domain reads nothing at all.
    let far = TimeInterval::new(domain.end + 1000, domain.end + 2000);
    assert_eq!(source.load_window(far).unwrap(), full.restrict(far));
    assert_eq!(source.scan_stats().blocks_read, 0);
    std::fs::remove_file(&bin).ok();
}

/// A container with several non-trivial blocks, for the corruption suite.
fn busy_container() -> Vec<u8> {
    let profile = DatasetProfile::truck().scaled(0.02);
    let data = generate(&profile, 42);
    let mut bytes = Vec::new();
    traj_datasets::write_container(&data.database, &mut std::io::Cursor::new(&mut bytes), 32)
        .unwrap();
    bytes
}

/// Opens `bytes` as a container through the factory (written to disk, the
/// way every real read happens) and fully loads it.
fn load_bytes(
    dir: &std::path::Path,
    tag: &str,
    bytes: &[u8],
) -> Result<TrajectoryDatabase, TrajectoryError> {
    let path = dir.join(format!("{tag}.convoy"));
    std::fs::write(&path, bytes).unwrap();
    let result = open_source(&path).and_then(|mut s| s.load());
    std::fs::remove_file(&path).ok();
    result
}

#[test]
fn every_block_boundary_truncation_fails_cleanly() {
    let dir = temp_dir("truncate");
    let bytes = busy_container();
    assert!(load_bytes(&dir, "whole", &bytes).is_ok());

    // Every prefix that ends exactly on a block boundary (reconstructed from
    // the reader's own index), plus the boundaries' ±1 neighbours and the
    // bare file header. (`container`'s unit tests already grind through
    // every prefix length; this tier-1 suite pins the structural cuts.)
    let reader = ContainerReader::open(std::io::Cursor::new(bytes.clone())).unwrap();
    let mut cuts = vec![0usize, 1, 8, 19, 20];
    for block in reader.blocks() {
        for delta in [-1i64, 0, 1] {
            let at = block.offset as i64 + delta;
            if at >= 0 && (at as usize) < bytes.len() {
                cuts.push(at as usize);
            }
        }
    }
    for cut in cuts {
        let err = load_bytes(&dir, "cut", &bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("a {cut}-byte prefix of {} loaded", bytes.len()));
        assert!(
            matches!(
                err,
                TrajectoryError::Format { .. } | TrajectoryError::Io { .. }
            ),
            "prefix {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn every_single_byte_flip_fails_cleanly_or_is_caught_at_open() {
    let dir = temp_dir("bitflip");
    let bytes = busy_container();
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x40;
        // Some flips are caught at open (magic, version, counts, block
        // index); the rest must die on the per-block CRC or the strict
        // decode checks at load. None may panic or return a database.
        assert!(
            load_bytes(&dir, "flip", &corrupt).is_err(),
            "flip at byte {i} of {} produced a database",
            bytes.len()
        );
    }
}

#[test]
fn foreign_future_and_padded_containers_are_rejected() {
    let dir = temp_dir("foreign");
    // Not a container at all.
    let err = load_bytes(&dir, "png", b"PNG\r\n-definitely-not-a-container").unwrap_err();
    assert!(
        matches!(err, TrajectoryError::Format { ref message, .. } if message.contains("magic")),
        "{err:?}"
    );
    // Empty and sub-header files are truncation, not magic errors.
    assert!(load_bytes(&dir, "empty", b"").is_err());
    assert!(load_bytes(&dir, "stub", &busy_container()[..12]).is_err());
    // A future format version is refused by number, not by checksum.
    let mut future = busy_container();
    future[8..12].copy_from_slice(&9u32.to_le_bytes());
    let err = load_bytes(&dir, "future", &future).unwrap_err();
    assert!(
        matches!(err, TrajectoryError::Format { ref message, .. } if message.contains("version")),
        "{err:?}"
    );
    // Trailing garbage after the last block: strict opening refuses it.
    let mut padded = busy_container();
    padded.extend_from_slice(b"junk");
    assert!(load_bytes(&dir, "padded", &padded).is_err());
}
