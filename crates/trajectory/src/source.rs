//! Pluggable trajectory storage: the [`TrajectorySource`] trait.
//!
//! A *source* is anything that can materialise a [`TrajectoryDatabase`] —
//! a CSV file, the binary `.convoy` columnar container, eventually a remote
//! object store. Consumers (the discovery façade, the CLI, the benchmark
//! harness) program against this trait so every ingestion path gains new
//! backends for free, the same shape as versatiles' `container_reader`
//! layer: one trait, many on-disk formats behind a sniffing factory (the
//! factory lives in `traj-datasets`, next to the formats themselves).
//!
//! ## Windowed loads
//!
//! [`TrajectorySource::load_window`] returns the sub-database of samples
//! whose timestamp lies inside the window — exactly
//! [`TrajectoryDatabase::restrict`] applied to a full load. The contract is
//! deliberately sample-selecting, not interpolating: a windowed load never
//! reaches outside the window for bracketing samples, so a block-indexed
//! backend can skip every block disjoint from the window and still return a
//! database *identical* to `load()?.restrict(window)`. Discovery over a
//! window therefore interpolates only between samples inside it.

use crate::database::TrajectoryDatabase;
use crate::error::Result;
use crate::time::TimeInterval;
use convoy_obs::{Obs, Registry};

/// Read-side statistics of a source's most recent load.
///
/// Block-indexed backends report how much of the file a load actually
/// touched; flat backends (CSV) count as a single block. `records_read`
/// counts every sample the backend decoded, *including* duplicates the
/// database later collapsed — the difference between `records_read` and the
/// loaded database's total points is the duplicate-sample count `convoy
/// convert` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Total data blocks in the source (1 for unblocked formats).
    pub blocks_total: usize,
    /// Blocks actually read and decoded by the last load.
    pub blocks_read: usize,
    /// Samples decoded by the last load, before deduplication.
    pub records_read: u64,
}

/// A readable trajectory storage backend.
///
/// Implementations take `&mut self` so they can reuse internal decode
/// buffers across loads and record [`ScanStats`].
pub trait TrajectorySource {
    /// Loads the entire database.
    fn load(&mut self) -> Result<TrajectoryDatabase>;

    /// Loads only the samples with `window.start <= t <= window.end`
    /// (see the module docs for the exact semantics). The default
    /// implementation loads everything and restricts; block-indexed
    /// backends override it to read only the touched blocks.
    fn load_window(&mut self, window: TimeInterval) -> Result<TrajectoryDatabase> {
        Ok(self.load()?.restrict(window))
    }

    /// Statistics of the most recent `load`/`load_window` call.
    fn scan_stats(&self) -> ScanStats;

    /// Short human-readable format name (`"csv"`, `"convoy"`).
    fn format_name(&self) -> &'static str;

    /// Attaches a recorder: subsequent loads record the `scan.*` I/O metrics
    /// that [`ScanStats`] does not hold (loads, bytes scanned, decode time).
    /// Default: ignored, for backends without instrumentation.
    fn set_obs(&mut self, _obs: Obs) {}
}

/// Publishes a [`ScanStats`] into `registry` under the canonical `scan.*`
/// names. Store semantics: the struct describes the *most recent* load, so
/// each publish replaces the previous values.
pub fn publish_scan_stats(registry: &Registry, stats: &ScanStats) {
    registry.counter_store("scan.blocks_total", stats.blocks_total as u64);
    registry.counter_store("scan.blocks_read", stats.blocks_read as u64);
    registry.counter_store(
        "scan.blocks_pruned",
        stats.blocks_total.saturating_sub(stats.blocks_read) as u64,
    );
    registry.counter_store("scan.records_read", stats.records_read);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::ObjectId;
    use crate::trajectory::Trajectory;

    /// A trivial in-memory source exercising the default `load_window`.
    struct MemSource {
        db: TrajectoryDatabase,
        stats: ScanStats,
    }

    impl TrajectorySource for MemSource {
        fn load(&mut self) -> Result<TrajectoryDatabase> {
            self.stats = ScanStats {
                blocks_total: 1,
                blocks_read: 1,
                records_read: self.db.total_points() as u64,
            };
            Ok(self.db.clone())
        }
        fn scan_stats(&self) -> ScanStats {
            self.stats
        }
        fn format_name(&self) -> &'static str {
            "mem"
        }
    }

    #[test]
    fn default_load_window_equals_restrict() {
        let mut db = TrajectoryDatabase::new();
        db.insert(
            ObjectId(1),
            Trajectory::from_tuples([(0.0, 0.0, 0), (1.0, 0.0, 5), (2.0, 0.0, 9)]).unwrap(),
        );
        db.insert(
            ObjectId(2),
            Trajectory::from_tuples([(5.0, 5.0, 7)]).unwrap(),
        );
        let mut source = MemSource {
            db: db.clone(),
            stats: ScanStats::default(),
        };
        let window = TimeInterval::new(5, 8);
        let windowed = source.load_window(window).unwrap();
        assert_eq!(windowed, db.restrict(window));
        assert_eq!(windowed.len(), 2);
        assert_eq!(windowed.get(ObjectId(1)).unwrap().len(), 1);
        assert_eq!(source.scan_stats().blocks_read, 1);
    }
}
