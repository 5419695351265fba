//! Feed-order errors for live sample streams.
//!
//! A trajectory *feed* delivers `(object, t, x, y)` samples in time order:
//! the global timestamp never decreases, and each object's own timestamps
//! strictly increase (two objects may share a timestamp, one object may
//! not). Batch ingestion tolerates arbitrary order because it sorts at
//! [`crate::TrajectoryBuilder::build`] time; a streaming consumer cannot —
//! it closes time partitions as soon as the watermark passes them, so a
//! late sample would have to be silently dropped or would corrupt already
//! published results. A streaming consumer rejects such samples at the door
//! with a precise [`FeedError`] instead.

use crate::database::ObjectId;
use crate::time::TimePoint;

/// Why a feed sample was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedError {
    /// The sample's timestamp is older than the feed watermark (the largest
    /// timestamp accepted so far). Feeds must be globally time-ordered.
    OutOfOrder {
        /// The object the rejected sample belongs to.
        object: ObjectId,
        /// The rejected sample's timestamp.
        t: TimePoint,
        /// The feed watermark at rejection time.
        watermark: TimePoint,
    },
    /// The object already has a sample at this timestamp. Per-object
    /// timestamps must strictly increase (matching [`crate::Trajectory`]'s
    /// construction invariant).
    ///
    /// This is the **first-sample-wins** half of the suite's duplicate
    /// policy: a live feed cannot retract a sample downstream consumers may
    /// already have acted on, so the later duplicate is refused. Batch CSV
    /// ingest sees the whole file before building and deliberately keeps the
    /// *last* occurrence instead ("later fix wins", see
    /// [`crate::TrajectoryBuilder::build`]); `traj-datasets` pins the
    /// divergence with a cross-path test, and `convoy convert` reports the
    /// collapsed-duplicate count.
    DuplicateTimestamp {
        /// The object the rejected sample belongs to.
        object: ObjectId,
        /// The duplicated timestamp.
        t: TimePoint,
    },
    /// A coordinate is NaN or infinite (matching the validation
    /// [`crate::Trajectory::from_points`] applies in batch).
    NonFiniteCoordinate {
        /// The object the rejected sample belongs to.
        object: ObjectId,
        /// The rejected sample's timestamp.
        t: TimePoint,
    },
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::OutOfOrder {
                object,
                t,
                watermark,
            } => write!(
                f,
                "out-of-order sample for {object} at t={t} (feed watermark is t={watermark})"
            ),
            FeedError::DuplicateTimestamp { object, t } => {
                write!(f, "duplicate sample for {object} at t={t}")
            }
            FeedError::NonFiniteCoordinate { object, t } => {
                write!(f, "non-finite coordinate for {object} at t={t}")
            }
        }
    }
}

impl std::error::Error for FeedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_with_context() {
        let text = FeedError::OutOfOrder {
            object: ObjectId(7),
            t: 3,
            watermark: 9,
        }
        .to_string();
        assert!(text.contains("o7") && text.contains("t=3") && text.contains("t=9"));
    }
}
