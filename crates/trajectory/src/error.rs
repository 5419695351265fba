//! Error types shared by the trajectory data model.

use std::fmt;

/// Convenience result alias for fallible trajectory operations.
pub type Result<T> = std::result::Result<T, TrajectoryError>;

/// Errors produced when constructing or querying trajectories and databases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrajectoryError {
    /// A trajectory was constructed from an empty point sequence.
    EmptyTrajectory,
    /// The timestamps of a trajectory's points were not strictly increasing.
    NonMonotonicTime {
        /// Index of the offending point within the input sequence.
        index: usize,
    },
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate {
        /// Index of the offending point within the input sequence.
        index: usize,
    },
    /// A parse error from textual trajectory input (CSV et al.).
    Parse {
        /// Line number (1-based) at which parsing failed.
        line: usize,
        /// Human-readable description of the failure.
        message: String,
    },
    /// An I/O failure while opening or reading trajectory input. Distinct
    /// from [`TrajectoryError::Parse`]: a missing or unreadable file is not
    /// a malformed line, and reports no pretend line number.
    Io {
        /// The path that failed to open or read (empty when the input was an
        /// anonymous reader).
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A binary trajectory container failed to decode (bad magic, version,
    /// checksum, or structure). The message carries the backend's typed
    /// error, rendered.
    Format {
        /// The path of the offending file (empty when decoding from memory).
        path: String,
        /// Description of the decode failure.
        message: String,
    },
    /// An invalid parameter value was supplied (e.g. a non-positive λ).
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Explanation of the constraint that was violated.
        message: String,
    },
}

impl fmt::Display for TrajectoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrajectoryError::EmptyTrajectory => {
                write!(f, "trajectory must contain at least one point")
            }
            TrajectoryError::NonMonotonicTime { index } => write!(
                f,
                "trajectory timestamps must be strictly increasing (violated at point {index})"
            ),
            TrajectoryError::NonFiniteCoordinate { index } => write!(
                f,
                "trajectory coordinates must be finite (violated at point {index})"
            ),
            TrajectoryError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            TrajectoryError::Io { path, message } => {
                if path.is_empty() {
                    write!(f, "I/O error: {message}")
                } else {
                    write!(f, "cannot read {path}: {message}")
                }
            }
            TrajectoryError::Format { path, message } => {
                if path.is_empty() {
                    write!(f, "invalid trajectory container: {message}")
                } else {
                    write!(f, "invalid trajectory container {path}: {message}")
                }
            }
            TrajectoryError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
        }
    }
}

impl std::error::Error for TrajectoryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(TrajectoryError, &str)> = vec![
            (TrajectoryError::EmptyTrajectory, "at least one point"),
            (
                TrajectoryError::NonMonotonicTime { index: 3 },
                "strictly increasing",
            ),
            (TrajectoryError::NonFiniteCoordinate { index: 1 }, "finite"),
            (
                TrajectoryError::Parse {
                    line: 12,
                    message: "bad x".into(),
                },
                "line 12",
            ),
            (
                TrajectoryError::InvalidParameter {
                    name: "lambda",
                    message: "must be positive".into(),
                },
                "lambda",
            ),
            (
                TrajectoryError::Io {
                    path: "/data/truck.csv".into(),
                    message: "No such file or directory".into(),
                },
                "cannot read /data/truck.csv",
            ),
            (
                TrajectoryError::Format {
                    path: "x.convoy".into(),
                    message: "bad magic".into(),
                },
                "invalid trajectory container x.convoy",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "`{text}` should mention `{needle}`");
        }
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            TrajectoryError::NonMonotonicTime { index: 1 },
            TrajectoryError::NonMonotonicTime { index: 1 }
        );
        assert_ne!(
            TrajectoryError::NonMonotonicTime { index: 1 },
            TrajectoryError::NonMonotonicTime { index: 2 }
        );
    }
}
