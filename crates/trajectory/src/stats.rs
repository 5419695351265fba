//! Dataset statistics in the shape of the paper's Table 3.

/// Summary statistics of a trajectory database, mirroring the first four rows
/// of Table 3 in the paper (number of objects `N`, time-domain length `T`,
/// average trajectory length, and total data size in points).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DatasetStats {
    /// Number of objects `N`.
    pub num_objects: usize,
    /// Length of the time domain `T` (number of discrete time points spanned).
    pub time_domain_length: i64,
    /// Average number of samples per trajectory.
    pub average_trajectory_length: f64,
    /// Total number of samples across all trajectories ("data size (points)").
    pub total_points: usize,
}

impl DatasetStats {
    /// Renders the statistics as aligned `key: value` lines, convenient for
    /// the Table 3 reproduction binary and for examples.
    pub fn to_table(&self) -> String {
        format!(
            "number of objects (N): {}\n\
             time domain length (T): {}\n\
             average trajectory length: {:.1}\n\
             data size (points): {}",
            self.num_objects,
            self.time_domain_length,
            self.average_trajectory_length,
            self.total_points
        )
    }
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "N={} T={} avg_len={:.1} points={}",
            self.num_objects,
            self.time_domain_length,
            self.average_trajectory_length,
            self.total_points
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_contains_all_rows() {
        let stats = DatasetStats {
            num_objects: 267,
            time_domain_length: 10586,
            average_trajectory_length: 224.0,
            total_points: 59894,
        };
        let table = stats.to_table();
        assert!(table.contains("267"));
        assert!(table.contains("10586"));
        assert!(table.contains("224.0"));
        assert!(table.contains("59894"));
        let display = stats.to_string();
        assert!(display.contains("N=267"));
    }
}
