//! Dataset preparation shared by the paper experiments and the benches.

use convoy_core::ConvoyQuery;
use traj_datasets::{generate, DatasetProfile, GeneratedDataset, ProfileName};

/// Default scale applied to the paper-sized profiles when `CONVOY_SCALE` is
/// not set: large enough that the algorithmic trade-offs are visible, small
/// enough that the whole suite runs in minutes.
pub const DEFAULT_SCALE: f64 = 0.15;

/// Scale used by the Criterion benches (which execute each body many
/// times); can be overridden with `CONVOY_BENCH_SCALE`.
pub const BENCH_SCALE: f64 = 0.05;

/// The seed every experiment uses, so that figures are reproducible
/// run-to-run.
pub const SEED: u64 = 20080824; // VLDB 2008 started on 24 August 2008.

/// A dataset prepared for experiments: the generated data plus the convoy
/// query the paper's Table 3 associates with that dataset.
#[derive(Debug, Clone)]
pub struct PreparedDataset {
    /// Which profile this is.
    pub name: ProfileName,
    /// The (possibly scaled) profile used for the generation.
    pub profile: DatasetProfile,
    /// The generated database and ground truth.
    pub dataset: GeneratedDataset,
    /// The convoy query matching the profile's Table 3 parameters.
    pub query: ConvoyQuery,
}

/// Reads the experiment scale from `CONVOY_SCALE`, falling back to
/// [`DEFAULT_SCALE`].
pub fn scale_from_env() -> f64 {
    std::env::var("CONVOY_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(DEFAULT_SCALE)
}

/// Reads the Criterion bench scale from `CONVOY_BENCH_SCALE`, falling back to
/// [`BENCH_SCALE`].
pub fn bench_scale() -> f64 {
    std::env::var("CONVOY_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(BENCH_SCALE)
}

/// Generates the dataset for one profile at the given scale, together with
/// its Table 3 query parameters.
pub fn prepared(name: ProfileName, scale: f64) -> PreparedDataset {
    let profile = DatasetProfile::named(name).scaled(scale);
    let dataset = generate(&profile, SEED);
    let query = ConvoyQuery::new(profile.m, profile.k, profile.e);
    PreparedDataset {
        name,
        profile,
        dataset,
        query,
    }
}

/// The profiles a set of experiments needs, each generated once, on first
/// use, at one scale.
#[derive(Debug)]
pub struct Datasets {
    scale: f64,
    prepared: Vec<PreparedDataset>,
}

impl Datasets {
    /// An empty cache generating at `scale`.
    pub fn new(scale: f64) -> Self {
        Datasets {
            scale,
            prepared: Vec::new(),
        }
    }

    /// The prepared dataset of `name`, generating it on the first call.
    pub fn get(&mut self, name: ProfileName) -> &PreparedDataset {
        let index = match self.prepared.iter().position(|p| p.name == name) {
            Some(index) => index,
            None => {
                self.prepared.push(prepared(name, self.scale));
                self.prepared.len() - 1
            }
        };
        &self.prepared[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_dataset_is_consistent_with_its_profile() {
        let p = prepared(ProfileName::Taxi, 0.02);
        assert_eq!(p.name, ProfileName::Taxi);
        assert_eq!(p.query.m, p.profile.m);
        assert_eq!(p.query.e, p.profile.e);
        assert_eq!(p.dataset.database.len(), p.profile.num_objects);
    }

    #[test]
    fn datasets_generate_each_profile_once() {
        let mut datasets = Datasets::new(0.02);
        let first = datasets
            .get(ProfileName::Truck)
            .dataset
            .database
            .total_points();
        datasets.get(ProfileName::Taxi);
        assert_eq!(
            datasets
                .get(ProfileName::Truck)
                .dataset
                .database
                .total_points(),
            first
        );
        assert_eq!(datasets.prepared.len(), 2);
    }

    #[test]
    fn scale_parsing_falls_back_to_default() {
        // The environment variable is not set in the test harness.
        assert!(scale_from_env() > 0.0);
        assert!(bench_scale() > 0.0);
    }
}
