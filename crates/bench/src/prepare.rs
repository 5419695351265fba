//! Dataset preparation for the paper experiments.

use convoy_core::ConvoyQuery;
use traj_datasets::{generate, DatasetProfile, GeneratedDataset, ProfileName};

/// Default scale applied to the paper-sized profiles when `CONVOY_SCALE` is
/// not set: large enough that the algorithmic trade-offs are visible, small
/// enough that the whole suite runs in minutes.
pub const DEFAULT_SCALE: f64 = 0.15;

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

/// Reads the experiment scale from `CONVOY_SCALE`: unset means
/// [`DEFAULT_SCALE`], and a set value must be a finite number greater than
/// 0. The error names the variable and the value it got.
pub fn scale_from_env() -> Result<f64, String> {
    let value = std::env::var_os("CONVOY_SCALE");
    parse_scale(value.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

fn parse_scale(value: Option<&str>) -> Result<f64, String> {
    let Some(value) = value else {
        return Ok(DEFAULT_SCALE);
    };
    match value.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!(
            "CONVOY_SCALE must be a finite number greater than 0, got {value:?}"
        )),
    }
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
    fn scale_parsing_accepts_only_finite_positive_values() {
        assert_eq!(parse_scale(None), Ok(DEFAULT_SCALE));
        for (value, expected) in [
            ("abc", None),
            ("", None),
            ("0", None),
            ("-1", None),
            ("nan", None),
            ("inf", None),
            ("1e309", None),
            ("0.02", Some(0.02)),
            ("1.0", Some(1.0)),
        ] {
            match (parse_scale(Some(value)), expected) {
                (Ok(scale), Some(expected)) => assert_eq!(scale, expected, "{value:?}"),
                (Err(message), None) => {
                    assert!(message.contains("CONVOY_SCALE"), "{message}");
                    assert!(message.contains(&format!("{value:?}")), "{message}");
                }
                (got, _) => panic!("{value:?} parsed to {got:?}, expected {expected:?}"),
            }
        }
    }
}
