//! The CuTS family: convoy discovery using trajectory simplification
//! (Sections 5 and 6 of the paper).
//!
//! All three variants share the same filter–refinement skeleton and differ
//! only in the simplification algorithm and the segment distance used by the
//! filter:
//!
//! | Variant  | Simplification | Segment distance | Distance bound |
//! |----------|----------------|------------------|----------------|
//! | `CuTS`   | DP             | `DLL`            | Lemma 1        |
//! | `CuTS+`  | DP+            | `DLL`            | Lemma 1        |
//! | `CuTS*`  | DP*            | `D*`             | Lemma 3        |

pub mod filter;
pub mod partition;
pub mod refine;

use traj_cluster::SegmentDistance;
use traj_simplify::{SimplificationMethod, ToleranceMode};
use trajectory::TimePartition;

/// The three members of the CuTS family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutsVariant {
    /// CuTS: DP simplification + `DLL` distance bounds (Lemma 1).
    Cuts,
    /// CuTS+: DP+ simplification + `DLL` distance bounds (Lemma 1).
    CutsPlus,
    /// CuTS*: DP* simplification + `D*` distance bounds (Lemma 3).
    CutsStar,
}

impl CutsVariant {
    /// All variants, in the order the paper's figures list them.
    pub const ALL: [CutsVariant; 3] = [
        CutsVariant::Cuts,
        CutsVariant::CutsPlus,
        CutsVariant::CutsStar,
    ];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            CutsVariant::Cuts => "CuTS",
            CutsVariant::CutsPlus => "CuTS+",
            CutsVariant::CutsStar => "CuTS*",
        }
    }

    /// The simplification method the variant uses.
    pub fn simplification(&self) -> SimplificationMethod {
        match self {
            CutsVariant::Cuts => SimplificationMethod::Dp,
            CutsVariant::CutsPlus => SimplificationMethod::DpPlus,
            CutsVariant::CutsStar => SimplificationMethod::DpStar,
        }
    }

    /// The segment distance function the variant's filter step uses.
    pub fn segment_distance(&self) -> SegmentDistance {
        match self {
            CutsVariant::Cuts | CutsVariant::CutsPlus => SegmentDistance::Dll,
            CutsVariant::CutsStar => SegmentDistance::DStar,
        }
    }
}

impl std::fmt::Display for CutsVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs of the CuTS filter step. None of these affect correctness —
/// only the filter's selectivity and therefore the running time (Section 7.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutsConfig {
    /// The variant to run.
    pub variant: CutsVariant,
    /// Simplification tolerance δ. `None` selects it automatically with the
    /// Section 7.4 guideline ([`crate::params::auto_delta`]).
    pub delta: Option<f64>,
    /// Time-partition length λ. `None` selects it automatically with the
    /// Section 7.4 guideline ([`crate::params::auto_lambda`]).
    pub lambda: Option<usize>,
    /// Whether range searches use each segment's actual tolerance (the
    /// paper's recommended setting) or the global δ (Figure 14's comparison
    /// baseline).
    pub tolerance_mode: ToleranceMode,
}

impl CutsConfig {
    /// The default configuration for a variant: automatic δ and λ, actual
    /// tolerances.
    pub fn new(variant: CutsVariant) -> Self {
        CutsConfig {
            variant,
            delta: None,
            lambda: None,
            tolerance_mode: ToleranceMode::Actual,
        }
    }

    /// Overrides the simplification tolerance δ.
    #[must_use]
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Overrides the partition length λ, normalised by
    /// [`TimePartition::clamp_lambda`] to the λ the filter runs.
    #[must_use]
    pub fn with_lambda(mut self, lambda: usize) -> Self {
        self.lambda = Some(TimePartition::clamp_lambda(lambda));
        self
    }

    /// Selects the tolerance mode used by the filter's range searches.
    #[must_use]
    pub fn with_tolerance_mode(mut self, mode: ToleranceMode) -> Self {
        self.tolerance_mode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_components_match_the_paper_table() {
        assert_eq!(CutsVariant::Cuts.simplification(), SimplificationMethod::Dp);
        assert_eq!(
            CutsVariant::CutsPlus.simplification(),
            SimplificationMethod::DpPlus
        );
        assert_eq!(
            CutsVariant::CutsStar.simplification(),
            SimplificationMethod::DpStar
        );
        assert_eq!(CutsVariant::Cuts.segment_distance(), SegmentDistance::Dll);
        assert_eq!(
            CutsVariant::CutsPlus.segment_distance(),
            SegmentDistance::Dll
        );
        assert_eq!(
            CutsVariant::CutsStar.segment_distance(),
            SegmentDistance::DStar
        );
        assert_eq!(CutsVariant::CutsStar.to_string(), "CuTS*");
        assert_eq!(CutsVariant::ALL.len(), 3);
    }

    #[test]
    fn config_builder() {
        let config = CutsConfig::new(CutsVariant::Cuts)
            .with_delta(3.5)
            .with_lambda(8)
            .with_tolerance_mode(ToleranceMode::Global);
        assert_eq!(config.delta, Some(3.5));
        assert_eq!(config.lambda, Some(8));
        assert_eq!(config.tolerance_mode, ToleranceMode::Global);
        let default = CutsConfig::new(CutsVariant::CutsStar);
        assert_eq!(default.delta, None);
        assert_eq!(default.lambda, None);
        assert_eq!(default.tolerance_mode, ToleranceMode::Actual);
    }
}
