//! The convoy query, convoy results, and result-set comparison utilities.

use traj_cluster::Cluster;
use trajectory::{TimeInterval, TimePoint};

/// The parameters of a convoy query (Definition 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvoyQuery {
    /// Minimum number of objects in a convoy (`m`).
    pub m: usize,
    /// Minimum number of consecutive time points the objects must stay
    /// density-connected (`k`, the lifetime).
    pub k: usize,
    /// Distance threshold for density connection (`e`).
    pub e: f64,
}

impl ConvoyQuery {
    /// Creates a query, clamping `m` and `k` to at least 1.
    pub fn new(m: usize, k: usize, e: f64) -> Self {
        ConvoyQuery {
            m: m.max(1),
            k: k.max(1),
            e,
        }
    }
}

/// One convoy in a query result: a group of objects together with the time
/// interval during which they travelled together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Convoy {
    /// The member objects.
    pub objects: Cluster,
    /// Start of the interval during which the members are density-connected.
    pub start: TimePoint,
    /// End of that interval (inclusive).
    pub end: TimePoint,
}

impl Convoy {
    /// Creates a convoy.
    pub fn new(objects: Cluster, start: TimePoint, end: TimePoint) -> Self {
        Convoy {
            objects,
            start: start.min(end),
            end: start.max(end),
        }
    }

    /// The convoy's time interval.
    pub fn interval(&self) -> TimeInterval {
        TimeInterval::new(self.start, self.end)
    }

    /// Number of consecutive time points covered (the convoy's lifetime),
    /// saturating at `i64::MAX` for convoys spanning the full tick range.
    pub fn lifetime(&self) -> i64 {
        self.end.saturating_sub(self.start).saturating_add(1)
    }

    /// Returns `true` when the convoy satisfies the size and lifetime
    /// constraints of `query` (the density-connection requirement is the
    /// responsibility of the algorithm that produced it).
    pub fn satisfies(&self, query: &ConvoyQuery) -> bool {
        self.objects.len() >= query.m && self.lifetime() >= query.k as i64
    }

    /// Returns `true` when `other` *dominates* this convoy: `other` has at
    /// least the same members and at least the same time extent. A dominated
    /// convoy carries no extra information in a result set.
    pub fn is_dominated_by(&self, other: &Convoy) -> bool {
        self.objects.is_subset_of(&other.objects)
            && other.start <= self.start
            && self.end <= other.end
    }
}

impl std::fmt::Display for Convoy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "⟨{{{}}}, [{}, {}]⟩",
            self.objects
                .iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            self.start,
            self.end
        )
    }
}

/// Normalises a convoy result set:
///
/// 1. convoys violating the query's `m`/`k` constraints are dropped;
/// 2. exact duplicates are dropped;
/// 3. convoys dominated by another convoy in the set (same or larger member
///    set over a containing interval) are dropped.
///
/// Both CMC and the CuTS refinement can emit dominated fragments of the same
/// underlying convoy (e.g. a sub-interval discovered from an overlapping
/// candidate); normalisation makes result sets canonically comparable.
pub fn normalize_convoys(convoys: Vec<Convoy>, query: &ConvoyQuery) -> Vec<Convoy> {
    let mut kept: Vec<Convoy> = Vec::with_capacity(convoys.len());
    let mut satisfying: Vec<Convoy> = convoys.into_iter().filter(|c| c.satisfies(query)).collect();
    // Sort by (interval length desc, member count desc) so dominating convoys
    // are considered before the fragments they dominate.
    satisfying.sort_by(|a, b| {
        (
            b.lifetime(),
            b.objects.len(),
            a.start,
            a.objects.members().to_vec(),
        )
            .cmp(&(
                a.lifetime(),
                a.objects.len(),
                b.start,
                b.objects.members().to_vec(),
            ))
    });
    for convoy in satisfying {
        if kept
            .iter()
            .any(|existing| convoy == *existing || convoy.is_dominated_by(existing))
        {
            continue;
        }
        kept.push(convoy);
    }
    // Deterministic output order: by start time, then members.
    kept.sort_by(|a, b| {
        (a.start, a.end, a.objects.members().to_vec()).cmp(&(
            b.start,
            b.end,
            b.objects.members().to_vec(),
        ))
    });
    kept
}

/// Accuracy of a candidate result set against a reference result set, in the
/// shape of the paper's Figure 19 (percentages of false positives and false
/// negatives).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccuracyReport {
    /// Number of reported convoys.
    pub reported: usize,
    /// Number of reference convoys.
    pub reference: usize,
    /// Reported convoys that do not correspond to any reference convoy.
    pub false_positives: usize,
    /// Reference convoys not covered by any reported convoy.
    pub false_negatives: usize,
}

impl AccuracyReport {
    /// False positives as a percentage of reported convoys (0 when nothing
    /// was reported).
    pub fn false_positive_percent(&self) -> f64 {
        if self.reported == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.reported as f64 * 100.0
        }
    }

    /// False negatives as a percentage of reference convoys (0 when the
    /// reference is empty).
    pub fn false_negative_percent(&self) -> f64 {
        if self.reference == 0 {
            0.0
        } else {
            self.false_negatives as f64 / self.reference as f64 * 100.0
        }
    }
}

/// Compares a reported result set against a reference result set (normally
/// the CMC output, which the paper treats as ground truth).
///
/// A reported convoy is counted as **correct** when it itself satisfies the
/// query constraints *and* some reference convoy dominates it (its members
/// and interval are contained in the reference convoy). A reference convoy is
/// counted as **found** when some reported convoy dominates it.
pub fn compare_result_sets(
    reported: &[Convoy],
    reference: &[Convoy],
    query: &ConvoyQuery,
) -> AccuracyReport {
    let false_positives = reported
        .iter()
        .filter(|r| !r.satisfies(query) || !reference.iter().any(|c| r.is_dominated_by(c)))
        .count();
    let false_negatives = reference
        .iter()
        .filter(|c| !reported.iter().any(|r| c.is_dominated_by(r)))
        .count();
    AccuracyReport {
        reported: reported.len(),
        reference: reference.len(),
        false_positives,
        false_negatives,
    }
}

/// Returns `true` when two *normalised* result sets are equivalent: every
/// convoy of one set is dominated by some convoy of the other and vice versa.
pub fn result_sets_equivalent(a: &[Convoy], b: &[Convoy]) -> bool {
    a.iter().all(|x| b.iter().any(|y| x.is_dominated_by(y)))
        && b.iter().all(|x| a.iter().any(|y| x.is_dominated_by(y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajectory::ObjectId;

    fn cluster(ids: &[u64]) -> Cluster {
        Cluster::new(ids.iter().map(|i| ObjectId(*i)).collect())
    }

    fn convoy(ids: &[u64], start: i64, end: i64) -> Convoy {
        Convoy::new(cluster(ids), start, end)
    }

    #[test]
    fn convoy_basic_properties() {
        let c = convoy(&[1, 2, 3], 5, 9);
        assert_eq!(c.lifetime(), 5);
        assert_eq!(c.interval(), TimeInterval::new(5, 9));
        assert!(c.satisfies(&ConvoyQuery::new(3, 5, 1.0)));
        assert!(!c.satisfies(&ConvoyQuery::new(4, 5, 1.0)));
        assert!(!c.satisfies(&ConvoyQuery::new(3, 6, 1.0)));
        // Construction normalises a reversed interval.
        assert_eq!(Convoy::new(cluster(&[1]), 9, 5).start, 5);
        let text = c.to_string();
        assert!(text.contains("o1") && text.contains("[5, 9]"));
    }

    #[test]
    fn domination() {
        let big = convoy(&[1, 2, 3, 4], 0, 10);
        let small = convoy(&[1, 2], 2, 8);
        assert!(small.is_dominated_by(&big));
        assert!(!big.is_dominated_by(&small));
        // A convoy always dominates itself.
        assert!(big.is_dominated_by(&big));
        // Same members but a longer interval is not dominated.
        let longer = convoy(&[1, 2], 0, 20);
        assert!(!longer.is_dominated_by(&big));
    }

    #[test]
    fn normalization_removes_duplicates_and_dominated_fragments() {
        let query = ConvoyQuery::new(2, 3, 1.0);
        let convoys = vec![
            convoy(&[1, 2, 3], 0, 9),
            convoy(&[1, 2, 3], 0, 9), // exact duplicate
            convoy(&[1, 2], 2, 6),    // dominated fragment
            convoy(&[1, 2], 0, 20),   // NOT dominated (longer interval)
            convoy(&[7], 0, 9),       // violates m
            convoy(&[8, 9], 0, 1),    // violates k
        ];
        let normalized = normalize_convoys(convoys, &query);
        assert_eq!(normalized.len(), 2);
        assert!(normalized.contains(&convoy(&[1, 2, 3], 0, 9)));
        assert!(normalized.contains(&convoy(&[1, 2], 0, 20)));
    }

    #[test]
    fn normalization_output_is_deterministic() {
        let query = ConvoyQuery::new(2, 2, 1.0);
        let a = normalize_convoys(vec![convoy(&[1, 2], 0, 5), convoy(&[3, 4], 2, 9)], &query);
        let b = normalize_convoys(vec![convoy(&[3, 4], 2, 9), convoy(&[1, 2], 0, 5)], &query);
        assert_eq!(a, b);
    }

    #[test]
    fn comparison_counts_false_positives_and_negatives() {
        let query = ConvoyQuery::new(2, 3, 1.0);
        let reference = vec![convoy(&[1, 2, 3], 0, 9), convoy(&[4, 5], 5, 12)];
        let reported = vec![
            convoy(&[1, 2, 3], 0, 9), // exact match
            convoy(&[6, 7], 0, 9),    // false positive (not in reference)
            convoy(&[4, 5], 5, 8),    // fragment: correct but does not cover the reference convoy
        ];
        let report = compare_result_sets(&reported, &reference, &query);
        assert_eq!(report.reported, 3);
        assert_eq!(report.reference, 2);
        assert_eq!(report.false_positives, 1);
        assert_eq!(report.false_negatives, 1); // convoy {4,5} [5,12] not fully covered
        assert!((report.false_positive_percent() - 100.0 / 3.0).abs() < 1e-9);
        assert!((report.false_negative_percent() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn comparison_empty_sets() {
        let query = ConvoyQuery::new(2, 3, 1.0);
        let report = compare_result_sets(&[], &[], &query);
        assert_eq!(report.false_positive_percent(), 0.0);
        assert_eq!(report.false_negative_percent(), 0.0);
        let report = compare_result_sets(&[convoy(&[1, 2], 0, 9)], &[], &query);
        assert_eq!(report.false_positives, 1);
    }

    #[test]
    fn equivalence_up_to_domination() {
        let a = vec![convoy(&[1, 2, 3], 0, 9)];
        let b = vec![convoy(&[1, 2, 3], 0, 9), convoy(&[1, 2], 3, 7)];
        assert!(result_sets_equivalent(&a, &b));
        let c = vec![convoy(&[1, 2, 3], 0, 9), convoy(&[8, 9], 0, 9)];
        assert!(!result_sets_equivalent(&a, &c));
    }
}
