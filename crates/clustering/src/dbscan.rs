//! A generic DBSCAN implementation (Ester et al., KDD 1996).
//!
//! The paper's convoy definition is phrased in terms of *density connection*
//! (Definition 2), which is exactly the relation DBSCAN computes: objects in
//! the same DBSCAN cluster are density-connected with respect to `e` and `m`.
//! The implementation here is deliberately agnostic of what the items are —
//! point snapshots and simplified sub-trajectories both plug in through the
//! [`RegionQuery`] trait.

/// A neighbourhood provider: given an item index, returns the indices of all
/// items within distance `e` of it (the `NH_e` set, **including** the item
/// itself).
pub trait RegionQuery {
    /// Number of items in the collection.
    fn len(&self) -> usize;

    /// Returns `true` when the collection holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The e-neighbourhood of item `idx` (indices of all items within range,
    /// including `idx` itself).
    fn neighbors(&self, idx: usize) -> Vec<usize>;

    /// Writes the e-neighbourhood of item `idx` into `out` (cleared first),
    /// in exactly the order [`RegionQuery::neighbors`] would report it.
    ///
    /// The default implementation delegates to `neighbors`, so providers that
    /// don't care about allocation (the brute-force test index) keep working
    /// unchanged; hot-path providers override it to reuse the caller's
    /// buffer: [`crate::GridIndex`] answers through the batched
    /// [`crate::kernel`] distance scan, [`crate::SubTrajectoryIndex`] copies
    /// the item's precomputed adjacency slice. The scratch-driven DBSCAN
    /// below only ever calls this entry point.
    fn neighbors_into(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.neighbors(idx));
    }

    /// An upper bound on `self.neighbors(idx).len()`, cheaper than the
    /// query itself.
    ///
    /// The contract is one-sided: the bound may overcount but must **never
    /// undercount**. [`dbscan_into`] skips the region query of any item
    /// whose bound is below `min_pts` — such an item cannot be core, and the
    /// core test is the query's only use at those points — so an undercount
    /// would silently turn a core item into noise or an unexpanded border.
    ///
    /// The default, `usize::MAX`, never skips anything; providers without a
    /// cheap bound (the brute-force test index) keep it. [`crate::GridIndex`]
    /// answers with the point count of the item's 3×3 cell block,
    /// [`crate::SubTrajectoryIndex`] with the exact neighbourhood size.
    fn neighbor_bound(&self, _idx: usize) -> usize {
        usize::MAX
    }
}

/// The DBSCAN label assigned to an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// The item has not been visited yet (only observable mid-run).
    Unvisited,
    /// The item is not density-reachable from any core item.
    Noise,
    /// The item belongs to the cluster with the given index.
    Cluster(usize),
}

/// Runs DBSCAN over `query.len()` items.
///
/// `min_pts` is the paper's `m`: an item is a *core* item when its
/// e-neighbourhood (including itself) has at least `min_pts` members. The
/// return value assigns every item a [`Label`]; cluster indices are dense and
/// start at zero.
///
/// Border items (non-core items within range of a core item) are assigned to
/// the first core cluster that reaches them, exactly as in the original
/// algorithm.
pub fn dbscan<Q: RegionQuery>(query: &Q, min_pts: usize) -> Vec<Label> {
    let mut scratch = DbscanScratch::new();
    dbscan_into(query, min_pts, &mut scratch);
    scratch.labels
}

/// Reusable working state for [`dbscan_into`]: the label array, the BFS
/// seed queue and the neighbourhood buffer.
///
/// A scratch reused across runs reaches an allocation fixpoint: once every
/// buffer has grown to the largest input seen, further runs perform no heap
/// allocation at all (the zero-allocation contract the snapshot clusterer
/// builds on).
#[derive(Debug, Clone, Default)]
pub struct DbscanScratch {
    labels: Vec<Label>,
    seeds: Vec<usize>,
    neigh: Vec<usize>,
    region_queries: u64,
    queries_skipped: u64,
}

impl DbscanScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The labels of the most recent run.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The most recent run's `(region queries executed, region queries
    /// skipped by the [`RegionQuery::neighbor_bound`] test)`. Every item is
    /// visited exactly once, so the two always sum to the item count.
    pub fn query_counts(&self) -> (u64, u64) {
        (self.region_queries, self.queries_skipped)
    }
}

/// The scratch-driven DBSCAN all public entry points run on: identical
/// output to [`dbscan`] (same visiting order, same seeds, same labels), but
/// every buffer lives in `scratch` and is reused across calls instead of
/// freshly allocated.
///
/// After the call, `scratch.labels()` holds the run's result
/// (`query.len()` entries).
///
/// An item's region query runs only when its
/// [`RegionQuery::neighbor_bound`] admits at least `min_pts` neighbours. At
/// both places an item is first visited — a fresh cluster start and an
/// unvisited BFS item — the query's only use is the core test, so an item
/// whose bound rules it out is labelled exactly as the query would have
/// labelled it (`Noise` at a start, an unexpanded member in the BFS).
// lint: hot-path — the per-tick DBSCAN core; all buffers must come from `scratch`
pub fn dbscan_into<Q: RegionQuery>(query: &Q, min_pts: usize, scratch: &mut DbscanScratch) {
    let n = query.len();
    let DbscanScratch {
        labels,
        seeds,
        neigh,
        region_queries,
        queries_skipped,
    } = scratch;
    labels.clear();
    labels.resize(n, Label::Unvisited);
    *region_queries = 0;
    *queries_skipped = 0;
    let mut next_cluster = 0usize;

    for start in 0..n {
        if labels[start] != Label::Unvisited {
            continue;
        }
        if query.neighbor_bound(start) < min_pts {
            *queries_skipped += 1;
            labels[start] = Label::Noise;
            continue;
        }
        *region_queries += 1;
        query.neighbors_into(start, neigh);
        if neigh.len() < min_pts {
            labels[start] = Label::Noise;
            continue;
        }
        // `start` is a core item: grow a new cluster from it.
        let cluster_id = next_cluster;
        next_cluster += 1;
        labels[start] = Label::Cluster(cluster_id);
        seeds.clear();
        seeds.extend_from_slice(neigh);
        let mut cursor = 0;
        while cursor < seeds.len() {
            let item = seeds[cursor];
            cursor += 1;
            match labels[item] {
                Label::Cluster(_) => continue,
                Label::Noise | Label::Unvisited => {
                    let was_unvisited = labels[item] == Label::Unvisited;
                    labels[item] = Label::Cluster(cluster_id);
                    if was_unvisited {
                        if query.neighbor_bound(item) < min_pts {
                            *queries_skipped += 1;
                            continue;
                        }
                        *region_queries += 1;
                        query.neighbors_into(item, neigh);
                        if neigh.len() >= min_pts {
                            // `item` is itself a core item: its neighbourhood
                            // is density-reachable and must be explored.
                            seeds.extend_from_slice(neigh);
                        }
                    }
                }
            }
        }
    }
}

/// Groups DBSCAN labels into clusters of item indices (noise is dropped).
pub fn labels_to_clusters(labels: &[Label]) -> Vec<Vec<usize>> {
    let num_clusters = labels
        .iter()
        .filter_map(|l| match l {
            Label::Cluster(c) => Some(*c + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut clusters = vec![Vec::new(); num_clusters];
    for (idx, label) in labels.iter().enumerate() {
        if let Label::Cluster(c) = label {
            clusters[*c].push(idx);
        }
    }
    clusters
}

/// A brute-force [`RegionQuery`] over 2-D points: the oracle the unit tests
/// check DBSCAN and the grid's neighbourhoods against.
#[cfg(test)]
pub struct BruteForcePoints<'a> {
    points: &'a [trajectory::geometry::Point],
    epsilon: f64,
}

#[cfg(test)]
impl<'a> BruteForcePoints<'a> {
    /// Creates a brute-force provider over `points` with range `epsilon`.
    pub fn new(points: &'a [trajectory::geometry::Point], epsilon: f64) -> Self {
        BruteForcePoints { points, epsilon }
    }
}

#[cfg(test)]
impl RegionQuery for BruteForcePoints<'_> {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn neighbors(&self, idx: usize) -> Vec<usize> {
        let target = &self.points[idx];
        let eps_sq = self.epsilon * self.epsilon;
        self.points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_squared(target) <= eps_sq)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use trajectory::geometry::Point;

    fn run(points: &[(f64, f64)], e: f64, m: usize) -> Vec<Label> {
        let pts: Vec<Point> = points.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        dbscan(&BruteForcePoints::new(&pts, e), m)
    }

    #[test]
    fn two_well_separated_clusters() {
        let labels = run(
            &[
                (0.0, 0.0),
                (1.0, 0.0),
                (0.0, 1.0),
                (100.0, 100.0),
                (101.0, 100.0),
                (100.0, 101.0),
            ],
            2.0,
            3,
        );
        let clusters = labels_to_clusters(&labels);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0], vec![0, 1, 2]);
        assert_eq!(clusters[1], vec![3, 4, 5]);
    }

    #[test]
    fn isolated_points_are_noise() {
        let labels = run(&[(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)], 1.0, 2);
        assert!(labels.iter().all(|l| *l == Label::Noise));
        assert!(labels_to_clusters(&labels).is_empty());
    }

    #[test]
    fn chain_is_density_connected() {
        // A chain of points each within e of the next: density connection
        // links the two ends even though they are far apart — the arbitrary
        // shape/extent property the paper relies on (the anti-lossy-flock
        // argument of Figure 1).
        let chain: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 0.0)).collect();
        let labels = run(&chain, 1.1, 2);
        let clusters = labels_to_clusters(&labels);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 10);
    }

    #[test]
    fn chain_breaks_when_min_pts_too_large() {
        let chain: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 0.0)).collect();
        // With m=4, interior points have only 3 neighbours (self + 2): all noise.
        let labels = run(&chain, 1.1, 4);
        assert!(labels.iter().all(|l| *l == Label::Noise));
    }

    #[test]
    fn border_point_joins_exactly_one_cluster() {
        // Two dense groups with one point equidistant between them (a border
        // point of both); it must end up in exactly one cluster, not both,
        // and must not be noise.
        let pts = vec![
            (0.0, 0.0),
            (0.5, 0.0),
            (1.0, 0.0), // dense group A
            (5.0, 0.0), // border point (within 4.0+eps of both groups? keep symmetric)
            (9.0, 0.0),
            (9.5, 0.0),
            (10.0, 0.0), // dense group B
        ];
        let labels = run(&pts, 4.0, 3);
        match labels[3] {
            Label::Cluster(_) => {}
            other => panic!("border point should be clustered, got {other:?}"),
        }
        let clusters = labels_to_clusters(&labels);
        let appearances: usize = clusters.iter().filter(|c| c.contains(&3)).count();
        assert_eq!(appearances, 1);
    }

    #[test]
    fn empty_input() {
        let labels = run(&[], 1.0, 2);
        assert!(labels.is_empty());
        assert!(labels_to_clusters(&labels).is_empty());
    }

    #[test]
    fn min_pts_one_makes_every_point_a_cluster() {
        let labels = run(&[(0.0, 0.0), (10.0, 0.0)], 1.0, 1);
        let clusters = labels_to_clusters(&labels);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn duplicate_points_cluster_together() {
        let labels = run(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], 0.5, 3);
        let clusters = labels_to_clusters(&labels);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn epsilon_boundary_is_inclusive() {
        // Neighbourhoods use d <= e (Definition 1 uses closed balls): three
        // points spaced *exactly* e apart chain into one cluster, and each
        // endpoint has exactly 2 neighbours (itself + the middle point).
        let pts: Vec<Point> = [(0.0, 0.0), (3.0, 0.0), (6.0, 0.0)]
            .iter()
            .map(|(x, y)| Point::new(*x, *y))
            .collect();
        let provider = BruteForcePoints::new(&pts, 3.0);
        assert_eq!(provider.neighbors(0).len(), 2);
        assert_eq!(provider.neighbors(1).len(), 3); // middle point sees all
        let labels = dbscan(&provider, 3);
        let clusters = labels_to_clusters(&labels);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0], vec![0, 1, 2]);
    }

    #[test]
    fn early_noise_is_reclaimed_as_border_point() {
        // Index 0 is visited first and labelled noise (only 2 of the required
        // 3 neighbours). The cluster grown later from index 1 reaches it
        // through the core point at (2, 0) and must re-label it as border.
        let labels = run(&[(4.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 2.0, 3);
        assert!(
            matches!(labels[0], Label::Cluster(_)),
            "early noise point must be claimed by the later cluster, got {:?}",
            labels[0]
        );
        let clusters = labels_to_clusters(&labels);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 4);
    }

    #[test]
    fn core_requirement_counts_the_point_itself() {
        // An equilateral-ish triangle with pairwise distances within e: every
        // point has 3 neighbours including itself, so m=3 clusters them and
        // m=4 leaves all of them noise.
        let triangle = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.8)];
        let clusters = labels_to_clusters(&run(&triangle, 1.5, 3));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 3);
        assert!(run(&triangle, 1.5, 4).iter().all(|l| *l == Label::Noise));
    }

    proptest! {
        #[test]
        fn every_cluster_has_at_least_one_core_point(
            coords in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..60),
            e in 0.5f64..10.0,
            m in 2usize..5) {
            let pts: Vec<Point> = coords.iter().map(|(x, y)| Point::new(*x, *y)).collect();
            let provider = BruteForcePoints::new(&pts, e);
            let labels = dbscan(&provider, m);
            for cluster in labels_to_clusters(&labels) {
                // Every cluster is grown from a core point. (Note the cluster
                // itself can end up with fewer than m members when one of the
                // seed's neighbours is a border point already claimed by an
                // earlier cluster — an inherent DBSCAN property; the convoy
                // algorithms re-check the m constraint on their candidates.)
                prop_assert!(!cluster.is_empty());
                let has_core = cluster.iter().any(|&i| provider.neighbors(i).len() >= m);
                prop_assert!(has_core);
            }
        }

        #[test]
        fn labels_cover_every_item_exactly_once(
            coords in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 0..60),
            e in 0.5f64..10.0,
            m in 2usize..5) {
            let pts: Vec<Point> = coords.iter().map(|(x, y)| Point::new(*x, *y)).collect();
            let labels = dbscan(&BruteForcePoints::new(&pts, e), m);
            prop_assert_eq!(labels.len(), pts.len());
            prop_assert!(labels.iter().all(|l| *l != Label::Unvisited));
            // Each item appears in at most one cluster.
            let clusters = labels_to_clusters(&labels);
            let total: usize = clusters.iter().map(|c| c.len()).sum();
            let clustered = labels.iter().filter(|l| matches!(l, Label::Cluster(_))).count();
            prop_assert_eq!(total, clustered);
        }

        #[test]
        fn core_point_partition_is_permutation_invariant(
            coords in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 2..40),
            e in 0.5f64..8.0,
            m in 2usize..4) {
            // DBSCAN's assignment of border points can depend on visit order,
            // but the partition restricted to *core* points must not.
            let pts: Vec<Point> = coords.iter().map(|(x, y)| Point::new(*x, *y)).collect();
            let provider = BruteForcePoints::new(&pts, e);
            let labels_fwd = dbscan(&provider, m);

            // Reverse the point order and re-run.
            let reversed: Vec<Point> = pts.iter().rev().copied().collect();
            let provider_rev = BruteForcePoints::new(&reversed, e);
            let labels_rev_raw = dbscan(&provider_rev, m);
            // Map reversed labels back onto original indices.
            let n = pts.len();
            let labels_rev: Vec<Label> = (0..n).map(|i| labels_rev_raw[n - 1 - i]).collect();

            let is_core = |i: usize| provider.neighbors(i).len() >= m;
            for i in 0..n {
                for j in (i + 1)..n {
                    if is_core(i) && is_core(j) {
                        let same_fwd = labels_fwd[i] == labels_fwd[j];
                        let same_rev = labels_rev[i] == labels_rev[j];
                        prop_assert_eq!(same_fwd, same_rev,
                            "core points {} and {} grouped inconsistently", i, j);
                    }
                }
            }
        }
    }
}
