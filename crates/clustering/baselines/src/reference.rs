//! The **frozen pre-CSR clustering hot path**, kept verbatim as a
//! behavioural reference — not production code.
//!
//! The CSR [`GridIndex`](traj_cluster::GridIndex) rewrite promises the exact
//! neighbour sets *and order* of the original `HashMap`-bucket
//! implementation (the engines' bit-identical guarantees depend on it).
//! That claim needs the original to stay available and unchanged in one
//! place: the order-equivalence tests in `traj-cluster`'s
//! `kernel_equivalence.rs` compare the CSR index against [`HashMapGrid`]
//! hit-for-hit, order included, and the production DBSCAN against the
//! unpruned, allocating [`dbscan`] loop below.
//!
//! Do not "improve" this module: any edit here silently changes what the
//! tests claim to pin.

use std::collections::HashMap;
use traj_cluster::dbscan::{Label, RegionQuery};
use trajectory::geometry::Point;

/// The pre-CSR grid: `HashMap` buckets keyed by cell coordinates, one
/// heap-allocated `Vec` per cell, a freshly allocated hit list per query.
pub struct HashMapGrid {
    points: Vec<Point>,
    epsilon: f64,
    cells: HashMap<(i64, i64), Vec<usize>>,
}

const CELL_LIMIT: f64 = (1i64 << 62) as f64;

fn cell_coord(v: f64, epsilon: f64) -> i64 {
    let cell = (v / epsilon).floor();
    if cell.is_nan() {
        return 0;
    }
    cell.clamp(-CELL_LIMIT, CELL_LIMIT) as i64
}

fn cell_of(p: &Point, epsilon: f64) -> (i64, i64) {
    (cell_coord(p.x, epsilon), cell_coord(p.y, epsilon))
}

impl HashMapGrid {
    /// Builds the grid over `points` for queries of radius `epsilon`.
    pub fn build(points: Vec<Point>, epsilon: f64) -> Self {
        let epsilon = if epsilon > 0.0 { epsilon } else { f64::EPSILON };
        let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            cells.entry(cell_of(p, epsilon)).or_default().push(i);
        }
        HashMapGrid {
            points,
            epsilon,
            cells,
        }
    }

    /// Indices of all points within `epsilon` of `target`, in the original
    /// implementation's order: 3×3 `dx`/`dy` cell sweep, each bucket in
    /// insertion (= ascending point index) order.
    pub fn range_query(&self, target: &Point) -> Vec<usize> {
        let (cx, cy) = cell_of(target, self.epsilon);
        let eps_sq = self.epsilon * self.epsilon;
        let mut out = Vec::new();
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(bucket) = self.cells.get(&(cx + dx, cy + dy)) {
                    for &i in bucket {
                        if self.points[i].distance_squared(target) <= eps_sq {
                            out.push(i);
                        }
                    }
                }
            }
        }
        out
    }
}

impl RegionQuery for HashMapGrid {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn neighbors(&self, idx: usize) -> Vec<usize> {
        self.range_query(&self.points[idx])
    }
}

/// The pre-scratch DBSCAN loop: fresh label vector, fresh seed queue, one
/// allocated neighbour list per visited item (verbatim from before the
/// `neighbors_into` rewrite).
pub fn dbscan<Q: RegionQuery>(query: &Q, min_pts: usize) -> Vec<Label> {
    let n = query.len();
    let mut labels = vec![Label::Unvisited; n];
    let mut next_cluster = 0usize;
    let mut seeds: Vec<usize> = Vec::new();

    for start in 0..n {
        if labels[start] != Label::Unvisited {
            continue;
        }
        let neighbors = query.neighbors(start);
        if neighbors.len() < min_pts {
            labels[start] = Label::Noise;
            continue;
        }
        let cluster_id = next_cluster;
        next_cluster += 1;
        labels[start] = Label::Cluster(cluster_id);
        seeds.clear();
        seeds.extend(neighbors);
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
                        let item_neighbors = query.neighbors(item);
                        if item_neighbors.len() >= min_pts {
                            seeds.extend(item_neighbors);
                        }
                    }
                }
            }
        }
    }
    labels
}
