//! The **frozen scalar array-of-structs CSR grid**, kept verbatim as the
//! baseline the batched structure-of-arrays kernel is tested against — not production code (the same role [`crate::reference`] plays
//! for the original `HashMap` grid).
//!
//! This is the PR-5 CSR [`GridIndex`](traj_cluster::GridIndex) exactly as it stood
//! before the SoA rewrite: buckets store a cell-local `Vec<Point>` copy
//! (interleaved x/y — array of structs), the `(cell key, point idx)` pairs
//! are grouped with a comparison `sort_unstable`, and the per-bucket
//! distance scan walks one scalar `distance_squared` at a time with a
//! branch per point. Everything else (packed keys, sorted key table, probe
//! table, column chaining) is identical to the production grid, so an
//! equivalence test of the two pins the batched path to the historical hits
//! and order.
//!
//! Do not "improve" this module: any edit here silently changes what
//! `kernel_equivalence.rs` claims to pin.

use traj_cluster::dbscan::RegionQuery;
use trajectory::geometry::Point;

/// The pre-SoA CSR grid: identical structure to the production
/// [`GridIndex`](traj_cluster::GridIndex) except for array-of-structs bucket
/// storage and the scalar per-point distance scan.
#[derive(Debug, Clone, Default)]
pub struct AosGridIndex {
    points: Vec<Point>,
    epsilon: f64,
    keyed: Vec<(u128, u32)>,
    cell_keys: Vec<u128>,
    bucket_starts: Vec<u32>,
    bucket_points: Vec<u32>,
    /// The points in bucket order — the interleaved-coordinate cell-local
    /// copy the SoA rewrite split into `xs`/`ys` columns.
    cell_points: Vec<Point>,
    rank_table: Vec<(u32, u32)>,
    point_rank: Vec<u32>,
}

const EMPTY_SLOT: u32 = u32::MAX;

const CELL_LIMIT: f64 = (1i64 << 62) as f64;

impl AosGridIndex {
    /// Builds the index over `points` for range queries of radius `epsilon`.
    pub fn build(points: Vec<Point>, epsilon: f64) -> Self {
        let mut index = AosGridIndex {
            points,
            ..AosGridIndex::default()
        };
        index.epsilon = if epsilon > 0.0 { epsilon } else { f64::EPSILON };
        index.rebuild_cells();
        index
    }

    fn rebuild_cells(&mut self) {
        assert!(
            self.points.len() < u32::MAX as usize,
            "grid index caps below u32::MAX points"
        );
        self.keyed.clear();
        let epsilon = self.epsilon;
        self.keyed.extend(
            self.points
                .iter()
                .enumerate()
                // lint: allow(cast-audit) — point count < u32::MAX, asserted above
                .map(|(i, p)| (pack(cell_of(p, epsilon)), i as u32)),
        );
        // The frozen build path: one comparison sort of the (key, idx)
        // pairs — the cost profile the radix/counting rewrite is measured
        // against.
        self.keyed.sort_unstable();
        self.cell_keys.clear();
        self.bucket_starts.clear();
        self.bucket_points.clear();
        self.cell_points.clear();
        self.point_rank.clear();
        self.point_rank.resize(self.points.len(), 0);
        for (i, &(key, point)) in self.keyed.iter().enumerate() {
            if self.cell_keys.last() != Some(&key) {
                self.cell_keys.push(key);
                // lint: allow(cast-audit) — pair index ≤ point count < u32::MAX, asserted above
                self.bucket_starts.push(i as u32);
            }
            // lint: allow(cast-audit) — cell count ≤ point count < u32::MAX, asserted above
            self.point_rank[point as usize] = (self.cell_keys.len() - 1) as u32;
            self.bucket_points.push(point);
            self.cell_points.push(self.points[point as usize]);
        }
        // lint: allow(cast-audit) — keyed holds one pair per point, < u32::MAX, asserted above
        self.bucket_starts.push(self.keyed.len() as u32);

        let slots = (self.cell_keys.len() * 2).next_power_of_two().max(4);
        self.rank_table.clear();
        self.rank_table.resize(slots, (0, EMPTY_SLOT));
        let mask = slots - 1;
        for (rank, &key) in self.cell_keys.iter().enumerate() {
            let hash = hash_key(key);
            let mut slot = hash as usize & mask;
            while self.rank_table[slot].1 != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            // lint: allow(cast-audit) — rank ≤ cell count < u32::MAX, asserted above
            self.rank_table[slot] = (tag(hash), rank as u32);
        }
    }

    fn bucket_rank(&self, key: u128) -> Option<usize> {
        let mask = self.rank_table.len().checked_sub(1)?;
        let hash = hash_key(key);
        let tag = tag(hash);
        let mut slot = hash as usize & mask;
        loop {
            let (stored_tag, rank) = self.rank_table[slot];
            if rank == EMPTY_SLOT {
                return None;
            }
            if stored_tag == tag && self.cell_keys[rank as usize] == key {
                return Some(rank as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Like the production `range_query_into`: same hits, same order, but
    /// through the scalar array-of-structs bucket scan.
    pub fn range_query_into(&self, target: &Point, out: &mut Vec<usize>) {
        out.clear();
        let (cx, cy) = cell_of(target, self.epsilon);
        let eps_sq = self.epsilon * self.epsilon;
        self.scan_column(cx - 1, cy, None, target, eps_sq, out);
        self.scan_column(cx, cy, None, target, eps_sq, out);
        self.scan_column(cx + 1, cy, None, target, eps_sq, out);
    }

    fn scan_column(
        &self,
        col: i64,
        cy: i64,
        center_rank: Option<usize>,
        target: &Point,
        eps_sq: f64,
        out: &mut Vec<usize>,
    ) {
        let k_lo = pack((col, cy - 1));
        let k_mid = pack((col, cy));
        let k_hi = pack((col, cy + 1));
        let lo_adjacent = k_lo.checked_add(1) == Some(k_mid);
        let mid_adjacent = k_mid.checked_add(1) == Some(k_hi);

        let r_lo = match center_rank {
            Some(r_mid) if lo_adjacent => {
                if r_mid > 0 && self.cell_keys[r_mid - 1] == k_lo {
                    Some(r_mid - 1)
                } else {
                    None
                }
            }
            _ => self.bucket_rank(k_lo),
        };
        self.scan_bucket(r_lo, target, eps_sq, out);

        let r_mid = match (center_rank, r_lo) {
            (Some(r), _) => Some(r),
            (None, Some(r)) if lo_adjacent => {
                if self.cell_keys.get(r + 1) == Some(&k_mid) {
                    Some(r + 1)
                } else {
                    None
                }
            }
            _ => self.bucket_rank(k_mid),
        };
        self.scan_bucket(r_mid, target, eps_sq, out);

        let r_hi = match (r_mid, r_lo) {
            (Some(r), _) if mid_adjacent => {
                if self.cell_keys.get(r + 1) == Some(&k_hi) {
                    Some(r + 1)
                } else {
                    None
                }
            }
            (None, Some(r)) if lo_adjacent && mid_adjacent => {
                if self.cell_keys.get(r + 1) == Some(&k_hi) {
                    Some(r + 1)
                } else {
                    None
                }
            }
            _ => self.bucket_rank(k_hi),
        };
        self.scan_bucket(r_hi, target, eps_sq, out);
    }

    /// The frozen scalar-AoS distance scan: one `distance_squared` and one
    /// data-dependent branch per bucket point.
    fn scan_bucket(&self, rank: Option<usize>, target: &Point, eps_sq: f64, out: &mut Vec<usize>) {
        let Some(rank) = rank else { return };
        let start = self.bucket_starts[rank] as usize;
        let end = self.bucket_starts[rank + 1] as usize;
        let pts = &self.cell_points[start..end];
        let idxs = &self.bucket_points[start..end];
        for (p, &i) in pts.iter().zip(idxs) {
            if p.distance_squared(target) <= eps_sq {
                out.push(i as usize);
            }
        }
    }
}

fn hash_key(key: u128) -> u64 {
    let lo = key as u64;
    let hi = (key >> 64) as u64;
    (hi ^ lo.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn tag(hash: u64) -> u32 {
    // lint: allow(cast-audit) — intentional truncation to the high 32 bits
    (hash >> 32) as u32
}

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

fn pack((cx, cy): (i64, i64)) -> u128 {
    ((cx as u64 as u128) << 64) | (cy as u64 as u128)
}

fn unpack(key: u128) -> (i64, i64) {
    (((key >> 64) as u64) as i64, (key as u64) as i64)
}

impl RegionQuery for AosGridIndex {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn neighbors(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.neighbors_into(idx, &mut out);
        out
    }

    fn neighbors_into(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        let target = &self.points[idx];
        let eps_sq = self.epsilon * self.epsilon;
        let rank = self.point_rank[idx] as usize;
        let (cx, cy) = unpack(self.cell_keys[rank]);
        self.scan_column(cx - 1, cy, None, target, eps_sq, out);
        self.scan_column(cx, cy, Some(rank), target, eps_sq, out);
        self.scan_column(cx + 1, cy, None, target, eps_sq, out);
    }
}
