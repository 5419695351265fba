//! A uniform-grid spatial index for e-range search over point snapshots, and
//! snapshot clustering built on top of it.
//!
//! Snapshot clustering (DBSCAN over the objects' positions at one time point)
//! is the inner loop of both the CMC algorithm and the CuTS refinement step,
//! so its e-neighbourhood search must not be quadratic — and, because every
//! engine calls it once per tick, it must not allocate per call either.
//!
//! ## CSR layout, structure-of-arrays
//!
//! [`GridIndex`] stores its buckets in *compressed sparse row* form rather
//! than a `HashMap<cell, Vec<usize>>`: one flat array of `(cell key, point
//! index)` pairs grouped in place by a byte-adaptive radix sort (`keyed`),
//! a sorted table of the distinct keys (`cell_keys`) with their bucket
//! extents (`bucket_starts`), flat per-cell columns — the point-index
//! column `bucket_points` plus **structure-of-arrays coordinate columns**
//! `cell_xs` / `cell_ys` (split from the former interleaved `Vec<Point>`
//! copy so the distance scan streams pure `f64` lanes) — and a compact
//! open-addressed `(hash tag, rank)` probe table. A range query resolves
//! the 3×3 neighbour cells with typically **one hash probe per column**:
//! vertically adjacent cells have numerically consecutive packed keys, so
//! once one cell of a column is anchored, its neighbours chain via a single
//! sequential comparison in the sorted key table — and an indexed point's
//! own cell needs no probe (and no coordinate division) at all, its bucket
//! rank being recorded at build time. No per-cell `Vec`, no SipHash, no
//! pointer chasing — the flat-bucket structure the grid-join literature
//! gets its speed from.
//!
//! The per-cell distance tests run through the batched
//! [`kernel`] module: a column's vertically adjacent buckets
//! occupy *consecutive ranks* whenever their keys are consecutive, so the
//! scan fuses them into one contiguous extent and tests it in
//! [`kernel::LANE_WIDTH`]-wide branch-free lanes
//! (autovectorizable), emitting hits from a bitmask in ascending-index
//! order (the mask-then-emit argument in the kernel docs).
//!
//! Grouping by `(key, index)` keeps each bucket's points in ascending point
//! index, which is exactly the insertion order the previous `HashMap`
//! implementation produced; together with the fixed 3×3 `dx`/`dy` cell visit
//! order this makes every neighbourhood list — and therefore every DBSCAN
//! label sequence — bit-identical to the historical behaviour, which the
//! engine/stream equivalence suites rely on (the frozen originals — the
//! `HashMap` grid and the scalar array-of-structs CSR grid — live in the
//! test-support crate `traj-cluster-baselines`, and
//! `tests/kernel_equivalence.rs` pins this index to both, order included).
//!
//! ## Density bound before the region query
//!
//! Every hit of a query lies in the 3×3 cell block around the point's own
//! cell, so the block's point count bounds the neighbourhood size from
//! above. The build records that count per cell (the same sweep that links
//! the columns, plus a few probes where a block crosses the key wrap), and
//! [`RegionQuery::neighbor_bound`] serves it: DBSCAN skips the region query
//! of any point whose block holds fewer than `m` points — on a sparse world
//! that is almost every point — with labels unchanged.
//!
//! ## Scratch reuse
//!
//! [`SnapshotClusterer`] owns the grid arrays, the id buffer, the DBSCAN
//! scratch and a pool of output [`Cluster`]s, so that
//! [`SnapshotClusterer::cluster_into`] performs **zero heap allocations** in
//! steady state: after a warm-up tick has grown every buffer to its
//! fixpoint, clustering further snapshots of similar size touches no
//! allocator at all (locked in by the `zero_alloc` integration test). Every
//! engine — per-tick, swept, parallel, the CuTS refinement fold and the
//! streaming pipeline — folds its ticks through a reused clusterer.

use crate::cluster::Cluster;
use crate::dbscan::{dbscan_into, DbscanScratch, Label, RegionQuery};
use crate::kernel;
use convoy_obs::Obs;
use std::cell::Cell;
use trajectory::geometry::Point;
use trajectory::{ObjectId, Snapshot};

/// A uniform-grid index over a fixed set of points, stored in a flat CSR
/// layout (see the module docs).
///
/// The grid cell side equals the query radius `epsilon`, so the
/// e-neighbourhood of a point is always contained in the 3×3 block of cells
/// around the point's own cell.
#[derive(Debug, Clone, Default)]
pub struct GridIndex {
    points: Vec<Point>,
    epsilon: f64,
    /// Build scratch: `(cell key, point index)` pairs sorted by key then
    /// index — a byte-adaptive LSD radix sort (see
    /// [`GridIndex::sort_keyed`]) groups points per cell while keeping
    /// every bucket in ascending point index.
    keyed: Vec<(u128, u32)>,
    /// Radix-sort double buffer: counting passes ping-pong between `keyed`
    /// and this scratch, so the sort allocates nothing once both have grown
    /// to the working-set size.
    keyed_scratch: Vec<(u128, u32)>,
    /// The distinct cell keys, ascending, indexed by bucket rank.
    cell_keys: Vec<u128>,
    /// `bucket_starts[r]..bucket_starts[r + 1]` is the extent of bucket `r`
    /// inside `bucket_points` / `cell_xs` / `cell_ys`.
    bucket_starts: Vec<u32>,
    /// Original point indices, grouped per cell (the CSR column array).
    bucket_points: Vec<u32>,
    /// x coordinates in bucket order — one of the two structure-of-arrays
    /// columns (cell-local copies, so the distance scan streams memory
    /// sequentially instead of chasing `points[bucket_points[pos]]` at
    /// random, and the batched kernel sees pure `f64` lanes).
    cell_xs: Vec<f64>,
    /// y coordinates in bucket order (see [`GridIndex::cell_xs`]).
    cell_ys: Vec<f64>,
    /// Open-addressed lookup table of `(hash tag, bucket rank)` pairs,
    /// resolved by linear probing: a probe compares the 32-bit tag (one
    /// 8-byte load), and only a tag match pays the exact key verification
    /// against `cell_keys`. Sized to the next power of two ≥ 2× the cell
    /// count, so probes stay short and the table stays compact (8 bytes per
    /// slot). Replaces both the `HashMap` of the original implementation
    /// (whose SipHash dominated lookups) and a sorted-key binary search
    /// (whose ~log₂ cells u128 comparisons per cell lookup measurably lose
    /// to one multiply-shift hash).
    rank_table: Vec<(u32, u32)>,
    /// Bucket rank of every point's own cell (filled free during the
    /// grouping pass): the centre column of a [`RegionQuery::neighbors_into`]
    /// query needs no hash probe at all.
    point_rank: Vec<u32>,
    /// Per bucket rank, the rank of the same-`cy` cell one column to the
    /// left (`cx - 1`) and one to the right (`cx + 1`), or [`EMPTY_SLOT`]
    /// when that cell is unoccupied (or lies across the u64 sign-boundary
    /// key wrap). Filled by one O(cells) forward sweep over the sorted keys
    /// at build time ([`GridIndex::link_columns`]) — these links resolve the
    /// side columns of a query's 3×3 block with direct rank lookups: in a
    /// dense world, [`RegionQuery::neighbors_into`] touches no hash probe
    /// at all, and [`GridIndex::range_query_into`] only one (the centre
    /// cell). Every probe is a guaranteed-random memory access, so on
    /// large worlds this is the difference between ~3 cache misses per
    /// query and ~0-1.
    col_links: Vec<(u32, u32)>,
    /// Full [`kernel::LANE_WIDTH`]-wide batches the distance kernel has
    /// executed since the last [`GridIndex::take_kernel_counts`]. A `Cell`
    /// because queries take `&self`; plain adds, no atomics — queries are
    /// single-threaded per grid (every engine gives each worker its own).
    kernel_batches: Cell<u64>,
    /// Total candidate points the distance kernel has scanned (full batches
    /// plus scalar tail) since the last [`GridIndex::take_kernel_counts`].
    kernel_lanes: Cell<u64>,
    /// Per bucket rank, the number of points in the 3×3 cell block around
    /// the cell — an upper bound on the e-neighbourhood size of every point
    /// in it, served by [`RegionQuery::neighbor_bound`]. Filled with the
    /// column links (see [`GridIndex::link_columns`]); sums stay below the
    /// point count, which [`GridIndex::rebuild_cells`] caps below `u32::MAX`.
    block_counts: Vec<u32>,
}

/// Sentinel marking an empty [`GridIndex::rank_table`] slot. Bucket ranks
/// are bounded by the point count, which [`GridIndex::rebuild_cells`] caps
/// below `u32::MAX`.
const EMPTY_SLOT: u32 = u32::MAX;

impl GridIndex {
    /// Builds the index over `points` for range queries of radius `epsilon`.
    /// A non-positive `epsilon` is clamped to a tiny positive value so that
    /// degenerate queries still terminate.
    pub fn build(points: Vec<Point>, epsilon: f64) -> Self {
        let mut index = GridIndex {
            points,
            ..GridIndex::default()
        };
        index.epsilon = if epsilon > 0.0 { epsilon } else { f64::EPSILON };
        index.rebuild_cells();
        index
    }

    /// Re-indexes in place: clears the point set, hands the caller the
    /// (capacity-preserving) point buffer to refill, then rebuilds the cell
    /// arrays. No allocation happens once the buffers have grown to cover
    /// the largest input seen — the reuse entry point the snapshot clusterer
    /// drives every tick.
    pub fn rebuild_with(&mut self, epsilon: f64, fill: impl FnOnce(&mut Vec<Point>)) {
        self.points.clear();
        fill(&mut self.points);
        self.epsilon = if epsilon > 0.0 { epsilon } else { f64::EPSILON };
        self.rebuild_cells();
    }

    /// Re-indexes in place over the points of an iterator (see
    /// [`GridIndex::rebuild_with`]).
    pub fn rebuild(&mut self, epsilon: f64, points: impl IntoIterator<Item = Point>) {
        self.rebuild_with(epsilon, |buf| buf.extend(points));
    }

    /// Recomputes the CSR arrays from `self.points` and `self.epsilon`.
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
                .map(|(i, p)| (Self::pack(Self::cell_of(p, epsilon)), i as u32)),
        );
        // Grouping the pairs orders points per cell while keeping each
        // bucket in ascending point index — the HashMap version's insertion
        // order. The stable radix passes preserve push order within equal
        // keys, so the result equals a `sort_unstable` by `(key, index)`.
        self.sort_keyed();
        self.cell_keys.clear();
        self.bucket_starts.clear();
        self.bucket_points.clear();
        self.cell_xs.clear();
        self.cell_ys.clear();
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
            let p = self.points[point as usize];
            self.cell_xs.push(p.x);
            self.cell_ys.push(p.y);
        }
        // lint: allow(cast-audit) — keyed holds one pair per point, < u32::MAX, asserted above
        self.bucket_starts.push(self.keyed.len() as u32);

        // Open-addressed rank table at ≤ 50% load.
        let slots = (self.cell_keys.len() * 2).next_power_of_two().max(4);
        self.rank_table.clear();
        self.rank_table.resize(slots, (0, EMPTY_SLOT));
        let mask = slots - 1;
        for (rank, &key) in self.cell_keys.iter().enumerate() {
            let hash = Self::hash_key(key);
            let mut slot = hash as usize & mask;
            while self.rank_table[slot].1 != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            // lint: allow(cast-audit) — rank ≤ cell count < u32::MAX, asserted above
            self.rank_table[slot] = (Self::tag(hash), rank as u32);
        }

        // Last: the few cells whose 3×3 block crosses the key wrap are
        // counted through the probe table.
        self.link_columns();
    }

    /// Fills [`GridIndex::col_links`] and [`GridIndex::block_counts`] in one
    /// sequential, hash-free sweep over the sorted key table.
    ///
    /// A cell's block count is its own points plus those of every occupied
    /// cell in its 3×3 block, and block membership is symmetric — so the
    /// sweep finds each adjacent *pair* once and credits both sides. Keys
    /// sort by `(cx, cy)` as u64 halves: a cell's vertical neighbour below
    /// is the previous rank when the keys differ by one, and the cells of
    /// its left window (`cx − 1`, rows `cy − 1..=cy + 1`) form a contiguous
    /// key range whose lower end never decreases in key order — one
    /// forward-only cursor finds every window, O(cells) in total. The same
    /// window's middle cell, if present, is the cross-column link of both
    /// cells.
    ///
    /// The arithmetic fails only for pairs across the u64 sign-boundary key
    /// wrap (`cx` or `cy` stepping between `−1` and `0`: u64 `u64::MAX`
    /// beside `0`, at opposite ends of the table), and both cells of such a
    /// pair have `cx` or `cy` in `{−1, 0}`. Those few cells are recounted
    /// exactly with nine probes of the rank table, so no neighbour cell of a
    /// query is ever left out of its bound. No link crosses the `cx` wrap,
    /// mirroring the in-column adjacency guards of
    /// [`GridIndex::query_cells`].
    fn link_columns(&mut self) {
        let n_cells = self.cell_keys.len();
        self.col_links.clear();
        self.col_links.resize(n_cells, (EMPTY_SLOT, EMPTY_SLOT));
        self.block_counts.clear();
        self.block_counts.resize(n_cells, 0);
        let keys = &self.cell_keys;
        let points = |rank: usize| self.bucket_starts[rank + 1] - self.bucket_starts[rank];
        let mut cursor = 0usize;
        for r in 0..n_cells {
            let key = keys[r];
            let own = points(r);
            self.block_counts[r] += own;
            if r > 0 && keys[r - 1] + 1 == key {
                self.block_counts[r] += points(r - 1);
                self.block_counts[r - 1] += own;
            }
            let (cx, cy) = ((key >> 64) as u64, key as u64);
            let Some(left) = cx.checked_sub(1) else {
                continue; // the left column lies across the key wrap
            };
            let column = u128::from(left) << 64;
            let mid = column | u128::from(cy);
            let first = column | u128::from(cy.saturating_sub(1));
            let last = column | u128::from(cy.saturating_add(1));
            while keys[cursor] < first {
                cursor += 1;
            }
            // The cursor never passes `r` (its key exceeds `last`).
            let mut i = cursor;
            while keys[i] <= last {
                self.block_counts[r] += points(i);
                self.block_counts[i] += own;
                if keys[i] == mid {
                    // lint: allow(cast-audit) — ranks ≤ cell count < u32::MAX, asserted in rebuild_cells
                    self.col_links[r].0 = i as u32;
                    // lint: allow(cast-audit) — ranks ≤ cell count < u32::MAX, asserted in rebuild_cells
                    self.col_links[i].1 = r as u32;
                }
                i += 1;
            }
        }
        for r in 0..n_cells {
            let (cx, cy) = Self::unpack(self.cell_keys[r]);
            if matches!(cx, -1 | 0) || matches!(cy, -1 | 0) {
                let mut count = 0;
                for col in cx - 1..=cx + 1 {
                    for row in cy - 1..=cy + 1 {
                        if let Some(rank) = self.bucket_rank(Self::pack((col, row))) {
                            count += points(rank);
                        }
                    }
                }
                self.block_counts[r] = count;
            }
        }
    }

    /// Comparison sort wins below this size: the radix passes' fixed
    /// per-pass scans (count + scatter over the double buffer) only amortize
    /// once a few cache lines of pairs are in play.
    const RADIX_CUTOFF: usize = 64;

    /// Groups `keyed` by ascending `(key, index)` with a **byte-adaptive LSD
    /// radix sort** instead of a comparison sort — the `grid_build`
    /// hot-spot fix: `sort_unstable` on 100k `(u128, u32)` pairs pays
    /// `n log n` 16-byte comparisons, while cell keys in any realistic
    /// world differ only in a few low bytes of each packed coordinate.
    ///
    /// One XOR pass finds which of the 16 key bytes vary at all; only those
    /// byte positions get a counting pass (typically 2: the low byte of
    /// `cy` and the low byte of `cx`). Passes are stable and scatter into
    /// the `keyed_scratch` double buffer, ping-ponging back so the result
    /// lands in `keyed`; within equal keys the original push order —
    /// ascending point index — survives, which is exactly the
    /// `sort_unstable` order on `(key, index)` pairs with distinct indices.
    /// Both buffers reach a capacity fixpoint, so a warmed rebuild
    /// allocates nothing.
    fn sort_keyed(&mut self) {
        let n = self.keyed.len();
        if n < Self::RADIX_CUTOFF {
            // Distinct indices make the pair order total, so instability
            // cannot reorder anything.
            self.keyed.sort_unstable();
            return;
        }
        let first = self.keyed[0].0;
        let mut diff = 0u128;
        for &(k, _) in &self.keyed {
            diff |= k ^ first;
        }
        if diff == 0 {
            return; // one single cell: push order is already the answer
        }
        self.keyed_scratch.clear();
        self.keyed_scratch.resize(n, (0, 0));
        // Move both buffers out so the ping-pong borrows are disjoint
        // (`mem::take` leaves empty non-allocating vecs behind).
        let mut src = std::mem::take(&mut self.keyed);
        let mut dst = std::mem::take(&mut self.keyed_scratch);
        for byte in 0..16 {
            let shift = byte * 8;
            // lint: allow(cast-audit) — intentional truncation to one key byte
            if (diff >> shift) as u8 == 0 {
                continue; // every key agrees on this byte: skip the pass
            }
            let mut counts = [0usize; 256];
            for &(k, _) in src.iter() {
                // lint: allow(cast-audit) — intentional truncation to one key byte
                counts[(k >> shift) as u8 as usize] += 1;
            }
            let mut total = 0usize;
            for c in counts.iter_mut() {
                let here = *c;
                *c = total;
                total += here;
            }
            for &pair in src.iter() {
                // lint: allow(cast-audit) — intentional truncation to one key byte
                let digit = (pair.0 >> shift) as u8 as usize;
                dst[counts[digit]] = pair;
                counts[digit] += 1;
            }
            std::mem::swap(&mut src, &mut dst);
        }
        // After the final swap the sorted data sits in `src`.
        self.keyed = src;
        self.keyed_scratch = dst;
    }

    /// Drains the batched-kernel work counters accumulated since the last
    /// call: `(full LANE_WIDTH batches executed, total candidate points
    /// scanned)`. The [`SnapshotClusterer`] publishes them per tick as
    /// `cluster.kernel_batches` / `cluster.kernel_lanes`, making the
    /// batching ratio (`batches × LANE_WIDTH / lanes`) observable per run.
    pub fn take_kernel_counts(&self) -> (u64, u64) {
        (self.kernel_batches.take(), self.kernel_lanes.take())
    }

    /// Multiply-shift hash of a packed cell key. Collisions are resolved by
    /// probing with tag comparison plus exact key verification, so the hash
    /// only affects speed, never correctness.
    #[inline]
    fn hash_key(key: u128) -> u64 {
        let lo = key as u64;
        let hi = (key >> 64) as u64;
        (hi ^ lo.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The tag bits of a hash stored in the probe table (its high half —
    /// disjoint from the low bits that pick the slot, so colliding slots
    /// rarely share a tag).
    #[inline]
    fn tag(hash: u64) -> u32 {
        // lint: allow(cast-audit) — intentional truncation to the high 32 bits
        (hash >> 32) as u32
    }

    /// Looks up the bucket rank of `key` in the open-addressed table.
    // lint: hot-path — open-addressed probe on every column resolution
    #[inline]
    fn bucket_rank(&self, key: u128) -> Option<usize> {
        let mask = self.rank_table.len().checked_sub(1)?;
        let hash = Self::hash_key(key);
        let tag = Self::tag(hash);
        let mut slot = hash as usize & mask;
        loop {
            let (stored_tag, rank) = self.rank_table[slot];
            if rank == EMPTY_SLOT {
                return None;
            }
            // A tag match is near-certain to be the key; the exact
            // comparison keeps false positives impossible rather than rare.
            if stored_tag == tag && self.cell_keys[rank as usize] == key {
                return Some(rank as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Largest cell coordinate magnitude the grid uses. `floor() as i64`
    /// saturates at `i64::MAX` for huge or infinite inputs, and the ±1
    /// neighbour offsets of [`GridIndex::range_query`] would then overflow;
    /// clamping to ±2⁶² (exactly representable as `f64`) keeps every
    /// neighbour-cell computation in range. Points this far out are beyond
    /// any meaningful `epsilon`, so the distance filter still rejects every
    /// false bucket-mate.
    const CELL_LIMIT: f64 = (1i64 << 62) as f64;

    #[inline]
    fn cell_coord(v: f64, epsilon: f64) -> i64 {
        let cell = (v / epsilon).floor();
        if cell.is_nan() {
            // NaN coordinates (rejected upstream at `Trajectory`
            // construction, but raw `Point` sets can still carry them) are
            // parked in cell 0; NaN distances compare false against every
            // epsilon, so such points are never reported as neighbours.
            return 0;
        }
        cell.clamp(-Self::CELL_LIMIT, Self::CELL_LIMIT) as i64
    }

    #[inline]
    fn cell_of(p: &Point, epsilon: f64) -> (i64, i64) {
        (
            Self::cell_coord(p.x, epsilon),
            Self::cell_coord(p.y, epsilon),
        )
    }

    /// Packs a cell coordinate pair into one order-irrelevant `u128` key
    /// (bucket lookup only ever tests equality of exact keys, so the packed
    /// ordering does not need to match the lexicographic `(i64, i64)` one).
    #[inline]
    fn pack((cx, cy): (i64, i64)) -> u128 {
        ((cx as u64 as u128) << 64) | (cy as u64 as u128)
    }

    /// The number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The indexed points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Indices of all points within `epsilon` of `target` (including the
    /// target itself when it is one of the indexed points).
    pub fn range_query(&self, target: &Point) -> Vec<usize> {
        let mut out = Vec::new();
        self.range_query_into(target, &mut out);
        out
    }

    /// Like [`GridIndex::range_query`], but writes the indices into `out`
    /// (cleared first) instead of allocating — same hits, same order.
    ///
    /// One hash probe resolves the target's own cell; when it exists (a
    /// query at an indexed point always lands in one), the side columns
    /// follow from its cross-column links and no further probes run.
    pub fn range_query_into(&self, target: &Point, out: &mut Vec<usize>) {
        out.clear();
        let (cx, cy) = Self::cell_of(target, self.epsilon);
        let center = self.bucket_rank(Self::pack((cx, cy)));
        self.query_cells(cx, cy, center, target, out);
    }

    /// The single batched query entry point shared by
    /// [`GridIndex::range_query_into`] and [`RegionQuery::neighbors_into`]:
    /// scans the 3×3 cell block around `(cx, cy)` column by column, pushing
    /// every indexed point within `epsilon` of `target`. `eps²` is computed
    /// exactly once, here.
    ///
    /// ### Column resolution
    ///
    /// Within a column, consecutive `cy` cells have numerically consecutive
    /// packed keys (except across the rare u64 sign-boundary wrap, which the
    /// `checked_add` guards detect), and the key table is sorted — so once
    /// one cell of the column is resolved, its neighbours are found with a
    /// single sequential key comparison at the adjacent rank. The side
    /// columns' mid cells come from the centre cell's precomputed
    /// [`GridIndex::col_links`]. Typical dense-grid cost: **zero** hash
    /// probes when the caller supplies `center_rank` (an indexed point's
    /// own cell, recorded at build time), with per-column probe fallbacks
    /// for absent cells and unlinked columns.
    ///
    /// ### Run merging and the batched kernel
    ///
    /// Occupied column cells with consecutive ranks occupy contiguous CSR
    /// extents, so their buckets fuse into one slice handed to
    /// [`kernel::scan_soa`] as a single batch — at typical query density a
    /// full 3-cell column becomes one multi-point extent instead of three
    /// tiny scalar loops. Fusing only ever joins rank `r` with rank `r + 1`
    /// in the lo → mid → hi scan order, so the merged kernel pass visits
    /// buckets in precisely the order the scalar path scanned them one at a
    /// time: hits and order stay bit-identical to the frozen references.
    // lint: hot-path — the one batched query path; eps² computed once, extents go to the kernel
    fn query_cells(
        &self,
        cx: i64,
        cy: i64,
        center_rank: Option<usize>,
        target: &Point,
        out: &mut Vec<usize>,
    ) {
        let eps_sq = self.epsilon * self.epsilon;
        // The centre cell's cross-column links hand the side columns their
        // mid-cell ranks for free; a missing link (absent cell, or the rare
        // key wrap) falls back to the hash-probe resolution below.
        let (left_hint, right_hint) = match center_rank {
            Some(r) => {
                let (l, rt) = self.col_links[r];
                (
                    (l != EMPTY_SLOT).then_some(l as usize),
                    (rt != EMPTY_SLOT).then_some(rt as usize),
                )
            }
            None => (None, None),
        };
        for (col, col_rank) in [(cx - 1, left_hint), (cx, center_rank), (cx + 1, right_hint)] {
            let k_lo = Self::pack((col, cy - 1));
            let k_mid = Self::pack((col, cy));
            let k_hi = Self::pack((col, cy + 1));
            let lo_adjacent = k_lo.checked_add(1) == Some(k_mid);
            let mid_adjacent = k_mid.checked_add(1) == Some(k_hi);

            let r_lo = match col_rank {
                Some(r_mid) if lo_adjacent => {
                    if r_mid > 0 && self.cell_keys[r_mid - 1] == k_lo {
                        Some(r_mid - 1)
                    } else {
                        None
                    }
                }
                _ => self.bucket_rank(k_lo),
            };
            let r_mid = match (col_rank, r_lo) {
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
            let r_hi = match (r_mid, r_lo) {
                (Some(r), _) if mid_adjacent => {
                    if self.cell_keys.get(r + 1) == Some(&k_hi) {
                        Some(r + 1)
                    } else {
                        None
                    }
                }
                // The middle cell was just probed absent, so if `k_hi`
                // exists it immediately follows the low cell's rank.
                (None, Some(r)) if lo_adjacent && mid_adjacent => {
                    if self.cell_keys.get(r + 1) == Some(&k_hi) {
                        Some(r + 1)
                    } else {
                        None
                    }
                }
                _ => self.bucket_rank(k_hi),
            };

            // Fuse consecutive-rank buckets into one contiguous SoA extent,
            // preserving the lo → mid → hi scan order.
            let mut run: Option<(usize, usize)> = None;
            for rank in [r_lo, r_mid, r_hi].into_iter().flatten() {
                run = match run {
                    Some((first, last)) if rank == last + 1 => Some((first, rank)),
                    Some((first, last)) => {
                        self.scan_extent(first, last, target, eps_sq, out);
                        Some((rank, rank))
                    }
                    None => Some((rank, rank)),
                };
            }
            if let Some((first, last)) = run {
                self.scan_extent(first, last, target, eps_sq, out);
            }
        }
    }

    /// Hands the contiguous SoA extent spanning bucket ranks
    /// `first_rank..=last_rank` to the batched kernel, and accounts the work
    /// in the counters behind `cluster.kernel_batches` /
    /// `cluster.kernel_lanes`.
    #[inline]
    fn scan_extent(
        &self,
        first_rank: usize,
        last_rank: usize,
        target: &Point,
        eps_sq: f64,
        out: &mut Vec<usize>,
    ) {
        let start = self.bucket_starts[first_rank] as usize;
        let end = self.bucket_starts[last_rank + 1] as usize;
        let len = end - start;
        self.kernel_batches
            .set(self.kernel_batches.get() + kernel::full_batches(len) as u64);
        self.kernel_lanes.set(self.kernel_lanes.get() + len as u64);
        kernel::scan_soa(
            &self.cell_xs[start..end],
            &self.cell_ys[start..end],
            &self.bucket_points[start..end],
            target.x,
            target.y,
            eps_sq,
            out,
        );
    }

    /// Inverse of [`GridIndex::pack`].
    #[inline]
    fn unpack(key: u128) -> (i64, i64) {
        (((key >> 64) as u64) as i64, (key as u64) as i64)
    }
}

impl RegionQuery for GridIndex {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn neighbors(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.neighbors_into(idx, &mut out);
        out
    }

    /// The DBSCAN hot path: identical hits and order to
    /// [`GridIndex::range_query_into`] at the point's own position, but the
    /// point's cell is recovered from its recorded bucket rank — no
    /// coordinate divisions, and the centre column needs no hash probe.
    /// Both entry points funnel into the one audited `query_cells` region.
    fn neighbors_into(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        let target = &self.points[idx];
        let rank = self.point_rank[idx] as usize;
        let (cx, cy) = Self::unpack(self.cell_keys[rank]);
        self.query_cells(cx, cy, Some(rank), target, out);
    }

    /// The point count of the 3×3 cell block around the point's own cell:
    /// every hit of [`RegionQuery::neighbors_into`] lies in that block, so
    /// the count never undercounts. On sparse worlds it is usually below
    /// `min_pts`, letting DBSCAN skip the query outright.
    fn neighbor_bound(&self, idx: usize) -> usize {
        self.block_counts[self.point_rank[idx] as usize] as usize
    }
}

/// Reusable scratch state for snapshot clustering: the grid index, the
/// object-id buffer, the DBSCAN working arrays and a pool of output
/// clusters.
///
/// [`SnapshotClusterer::cluster_into`] produces exactly the clusters of
/// [`snapshot_clusters`] — same members, same order — but reuses every
/// buffer across calls, so a warmed clusterer performs **zero heap
/// allocations** per tick. One clusterer per fold (or per worker thread) is
/// the pattern: the convoy engine's `CmcState` owns one for its ingest path,
/// and the parallel driver gives each worker its own.
#[derive(Debug, Clone, Default)]
pub struct SnapshotClusterer {
    ids: Vec<ObjectId>,
    grid: GridIndex,
    scratch: DbscanScratch,
    /// `(cluster id, point index)` pairs, sorted to group members per
    /// cluster (ascending point index within each cluster).
    pairs: Vec<(u32, u32)>,
    /// Pooled output clusters; the first `n` are overwritten per call, the
    /// rest keep stale members but are never exposed.
    clusters: Vec<Cluster>,
    /// Recorder for the `cluster.*` metrics; the no-op default costs one
    /// branch per call. A live [`convoy_obs::Registry`] stays within the
    /// zero-allocation contract: metric names are `&'static str` keys whose
    /// map nodes exist after the first call.
    obs: Obs,
}

impl SnapshotClusterer {
    /// Creates an empty clusterer (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty clusterer recording into `obs`.
    pub fn with_obs(obs: Obs) -> Self {
        SnapshotClusterer {
            obs,
            ..Self::default()
        }
    }

    /// Attaches a recorder for subsequent [`SnapshotClusterer::cluster_into`]
    /// calls (`cluster.calls` / `cluster.points` / `cluster.clusters_found`
    /// counters, the `cluster.region_queries` /
    /// `prune.region_queries_skipped` pair and the `cluster.call_ns` latency
    /// histogram).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Density-clusters the objects of `snapshot` (DBSCAN with range `e` and
    /// density threshold `m`) into clusters of object ids — the same output
    /// as [`snapshot_clusters`], reusing this clusterer's buffers.
    ///
    /// The returned slice borrows the clusterer's cluster pool: it is valid
    /// until the next `cluster_into` call, which overwrites it (clone the
    /// clusters out if they must outlive the tick).
    // lint: hot-path — the steady-state per-tick clustering entry point (zero_alloc.rs proves a run; this proves the code)
    pub fn cluster_into(&mut self, snapshot: &Snapshot, e: f64, m: usize) -> &[Cluster] {
        let live = self.obs.enabled();
        let started_ns = if live { self.obs.now_ns() } else { 0 };
        if snapshot.len() < m {
            if live {
                self.obs.counter_add("cluster.calls", 1);
                self.obs
                    .counter_add("cluster.points", snapshot.len() as u64);
            }
            return &[];
        }
        self.ids.clear();
        self.ids
            .extend(snapshot.entries.iter().map(|entry| entry.id));
        self.grid.rebuild_with(e, |points| {
            points.extend(snapshot.entries.iter().map(|entry| entry.position));
        });
        dbscan_into(&self.grid, m, &mut self.scratch);

        // Group the labelled points per cluster: sorting `(cluster, index)`
        // pairs groups members in ascending point index, which after the id
        // mapping is exactly what `labels_to_clusters` + `Cluster::new`
        // produce.
        self.pairs.clear();
        let mut num_clusters = 0u32;
        for (i, label) in self.scratch.labels().iter().enumerate() {
            if let Label::Cluster(c) = label {
                // lint: allow(cast-audit) — cluster ids and point indices are < u32::MAX (grid assert)
                let c = *c as u32;
                num_clusters = num_clusters.max(c + 1);
                // lint: allow(cast-audit) — point index < u32::MAX (grid assert)
                self.pairs.push((c, i as u32));
            }
        }
        self.pairs.sort_unstable();
        while self.clusters.len() < num_clusters as usize {
            self.clusters.push(Cluster::default());
        }
        let mut cursor = 0;
        for c in 0..num_clusters {
            let start = cursor;
            while cursor < self.pairs.len() && self.pairs[cursor].0 == c {
                cursor += 1;
            }
            let ids = &self.ids;
            self.clusters[c as usize].assign(
                self.pairs[start..cursor]
                    .iter()
                    .map(|&(_, i)| ids[i as usize]),
            );
        }
        if live {
            let (kernel_batches, kernel_lanes) = self.grid.take_kernel_counts();
            let (region_queries, queries_skipped) = self.scratch.query_counts();
            self.obs.counter_add("cluster.calls", 1);
            self.obs
                .counter_add("cluster.points", self.ids.len() as u64);
            self.obs
                .counter_add("cluster.clusters_found", num_clusters as u64);
            self.obs
                .counter_add("cluster.kernel_batches", kernel_batches);
            self.obs.counter_add("cluster.kernel_lanes", kernel_lanes);
            self.obs
                .counter_add("cluster.region_queries", region_queries);
            self.obs
                .counter_add("prune.region_queries_skipped", queries_skipped);
            self.obs.histogram_record(
                "cluster.call_ns",
                self.obs.now_ns().saturating_sub(started_ns),
            );
        }
        &self.clusters[..num_clusters as usize]
    }
}

/// Density-clusters the objects of a snapshot (DBSCAN with range `e` and
/// density threshold `m`), returning clusters of object ids.
///
/// This is the `DBSCAN(O_t, e, m)` call of Algorithm 1 (CMC) and of the CuTS
/// refinement step. Objects labelled as noise are not reported. One-shot
/// convenience over [`SnapshotClusterer::cluster_into`] — per-tick callers
/// should hold a clusterer and reuse it instead.
pub fn snapshot_clusters(snapshot: &Snapshot, e: f64, m: usize) -> Vec<Cluster> {
    SnapshotClusterer::new()
        .cluster_into(snapshot, e, m)
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::{dbscan, BruteForcePoints};
    use proptest::prelude::*;
    use trajectory::database::SnapshotEntry;
    use trajectory::{SnapshotPolicy, Trajectory, TrajectoryDatabase};

    #[test]
    fn range_query_matches_brute_force() {
        let points: Vec<Point> = (0..50)
            .map(|i| Point::new((i % 10) as f64 * 0.7, (i / 10) as f64 * 0.7))
            .collect();
        let index = GridIndex::build(points.clone(), 1.0);
        for (i, p) in points.iter().enumerate() {
            let mut from_grid = index.range_query(p);
            from_grid.sort_unstable();
            let mut brute: Vec<usize> = points
                .iter()
                .enumerate()
                .filter(|(_, q)| q.distance(p) <= 1.0)
                .map(|(j, _)| j)
                .collect();
            brute.sort_unstable();
            assert_eq!(from_grid, brute, "mismatch for point {i}");
        }
    }

    #[test]
    fn grid_handles_negative_coordinates() {
        let points = vec![
            Point::new(-5.0, -5.0),
            Point::new(-5.5, -5.2),
            Point::new(5.0, 5.0),
        ];
        let index = GridIndex::build(points.clone(), 1.0);
        let n = index.range_query(&Point::new(-5.0, -5.0));
        assert_eq!(n.len(), 2);
        assert!(!index.is_empty());
        assert_eq!(index.len(), 3);
    }

    #[test]
    fn non_finite_and_astronomical_coordinates_do_not_panic_or_cluster() {
        // Regression: `floor() as i64` saturation used to put huge and
        // infinite coordinates into cell `i64::MAX`, and the ±1 neighbour
        // offsets then overflowed in `range_query`.
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(1e300, -1e300),
            Point::new(f64::INFINITY, 0.0),
            Point::new(f64::NEG_INFINITY, f64::INFINITY),
            Point::new(f64::NAN, 3.0),
        ];
        let index = GridIndex::build(points.clone(), 1.0);
        // Near the origin only the two finite nearby points are neighbours.
        let near = index.range_query(&Point::new(0.0, 0.0));
        assert_eq!(near, vec![0, 1]);
        // Querying at the pathological points must not panic, and a NaN
        // point is not even its own neighbour (NaN distance).
        for i in 2..index.len() {
            let hits = index.range_query(&index.points()[i]);
            assert!(hits.len() <= 1, "far point {i} found neighbours: {hits:?}");
        }
        assert!(index.range_query(&Point::new(f64::NAN, 3.0)).is_empty());
    }

    #[test]
    fn distinct_astronomical_points_share_a_cell_but_not_a_neighbourhood() {
        // Both coordinates clamp to the same boundary cell; the exact
        // distance test keeps them apart.
        let points = vec![Point::new(1e300, 0.0), Point::new(2e300, 0.0)];
        let index = GridIndex::build(points.clone(), 5.0);
        assert_eq!(index.range_query(&Point::new(1e300, 0.0)), vec![0]);
    }

    #[test]
    fn zero_epsilon_does_not_panic() {
        let points = vec![Point::new(0.0, 0.0), Point::new(0.0, 0.0)];
        let index = GridIndex::build(points, 0.0);
        // Identical points are still mutual neighbours at distance 0.
        assert_eq!(index.range_query(&Point::new(0.0, 0.0)).len(), 2);
    }

    #[test]
    fn rebuild_reuses_buffers_and_reindexes_exactly() {
        let mut index = GridIndex::default();
        for round in 0..3 {
            let shift = round as f64 * 10.0;
            let points: Vec<Point> = (0..40)
                .map(|i| Point::new(shift + (i % 8) as f64 * 0.6, (i / 8) as f64 * 0.6))
                .collect();
            index.rebuild(1.0, points.iter().copied());
            let fresh = GridIndex::build(points.clone(), 1.0);
            for (i, p) in points.iter().enumerate() {
                assert_eq!(
                    index.range_query(p),
                    fresh.range_query(p),
                    "rebuild diverged from fresh build at round {round}, point {i}"
                );
            }
        }
    }

    fn db_with_positions(positions: &[(f64, f64)]) -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        for (i, (x, y)) in positions.iter().enumerate() {
            db.insert(
                ObjectId(i as u64),
                Trajectory::from_tuples([(*x, *y, 0)]).unwrap(),
            );
        }
        db
    }

    #[test]
    fn snapshot_clustering_basic() {
        let db = db_with_positions(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (50.0, 50.0)]);
        let snap = db.snapshot(0, SnapshotPolicy::Interpolate);
        let clusters = snapshot_clusters(&snap, 1.5, 2);
        assert_eq!(clusters.len(), 1);
        assert_eq!(
            clusters[0].members(),
            &[ObjectId(0), ObjectId(1), ObjectId(2)]
        );
    }

    #[test]
    fn snapshot_with_fewer_than_m_objects_returns_nothing() {
        let db = db_with_positions(&[(0.0, 0.0), (0.1, 0.0)]);
        let snap = db.snapshot(0, SnapshotPolicy::Interpolate);
        assert!(snapshot_clusters(&snap, 1.0, 3).is_empty());
        let mut clusterer = SnapshotClusterer::new();
        assert!(clusterer.cluster_into(&snap, 1.0, 3).is_empty());
    }

    #[test]
    fn lossy_flock_scenario_is_captured_by_density_connection() {
        // Figure 1 of the paper: four objects travelling as an elongated
        // group. A fixed disc of diameter 3 misses o4, but density connection
        // with e=1.2 links the whole chain.
        let db = db_with_positions(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let snap = db.snapshot(0, SnapshotPolicy::Interpolate);
        let clusters = snapshot_clusters(&snap, 1.2, 2);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 4);
    }

    /// Builds an id-ordered snapshot from raw positions (ids = input order).
    fn snapshot_of(positions: &[(f64, f64)]) -> Snapshot {
        Snapshot {
            time: 0,
            entries: positions
                .iter()
                .enumerate()
                .map(|(i, (x, y))| SnapshotEntry {
                    id: ObjectId(i as u64),
                    position: Point::new(*x, *y),
                    interpolated: false,
                })
                .collect(),
        }
    }

    #[test]
    fn reused_clusterer_equals_fresh_clustering_over_100_random_snapshots() {
        // One clusterer folded over 100 snapshots of wildly varying size and
        // density must produce exactly what a fresh `snapshot_clusters` call
        // produces per snapshot — stale pool contents, grown buffers and all.
        let mut clusterer = SnapshotClusterer::new();
        let mut seed = 0x5eed_cafe_u64;
        let mut rand = move || {
            // xorshift64*: deterministic, dependency-free.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..100 {
            let n = (rand() % 120) as usize;
            let positions: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    (
                        (rand() % 2_000) as f64 * 0.03 - 30.0,
                        (rand() % 2_000) as f64 * 0.03 - 30.0,
                    )
                })
                .collect();
            let snap = snapshot_of(&positions);
            let e = 0.3 + (rand() % 40) as f64 * 0.1;
            let m = 1 + (rand() % 4) as usize;
            let reused = clusterer.cluster_into(&snap, e, m).to_vec();
            assert_eq!(
                reused,
                snapshot_clusters(&snap, e, m),
                "reused clusterer diverged at round {round} (n={n}, e={e}, m={m})"
            );
        }
    }

    #[test]
    fn reused_clusterer_handles_pathological_coordinates() {
        let mut clusterer = SnapshotClusterer::new();
        for positions in [
            vec![(0.0, 0.0), (0.5, 0.0), (1e300, -1e300), (f64::NAN, 3.0)],
            vec![(f64::INFINITY, 0.0), (f64::NEG_INFINITY, f64::INFINITY)],
            vec![(0.0, 0.0), (0.4, 0.0), (0.8, 0.0), (50.0, 50.0)],
        ] {
            let snap = snapshot_of(&positions);
            assert_eq!(
                clusterer.cluster_into(&snap, 1.0, 2).to_vec(),
                snapshot_clusters(&snap, 1.0, 2)
            );
        }
    }

    proptest! {
        #[test]
        fn grid_neighbours_equal_brute_force_neighbours(
            coords in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 1..80),
            e in 0.3f64..5.0) {
            let pts: Vec<Point> = coords.iter().map(|(x, y)| Point::new(*x, *y)).collect();
            let grid = GridIndex::build(pts.clone(), e);
            let brute = BruteForcePoints::new(&pts, e);
            for i in 0..pts.len() {
                let mut a = grid.neighbors(i);
                let mut b = brute.neighbors(i);
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b, "neighbourhood mismatch at index {}", i);
            }
        }

        #[test]
        fn clustering_via_grid_matches_brute_force_partition(
            coords in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 2..60),
            e in 0.5f64..5.0,
            m in 2usize..4) {
            // Because neighbourhoods agree exactly, the DBSCAN partitions must
            // also agree (same visiting order, same seeds).
            let pts: Vec<Point> = coords.iter().map(|(x, y)| Point::new(*x, *y)).collect();
            let grid_labels = dbscan(&GridIndex::build(pts.clone(), e), m);
            let brute_labels = dbscan(&BruteForcePoints::new(&pts, e), m);
            prop_assert_eq!(grid_labels, brute_labels);
        }

        #[test]
        fn reused_clusterer_is_equivalent_on_random_snapshots(
            coords in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 0..60),
            e in 0.3f64..5.0,
            m in 1usize..5) {
            let snap = snapshot_of(&coords);
            let mut clusterer = SnapshotClusterer::new();
            // Warm the pool with an unrelated snapshot first so stale state
            // is in play, then cluster the real one.
            let warm = snapshot_of(&[(0.0, 0.0), (0.2, 0.0), (0.4, 0.0), (9.0, 9.0)]);
            clusterer.cluster_into(&warm, 0.5, 2);
            prop_assert_eq!(
                clusterer.cluster_into(&snap, e, m).to_vec(),
                snapshot_clusters(&snap, e, m)
            );
        }
    }
}
