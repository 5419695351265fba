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
//! extents (`bucket_starts`), and flat per-cell columns — the point-index
//! column `bucket_points` plus the **structure-of-arrays coordinate columns**
//! `cell_xs` / `cell_ys`, so the distance scan streams pure `f64` lanes. No
//! per-cell `Vec`, no hashing, no pointer chasing — the flat-bucket
//! structure the grid-join literature gets its speed from.
//!
//! ## One extent per block column
//!
//! A cell key packs `(cx, cy)` with the sign bit of each half flipped, so the
//! keys sort in `(cx, cy)` order and a cell's neighbours sit at fixed key
//! offsets: `± 1` is the cell above or below, `± 2⁶⁴` the cell to the right
//! or left (cell coordinates are clamped to ±2⁶², so no offset overflows).
//! The occupied cells of one column of a 3×3 block — column `cx + dx`, rows
//! `cy − 1..=cy + 1` — therefore have consecutive ranks, and their buckets
//! form one contiguous extent of the CSR columns. The build records the
//! three column extents of every cell's block in one forward sweep over the
//! sorted keys (`fill_blocks`, O(cells)). A query at an indexed point
//! reads its cell's three extents and hands each to
//! [`kernel::scan_soa`], which tests it in [`kernel::LANE_WIDTH`]-wide
//! branch-free lanes (autovectorizable) and emits hits from a bitmask in
//! ascending-index order (the mask-then-emit argument in the kernel docs).
//!
//! Grouping by `(key, index)` keeps each bucket's points in ascending point
//! index, which is exactly the insertion order the previous `HashMap`
//! implementation produced, and the extents are scanned columns left to
//! right, each from `cy − 1` up — the `HashMap` grid's fixed 3×3 `dx`/`dy`
//! visit order. So every neighbourhood list — and therefore every DBSCAN
//! label sequence — is bit-identical to the historical behaviour, which the
//! engine/stream equivalence suites rely on (the frozen originals — the
//! `HashMap` grid and the scalar array-of-structs CSR grid — live in the
//! test-support crate `traj-cluster-baselines`, and
//! `tests/kernel_equivalence.rs` pins this index to both, order included).
//!
//! ## Density bound before the region query
//!
//! Every hit of a query lies in the 3×3 cell block around the point's own
//! cell, so the block's point count — the summed length of its three column
//! extents — bounds the neighbourhood size from above.
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
    /// The distinct cell keys in `(cx, cy)` order (see [`GridIndex::pack`]),
    /// indexed by bucket rank.
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
    /// Bucket rank of every point's own cell (filled free during the
    /// grouping pass).
    point_rank: Vec<u32>,
    /// Per bucket rank, the `start..end` extents of the CSR columns that
    /// hold the cell's 3×3 block: one per column `cx − 1`, `cx`, `cx + 1`,
    /// each covering rows `cy − 1..=cy + 1` (see [`GridIndex::fill_blocks`]).
    blocks: Vec<[(u32, u32); 3]>,
    /// Full [`kernel::LANE_WIDTH`]-wide batches the distance kernel has
    /// executed since the last [`GridIndex::take_kernel_counts`]. A `Cell`
    /// because queries take `&self`; plain adds, no atomics — queries are
    /// single-threaded per grid (every engine gives each worker its own).
    kernel_batches: Cell<u64>,
    /// Total candidate points the distance kernel has scanned (full batches
    /// plus scalar tail) since the last [`GridIndex::take_kernel_counts`].
    kernel_lanes: Cell<u64>,
}

/// The key offset of one grid column: `pack((cx + 1, cy)) − pack((cx, cy))`.
const COLUMN: u128 = 1 << 64;

/// The sign bit flipped in each half of a packed key, which turns two's
/// complement order into unsigned order.
const SIGN: u64 = 1 << 63;

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
        self.fill_blocks();
    }

    /// Fills [`GridIndex::blocks`] in one forward sweep over the sorted key
    /// table.
    ///
    /// The rows `cy − 1..=cy + 1` of column `cx + dx` are the keys
    /// `key + dx·2⁶⁴ − 1 ..= key + dx·2⁶⁴ + 1`, a contiguous key range and
    /// so a contiguous rank range. Both of its ends grow with `key`, so two
    /// forward-only cursors per column find every range: O(cells) in total,
    /// no search and no lookup table.
    fn fill_blocks(&mut self) {
        let keys = &self.cell_keys;
        let starts = &self.bucket_starts;
        self.blocks.clear();
        // Per column: the first rank at or past the low row, and the first
        // rank past the high row.
        let mut first = [0usize; 3];
        let mut end = [0usize; 3];
        for &key in keys {
            let mut block = [(0, 0); 3];
            for (dx, mid) in [key - COLUMN, key, key + COLUMN].into_iter().enumerate() {
                while first[dx] < keys.len() && keys[first[dx]] < mid - 1 {
                    first[dx] += 1;
                }
                while end[dx] < keys.len() && keys[end[dx]] <= mid + 1 {
                    end[dx] += 1;
                }
                block[dx] = (starts[first[dx]], starts[end[dx]]);
            }
            self.blocks.push(block);
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
    /// scanned)`. The [`SnapshotClusterer`] adds them into its
    /// [`ClusterCounts`] on every call, making the batching ratio
    /// (`batches × LANE_WIDTH / lanes`) observable per run.
    pub fn take_kernel_counts(&self) -> (u64, u64) {
        (self.kernel_batches.take(), self.kernel_lanes.take())
    }

    /// Largest cell coordinate magnitude the grid uses. `floor() as i64`
    /// saturates at `i64::MAX` for huge or infinite inputs, and the ±1
    /// neighbour offsets of a packed key would then overflow; clamping to
    /// ±2⁶² (exactly representable as `f64`) keeps every neighbour-cell key
    /// in range. Points this far out are beyond any meaningful `epsilon`, so
    /// the distance filter still rejects every false bucket-mate.
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

    /// Packs a cell coordinate pair into one `u128` key whose unsigned order
    /// is the lexicographic `(cx, cy)` order: each coordinate becomes a u64
    /// half with its sign bit flipped. With coordinates clamped to ±2⁶²,
    /// `key ± 1` is the cell above or below and `key ± COLUMN` the cell to
    /// the right or left, with no wrap anywhere.
    #[inline]
    fn pack((cx, cy): (i64, i64)) -> u128 {
        (u128::from(cx as u64 ^ SIGN) << 64) | u128::from(cy as u64 ^ SIGN)
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
    /// `target` need not be an indexed point, so its block has no recorded
    /// extents: two binary searches of the key table find each column's.
    pub fn range_query_into(&self, target: &Point, out: &mut Vec<usize>) {
        out.clear();
        if self.cell_keys.is_empty() {
            return;
        }
        let key = Self::pack(Self::cell_of(target, self.epsilon));
        let eps_sq = self.epsilon * self.epsilon;
        for mid in [key - COLUMN, key, key + COLUMN] {
            let first = self.cell_keys.partition_point(|&k| k < mid - 1);
            let end = self.cell_keys.partition_point(|&k| k <= mid + 1);
            self.scan_extent(
                self.bucket_starts[first],
                self.bucket_starts[end],
                target,
                eps_sq,
                out,
            );
        }
    }

    /// Hands the CSR extent `start..end` to the batched kernel, and accounts
    /// the work in the counters behind `cluster.kernel_batches` /
    /// `cluster.kernel_lanes`.
    // lint: hot-path — every query's distance tests; eps² comes from the caller
    #[inline]
    fn scan_extent(&self, start: u32, end: u32, target: &Point, eps_sq: f64, out: &mut Vec<usize>) {
        let (start, end) = (start as usize, end as usize);
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
    /// three column extents come precomputed with the point's cell — no
    /// coordinate division, no search.
    fn neighbors_into(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        let target = &self.points[idx];
        let eps_sq = self.epsilon * self.epsilon;
        for &(start, end) in &self.blocks[self.point_rank[idx] as usize] {
            self.scan_extent(start, end, target, eps_sq, out);
        }
    }

    /// The point count of the 3×3 cell block around the point's own cell:
    /// every hit of [`RegionQuery::neighbors_into`] lies in that block, so
    /// the count never undercounts. On sparse worlds it is usually below
    /// `min_pts`, letting DBSCAN skip the query outright.
    fn neighbor_bound(&self, idx: usize) -> usize {
        self.blocks[self.point_rank[idx] as usize]
            .iter()
            .map(|&(start, end)| (end - start) as usize)
            .sum()
    }
}

/// The work a [`SnapshotClusterer`] has done over its
/// [`SnapshotClusterer::cluster_into`] calls: the values the `cluster.*`
/// and `prune.region_queries_skipped` counters report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterCounts {
    /// `cluster_into` calls.
    pub calls: u64,
    /// Snapshot entries those calls were given.
    pub points: u64,
    /// Clusters they reported.
    pub clusters_found: u64,
    /// Full [`kernel::LANE_WIDTH`]-wide distance-kernel batches executed.
    pub kernel_batches: u64,
    /// Candidate points the distance kernel scanned.
    pub kernel_lanes: u64,
    /// DBSCAN region queries run.
    pub region_queries: u64,
    /// Region queries skipped because the point's 3×3 cell block holds
    /// fewer than `m` points (with `region_queries`, every clustered point).
    pub region_queries_skipped: u64,
}

impl std::ops::AddAssign for ClusterCounts {
    fn add_assign(&mut self, other: ClusterCounts) {
        self.calls += other.calls;
        self.points += other.points;
        self.clusters_found += other.clusters_found;
        self.kernel_batches += other.kernel_batches;
        self.kernel_lanes += other.kernel_lanes;
        self.region_queries += other.region_queries;
        self.region_queries_skipped += other.region_queries_skipped;
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
    /// The work done since the last [`SnapshotClusterer::take_counts`].
    counts: ClusterCounts,
    /// Handle for the `cluster.call_ns` latency histogram; the off default
    /// costs one branch per call. A live [`convoy_obs::Registry`] stays
    /// within the zero-allocation contract: the histogram's map node exists
    /// after the first call.
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

    /// Attaches a recorder for the `cluster.call_ns` latency histogram of
    /// subsequent [`SnapshotClusterer::cluster_into`] calls. The calls'
    /// counts are kept whether or not a recorder is attached (see
    /// [`SnapshotClusterer::take_counts`]).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Hands out the work done since the last call and restarts the count.
    pub fn take_counts(&mut self) -> ClusterCounts {
        std::mem::take(&mut self.counts)
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
        self.counts.calls += 1;
        self.counts.points += snapshot.len() as u64;
        if snapshot.len() < m {
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
        let (kernel_batches, kernel_lanes) = self.grid.take_kernel_counts();
        let (region_queries, queries_skipped) = self.scratch.query_counts();
        self.counts.clusters_found += u64::from(num_clusters);
        self.counts.kernel_batches += kernel_batches;
        self.counts.kernel_lanes += kernel_lanes;
        self.counts.region_queries += region_queries;
        self.counts.region_queries_skipped += queries_skipped;
        if live {
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
    fn packed_keys_sort_like_cells_and_step_to_neighbours() {
        // Across the sign boundary and out to the clamp limit, key order is
        // `(cx, cy)` order, `+ 1` is the next row and `+ COLUMN` the next
        // column — the invariants the block extents are built on.
        let limit = 1i64 << 62;
        let coords = [-limit, -limit + 1, -2, -1, 0, 1, limit - 1, limit];
        for &cx in &coords {
            for &cy in &coords {
                let key = GridIndex::pack((cx, cy));
                assert_eq!(
                    key + 1,
                    GridIndex::pack((cx, cy + 1)),
                    "row after {cx},{cy}"
                );
                assert_eq!(
                    key + COLUMN,
                    GridIndex::pack((cx + 1, cy)),
                    "column after {cx},{cy}"
                );
                for &ox in &coords {
                    for &oy in &coords {
                        assert_eq!(
                            key.cmp(&GridIndex::pack((ox, oy))),
                            (cx, cy).cmp(&(ox, oy)),
                            "order of ({cx},{cy}) and ({ox},{oy})"
                        );
                    }
                }
            }
        }
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
