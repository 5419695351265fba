//! Batched, auto-vectorizable distance kernels over structure-of-arrays
//! coordinate columns.
//!
//! This is the innermost loop of the whole suite: every e-range query of the
//! CSR [`GridIndex`](crate::GridIndex) ends up distance-testing the points
//! of a handful of buckets against one target. The grid stores those points
//! as parallel `xs`/`ys` columns (structure of arrays), and the kernel here
//! tests them in fixed-width lanes:
//!
//! 1. **Batch.** Each [`LANE_WIDTH`]-wide chunk computes
//!    `dx*dx + dy*dy <= eps_sq` for all lanes with no data-dependent
//!    branches, accumulating the comparison results into a bitmask. The
//!    chunked-slice shape (`chunks_exact` over plain `f64` columns) is the
//!    form LLVM's autovectorizer reliably turns into SIMD compares — no
//!    `std::simd`, no `unsafe`, no platform intrinsics.
//! 2. **Emit.** The mask is then drained lowest-bit-first
//!    (`trailing_zeros`), pushing hit indices in ascending lane order.
//!    Chunks are visited left to right and the scalar remainder last, so
//!    hits are emitted in exactly ascending slice order — which, because CSR
//!    buckets store points in ascending point index, is bit-identical to the
//!    historical scalar scan (the order every engine-equivalence suite and
//!    the frozen `traj_cluster_baselines::reference` grid pin).
//!
//! The arithmetic is the same IEEE expression the scalar path evaluated
//! (`(x - tx)² + (y - ty)²`, no FMA contraction, compared with `<=`), so the
//! hit *set* is bit-identical too: NaN coordinates compare false against
//! every epsilon, points exactly at distance `e` stay inclusive, and ±∞
//! squares to +∞ which is rejected. `kernel_equivalence.rs` pits this kernel
//! against the frozen scalar references on exactly those adversarial shapes.

/// Number of lanes a batch tests at once.
///
/// Eight `f64` lanes span four SSE2 / two AVX vectors — wide enough that the
/// autovectorized compare amortizes the mask drain, narrow enough that the
/// typical merged 3-cell column extent (~8 points at the benchmark's
/// constant density) still fills a batch. The emit mask is a `u32`, so the
/// width is statically capped at 32.
pub const LANE_WIDTH: usize = 8;

// Compile-time guarantee that every lane index fits the `u32` emit mask.
const _: () = assert!(LANE_WIDTH <= 32);

/// Batched e-range test over one structure-of-arrays extent.
///
/// Scans the parallel coordinate columns `xs`/`ys` (and the matching
/// original-point-index column `idxs`) against the target `(tx, ty)`,
/// pushing `idxs[j] as usize` for every `j` with
/// `(xs[j] - tx)² + (ys[j] - ty)² <= eps_sq` — in ascending `j` order,
/// exactly the hits and order of the scalar reference scan.
///
/// The three slices must have equal length (the CSR layout guarantees it;
/// debug builds assert it). `out` is appended to, not cleared.
// lint: hot-path — the batched distance kernel; mask-then-emit, no allocation
#[inline]
pub fn scan_soa(
    xs: &[f64],
    ys: &[f64],
    idxs: &[u32],
    tx: f64,
    ty: f64,
    eps_sq: f64,
    out: &mut Vec<usize>,
) {
    debug_assert_eq!(xs.len(), ys.len());
    debug_assert_eq!(xs.len(), idxs.len());
    let n = xs.len().min(ys.len()).min(idxs.len());
    let (xs, ys, idxs) = (&xs[..n], &ys[..n], &idxs[..n]);

    // Short extents (no full batch) skip the chunk/mask machinery outright:
    // identical expression and order to the remainder loop below, without
    // paying two `ChunksExact` constructions for zero chunks.
    if n < LANE_WIDTH {
        for ((x, y), &idx) in xs.iter().zip(ys).zip(idxs) {
            let dx = x - tx;
            let dy = y - ty;
            if dx * dx + dy * dy <= eps_sq {
                out.push(idx as usize);
            }
        }
        return;
    }

    let mut chunks_x = xs.chunks_exact(LANE_WIDTH);
    let mut chunks_y = ys.chunks_exact(LANE_WIDTH);
    let mut base = 0usize;
    for (cx, cy) in chunks_x.by_ref().zip(chunks_y.by_ref()) {
        // Branch-free lane pass: the fixed-width loop over `chunks_exact`
        // slices is bounds-check-free and autovectorizes to SIMD subtract /
        // multiply / compare; the comparison results land in one bitmask.
        let mut mask = 0u32;
        for lane in 0..LANE_WIDTH {
            let dx = cx[lane] - tx;
            let dy = cy[lane] - ty;
            let d2 = dx * dx + dy * dy;
            mask |= u32::from(d2 <= eps_sq) << lane;
        }
        // Emit pass: drain set bits lowest-first, preserving ascending
        // slice (= ascending point index) order. Misses cost nothing —
        // the common all-miss chunk is a single branch on `mask == 0`.
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            out.push(idxs[base + lane] as usize);
            mask &= mask - 1;
        }
        base += LANE_WIDTH;
    }

    // Scalar tail for the `n mod LANE_WIDTH` remainder, same expression,
    // still ascending.
    for ((x, y), &idx) in chunks_x
        .remainder()
        .iter()
        .zip(chunks_y.remainder())
        .zip(&idxs[base..])
    {
        let dx = x - tx;
        let dy = y - ty;
        if dx * dx + dy * dy <= eps_sq {
            out.push(idx as usize);
        }
    }
}

/// The number of full [`LANE_WIDTH`] batches [`scan_soa`] executes for an
/// extent of `len` points (the rest goes through the scalar tail). Pure
/// arithmetic — the grid uses it to account the `cluster.kernel_batches` /
/// `cluster.kernel_lanes` observability counters without touching the
/// kernel's inner loop.
#[inline]
pub fn full_batches(len: usize) -> usize {
    len / LANE_WIDTH
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar loop the kernel replaces, in its exact historical shape.
    fn scan_scalar(
        xs: &[f64],
        ys: &[f64],
        idxs: &[u32],
        tx: f64,
        ty: f64,
        eps_sq: f64,
        out: &mut Vec<usize>,
    ) {
        for ((x, y), &idx) in xs.iter().zip(ys).zip(idxs) {
            let dx = x - tx;
            let dy = y - ty;
            if dx * dx + dy * dy <= eps_sq {
                out.push(idx as usize);
            }
        }
    }

    fn assert_kernel_matches(xs: &[f64], ys: &[f64], tx: f64, ty: f64, eps_sq: f64) {
        let idxs: Vec<u32> = (0..xs.len() as u32).collect();
        let mut batched = vec![999usize]; // pre-seeded: append, don't clear
        let mut scalar = vec![999usize];
        scan_soa(xs, ys, &idxs, tx, ty, eps_sq, &mut batched);
        scan_scalar(xs, ys, &idxs, tx, ty, eps_sq, &mut scalar);
        assert_eq!(batched, scalar, "kernel diverged (n = {})", xs.len());
    }

    #[test]
    fn every_length_mod_lane_width_matches_scalar() {
        // 0..=3·width+1 covers empty, pure-remainder, exact-chunk and
        // chunk-plus-every-remainder shapes.
        for n in 0..=(3 * LANE_WIDTH + 1) {
            let xs: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.9).collect();
            let ys: Vec<f64> = (0..n).map(|i| (i % 3) as f64 * 1.1).collect();
            assert_kernel_matches(&xs, &ys, 1.0, 1.0, 4.0);
        }
    }

    #[test]
    fn exact_epsilon_hits_are_inclusive_in_every_lane_position() {
        // A point at exactly distance e from the target in each lane slot of
        // a chunk: d² == eps² must be a hit (closed balls, Definition 1).
        for slot in 0..LANE_WIDTH {
            let mut xs = vec![100.0; LANE_WIDTH + 3];
            let ys = vec![0.0; LANE_WIDTH + 3];
            xs[slot] = 3.0;
            let idxs: Vec<u32> = (0..xs.len() as u32).collect();
            let mut out = Vec::new();
            scan_soa(&xs, &ys, &idxs, 0.0, 0.0, 9.0, &mut out);
            assert_eq!(out, vec![slot], "exact-e hit missed in lane {slot}");
        }
    }

    #[test]
    fn non_finite_coordinates_never_hit() {
        let xs = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, 1e300];
        let ys = [0.0, 0.0, f64::INFINITY, f64::NAN, -1e300];
        assert_kernel_matches(&xs, &ys, 0.0, 0.0, 1e18);
        // A NaN target rejects everything — including a NaN point.
        let mut out = Vec::new();
        let idxs: Vec<u32> = (0..xs.len() as u32).collect();
        scan_soa(&xs, &ys, &idxs, f64::NAN, 0.0, 1e18, &mut out);
        assert!(out.is_empty(), "NaN target must produce no hits");
    }

    #[test]
    fn dense_duplicate_extent_emits_every_index_in_order() {
        // 4096 coincident points: 512 completely full batches, every lane a
        // hit — the mask drain must still emit strictly ascending indices.
        let n = 4096;
        let xs = vec![2.5; n];
        let ys = vec![-1.5; n];
        let idxs: Vec<u32> = (0..n as u32).collect();
        let mut out = Vec::new();
        scan_soa(&xs, &ys, &idxs, 2.5, -1.5, 0.0, &mut out);
        let expected: Vec<usize> = (0..n).collect();
        assert_eq!(out, expected);
        assert_eq!(full_batches(n), n / LANE_WIDTH);
    }

    #[test]
    fn non_contiguous_index_column_is_passed_through() {
        // The kernel reports `idxs[j]`, not `j`: bucket extents carry
        // original point indices.
        let xs = [0.0, 10.0, 0.1];
        let ys = [0.0, 10.0, 0.0];
        let idxs = [7u32, 3, 42];
        let mut out = Vec::new();
        scan_soa(&xs, &ys, &idxs, 0.0, 0.0, 1.0, &mut out);
        assert_eq!(out, vec![7, 42]);
    }
}
