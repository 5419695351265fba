//! Perturbation utilities: GPS noise, down-sampling and presence clipping.
//!
//! Real GPS feeds differ from clean synthetic traces in three ways the paper's
//! datasets exhibit: positional noise (metres of jitter per fix), irregular
//! reporting intervals (the Taxi dataset reports "once in several minutes"),
//! and devices that switch off for parts of the day. These helpers apply such
//! perturbations to an existing [`TrajectoryDatabase`], which is how the
//! robustness tests stress the discovery algorithms without changing the
//! generator itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajectory::{TrajPoint, Trajectory, TrajectoryDatabase};

/// Adds isotropic positional noise of at most `magnitude` (uniform in each
/// coordinate) to every sample. Deterministic for a given `seed`.
///
/// Noise of magnitude `σ` changes inter-object distances by at most `2σ√2`,
/// so a convoy planted with headroom `e/2` survives noise up to roughly
/// `e/(4√2)`; tests use this bound.
pub fn add_gps_noise(db: &TrajectoryDatabase, magnitude: f64, seed: u64) -> TrajectoryDatabase {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = TrajectoryDatabase::new();
    for (id, traj) in db.iter() {
        let points: Vec<TrajPoint> = traj
            .points()
            .iter()
            .map(|p| {
                TrajPoint::new(
                    p.x + rng.gen_range(-magnitude..=magnitude),
                    p.y + rng.gen_range(-magnitude..=magnitude),
                    p.t,
                )
            })
            .collect();
        out.insert(
            id,
            // lint: allow(no-unwrap-in-lib) — jitter preserves the (validated) input's point count
            Trajectory::from_points(points).expect("same shape as input"),
        );
    }
    out
}

/// Randomly drops interior samples with probability `probability` (the first
/// and last sample of every trajectory are always kept). Deterministic for a
/// given `seed`.
pub fn downsample(db: &TrajectoryDatabase, probability: f64, seed: u64) -> TrajectoryDatabase {
    let probability = probability.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = TrajectoryDatabase::new();
    for (id, traj) in db.iter() {
        let n = traj.len();
        let points: Vec<TrajPoint> = traj
            .points()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == 0 || *i == n - 1 || rng.gen::<f64>() >= probability)
            .map(|(_, p)| *p)
            .collect();
        // lint: allow(no-unwrap-in-lib) — the filter always keeps indices 0 and n-1, so points is non-empty
        out.insert(id, Trajectory::from_points(points).expect("endpoints kept"));
    }
    out
}

/// Keeps only every `stride`-th sample of every trajectory (plus the last
/// sample), emulating a device with a fixed, coarser reporting interval.
pub fn stride_sample(db: &TrajectoryDatabase, stride: usize) -> TrajectoryDatabase {
    let stride = stride.max(1);
    let mut out = TrajectoryDatabase::new();
    for (id, traj) in db.iter() {
        let n = traj.len();
        let points: Vec<TrajPoint> = traj
            .points()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % stride == 0 || *i == n - 1)
            .map(|(_, p)| *p)
            .collect();
        // lint: allow(no-unwrap-in-lib) — index 0 always passes the stride filter, so points is non-empty
        out.insert(id, Trajectory::from_points(points).expect("non-empty"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, DatasetProfile};
    use proptest::prelude::*;

    fn fixture() -> TrajectoryDatabase {
        generate(&DatasetProfile::truck().scaled(0.02), 17).database
    }

    #[test]
    fn gps_noise_preserves_shape_and_timestamps() {
        let db = fixture();
        let noisy = add_gps_noise(&db, 1.5, 3);
        assert_eq!(noisy.len(), db.len());
        assert_eq!(noisy.total_points(), db.total_points());
        for (id, traj) in db.iter() {
            let noisy_traj = noisy.get(id).unwrap();
            for (a, b) in traj.points().iter().zip(noisy_traj.points()) {
                assert_eq!(a.t, b.t);
                assert!((a.x - b.x).abs() <= 1.5 + 1e-12);
                assert!((a.y - b.y).abs() <= 1.5 + 1e-12);
            }
        }
        // Deterministic for the same seed, different for another seed.
        assert_eq!(add_gps_noise(&db, 1.5, 3), noisy);
        assert_ne!(add_gps_noise(&db, 1.5, 4), noisy);
    }

    #[test]
    fn zero_noise_is_identity() {
        let db = fixture();
        assert_eq!(add_gps_noise(&db, 0.0, 9), db);
    }

    #[test]
    fn downsample_keeps_endpoints_and_reduces_points() {
        let db = fixture();
        let thinned = downsample(&db, 0.5, 11);
        assert_eq!(thinned.len(), db.len());
        assert!(thinned.total_points() < db.total_points());
        for (id, traj) in db.iter() {
            let t = thinned.get(id).unwrap();
            assert_eq!(t.start_time(), traj.start_time());
            assert_eq!(t.end_time(), traj.end_time());
        }
        // probability 0 keeps everything; probability 1 keeps only endpoints.
        assert_eq!(downsample(&db, 0.0, 1).total_points(), db.total_points());
        let only_ends = downsample(&db, 1.0, 1);
        for (_, traj) in only_ends.iter() {
            assert!(traj.len() <= 2);
        }
    }

    #[test]
    fn stride_sampling_thins_regularly() {
        let db = fixture();
        let strided = stride_sample(&db, 4);
        for (id, traj) in db.iter() {
            let s = strided.get(id).unwrap();
            assert!(s.len() <= traj.len() / 4 + 2);
            assert_eq!(s.end_time(), traj.end_time());
            assert_eq!(s.start_time(), traj.start_time());
        }
        // Stride 1 (and the 0 → clamped-to-1 case) is the identity.
        assert_eq!(stride_sample(&db, 1), db);
        assert_eq!(stride_sample(&db, 0), db);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn perturbations_never_invalidate_trajectories(
            magnitude in 0.0f64..10.0, probability in 0.0f64..1.0, seed in 0u64..100) {
            let db = fixture();
            let perturbed = downsample(&add_gps_noise(&db, magnitude, seed), probability, seed);
            // Every trajectory still parses (strictly increasing timestamps,
            // finite coordinates) simply by virtue of constructing
            // successfully, and object count is preserved.
            prop_assert_eq!(perturbed.len(), db.len());
            prop_assert!(perturbed.total_points() <= db.total_points());
        }
    }
}
