//! Dataset profiles mirroring the paper's Table 3.

/// The four named dataset profiles of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileName {
    /// Athens concrete trucks: medium N, long T, regular sampling.
    Truck,
    /// CSIRO virtual-fencing cattle: tiny N, very long and dense T.
    Cattle,
    /// Copenhagen private cars: medium N, very different trajectory lengths.
    Car,
    /// Beijing taxis: large N, short T, heavily irregular sampling.
    Taxi,
}

impl ProfileName {
    /// All four profiles, in Table 3 order.
    pub const ALL: [ProfileName; 4] = [
        ProfileName::Truck,
        ProfileName::Cattle,
        ProfileName::Car,
        ProfileName::Taxi,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProfileName::Truck => "Truck",
            ProfileName::Cattle => "Cattle",
            ProfileName::Car => "Car",
            ProfileName::Taxi => "Taxi",
        }
    }
}

impl std::fmt::Display for ProfileName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How objects move in the synthetic world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovementModel {
    /// Side length of the square world the objects roam in.
    pub world_size: f64,
    /// Mean speed (distance per time tick) of an object.
    pub mean_speed: f64,
    /// Standard deviation of per-tick heading change (radians); small values
    /// give road-like smooth trajectories, large values give grazing-animal
    /// wander.
    pub turn_sigma: f64,
    /// Spatial jitter of convoy members around their group leader, as a
    /// fraction of the profile's `e` (≤ 0.5 keeps members density-connected).
    pub member_jitter: f64,
    /// Number of shared *hotspots* (depots, construction sites, busy
    /// intersections, water points) that independent objects gravitate
    /// towards. Hotspots create the incidental, short-lived co-location that
    /// real GPS data exhibits — the workload component that stresses the
    /// snapshot clustering of CMC and the filter selectivity of CuTS.
    /// Zero disables the attraction.
    pub num_hotspots: usize,
    /// Strength of the pull towards the current hotspot, as the fraction of
    /// each step directed at the hotspot (0 = pure random walk, 1 = straight
    /// to the hotspot).
    pub hotspot_attraction: f64,
}

/// A complete description of a synthetic dataset: size, sampling behaviour,
/// movement model, planted convoy structure, and the convoy-query parameters
/// the paper's Table 3 lists for the corresponding real dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetProfile {
    /// Which named profile this derives from.
    pub name: ProfileName,
    /// Number of objects `N`.
    pub num_objects: usize,
    /// Length of the time domain `T` (number of discrete ticks).
    pub time_domain: i64,
    /// Probability that an object's sample at a covered tick is *missing*
    /// (irregular sampling). 0 reproduces the Cattle-style every-second feed.
    pub missing_probability: f64,
    /// Fraction of the time domain an average object is present for (objects
    /// appear/disappear at arbitrary times, Section 3's database model).
    pub presence_fraction: f64,
    /// Number of convoy groups planted in the data.
    pub num_convoys: usize,
    /// Number of objects per planted convoy (at least `m`).
    pub convoy_size: usize,
    /// Lifetime of each planted convoy, in ticks (at least `k`).
    pub convoy_lifetime: i64,
    /// Movement model parameters.
    pub movement: MovementModel,
    /// The query's group-size parameter `m` (Table 3).
    pub m: usize,
    /// The query's lifetime parameter `k` (Table 3), scaled with the domain.
    pub k: usize,
    /// The query's neighbourhood range `e` (Table 3).
    pub e: f64,
    /// The paper's chosen simplification tolerance δ for this dataset.
    pub delta: f64,
    /// The paper's chosen time-partition length λ for this dataset.
    pub lambda: usize,
}

impl DatasetProfile {
    /// The Truck profile: 267 objects, T = 10 586, regular but sparse
    /// presence, road-like movement (Table 3: m=3, k=180, e=8, δ=5.9, λ=4).
    pub fn truck() -> Self {
        DatasetProfile {
            name: ProfileName::Truck,
            num_objects: 267,
            time_domain: 10_586,
            missing_probability: 0.05,
            presence_fraction: 0.021, // avg trajectory length 224 of 10586
            num_convoys: 12,
            convoy_size: 4,
            convoy_lifetime: 400,
            movement: MovementModel {
                world_size: 2_000.0,
                mean_speed: 6.0,
                turn_sigma: 0.15,
                member_jitter: 0.25,
                num_hotspots: 6,
                hotspot_attraction: 0.35,
            },
            m: 3,
            k: 180,
            e: 8.0,
            delta: 5.9,
            lambda: 4,
        }
    }

    /// The Cattle profile: 13 objects, a very long densely sampled time
    /// domain (Table 3: m=2, k=180, e=300, δ=274.2, λ=36).
    pub fn cattle() -> Self {
        DatasetProfile {
            name: ProfileName::Cattle,
            num_objects: 13,
            time_domain: 175_636,
            missing_probability: 0.0,
            presence_fraction: 1.0,
            num_convoys: 3,
            convoy_size: 3,
            convoy_lifetime: 2_000,
            movement: MovementModel {
                world_size: 5_000.0,
                mean_speed: 1.0,
                turn_sigma: 0.8,
                member_jitter: 0.25,
                num_hotspots: 0,
                hotspot_attraction: 0.0,
            },
            m: 2,
            k: 180,
            e: 300.0,
            delta: 274.2,
            lambda: 36,
        }
    }

    /// The Car profile: 183 objects with very different trajectory lengths
    /// (Table 3: m=3, k=180, e=80, δ=63.4, λ=24).
    pub fn car() -> Self {
        DatasetProfile {
            name: ProfileName::Car,
            num_objects: 183,
            time_domain: 8_757,
            missing_probability: 0.15,
            presence_fraction: 0.0515, // avg trajectory length 451 of 8757
            num_convoys: 6,
            convoy_size: 4,
            convoy_lifetime: 500,
            movement: MovementModel {
                world_size: 10_000.0,
                mean_speed: 15.0,
                turn_sigma: 0.2,
                member_jitter: 0.25,
                num_hotspots: 8,
                hotspot_attraction: 0.3,
            },
            m: 3,
            k: 180,
            e: 80.0,
            delta: 63.4,
            lambda: 24,
        }
    }

    /// The Taxi profile: 500 objects, a short time domain, heavily irregular
    /// sampling (Table 3: m=3, k=180, e=40, δ=31.5, λ=4).
    pub fn taxi() -> Self {
        DatasetProfile {
            name: ProfileName::Taxi,
            num_objects: 500,
            time_domain: 965,
            missing_probability: 0.5,
            presence_fraction: 0.17, // avg trajectory length 82 of 965
            num_convoys: 4,
            convoy_size: 4,
            convoy_lifetime: 300,
            movement: MovementModel {
                world_size: 20_000.0,
                mean_speed: 30.0,
                turn_sigma: 0.25,
                member_jitter: 0.25,
                num_hotspots: 10,
                hotspot_attraction: 0.4,
            },
            m: 3,
            k: 180,
            e: 40.0,
            delta: 31.5,
            lambda: 4,
        }
    }

    /// The profile for a [`ProfileName`].
    pub fn named(name: ProfileName) -> Self {
        match name {
            ProfileName::Truck => Self::truck(),
            ProfileName::Cattle => Self::cattle(),
            ProfileName::Car => Self::car(),
            ProfileName::Taxi => Self::taxi(),
        }
    }

    /// Returns a copy of the profile scaled down (or up) by `fraction`.
    ///
    /// The time domain, object count, planted-convoy lifetime and the query
    /// lifetime `k` scale with `fraction`; the spatial parameters are left
    /// untouched so the geometry of the problem — and hence the relative
    /// behaviour of the algorithms — is preserved. Lower bounds keep the
    /// scaled profile non-degenerate (at least `m + 1` objects, a time domain
    /// of at least 50 ticks, a lifetime of at least 10).
    #[must_use]
    pub fn scaled(&self, fraction: f64) -> Self {
        let fraction = fraction.max(1e-4);
        let scale_usize = |v: usize, lo: usize| ((v as f64 * fraction).round() as usize).max(lo);
        let scale_i64 = |v: i64, lo: i64| ((v as f64 * fraction).round() as i64).max(lo);
        DatasetProfile {
            name: self.name,
            num_objects: scale_usize(self.num_objects, self.m + 1),
            time_domain: scale_i64(self.time_domain, 50),
            convoy_lifetime: scale_i64(self.convoy_lifetime, 10),
            num_convoys: self.num_convoys.min(scale_usize(self.num_convoys, 1)),
            k: scale_usize(self.k, 5),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_profiles_match_table3_parameters() {
        let truck = DatasetProfile::truck();
        assert_eq!(truck.num_objects, 267);
        assert_eq!(truck.time_domain, 10_586);
        assert_eq!((truck.m, truck.k), (3, 180));
        assert_eq!(truck.e, 8.0);

        let cattle = DatasetProfile::cattle();
        assert_eq!(cattle.num_objects, 13);
        assert_eq!(cattle.m, 2);
        assert_eq!(cattle.missing_probability, 0.0);

        let car = DatasetProfile::car();
        assert_eq!(car.num_objects, 183);
        assert_eq!(car.e, 80.0);

        let taxi = DatasetProfile::taxi();
        assert_eq!(taxi.num_objects, 500);
        assert_eq!(taxi.time_domain, 965);
        assert!(taxi.missing_probability > 0.3);

        for name in ProfileName::ALL {
            assert_eq!(DatasetProfile::named(name).name, name);
        }
    }

    #[test]
    fn scaling_preserves_spatial_parameters_and_floors() {
        let truck = DatasetProfile::truck();
        let small = truck.scaled(0.01);
        assert_eq!(small.e, truck.e);
        assert_eq!(small.movement, truck.movement);
        assert!(small.num_objects > truck.m);
        assert!(small.time_domain >= 50);
        assert!(small.k >= 5);
        assert!(small.num_objects < truck.num_objects);
        // Extreme downscaling never panics or becomes degenerate.
        let tiny = truck.scaled(0.0);
        assert!(tiny.time_domain >= 50);
    }

    #[test]
    fn expected_sizes_are_consistent() {
        let truck = DatasetProfile::truck();
        // Table 3 lists an average trajectory length of 224; the profile's
        // expectation (`presence_fraction × time_domain × (1 −
        // missing_probability)`) must be in the same ballpark.
        let expected =
            truck.presence_fraction * truck.time_domain as f64 * (1.0 - truck.missing_probability);
        assert!((150.0..300.0).contains(&expected), "got {expected}");
    }

    #[test]
    fn profile_names_display() {
        assert_eq!(ProfileName::Truck.to_string(), "Truck");
        assert_eq!(ProfileName::ALL.len(), 4);
    }
}
