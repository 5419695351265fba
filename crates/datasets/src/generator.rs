//! The synthetic trajectory generator: independent background movers plus
//! planted convoy groups, with irregular sampling and partial presence.

use crate::ground_truth::PlantedConvoy;
use crate::profile::DatasetProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajectory::{ObjectId, TimePoint, TrajPoint, Trajectory, TrajectoryDatabase};

/// A generated dataset: the trajectory database plus the ground truth of the
/// convoys that were planted into it.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The synthetic trajectory database.
    pub database: TrajectoryDatabase,
    /// The convoys the generator planted (for accuracy checks).
    pub ground_truth: Vec<PlantedConvoy>,
    /// The profile the dataset was generated from.
    pub profile: DatasetProfile,
}

/// A correlated random walk: smooth heading changes, reflecting at the world
/// boundary, optionally drawn towards a hotspot. This is the movement model
/// for both group leaders and independent background objects.
struct Walker {
    x: f64,
    y: f64,
    heading: f64,
    speed: f64,
    /// The hotspot currently steered towards, if any.
    target: Option<(f64, f64)>,
}

impl Walker {
    fn new(rng: &mut StdRng, world: f64, mean_speed: f64) -> Self {
        Walker {
            x: rng.gen_range(0.0..world),
            y: rng.gen_range(0.0..world),
            heading: rng.gen_range(0.0..std::f64::consts::TAU),
            speed: mean_speed * rng.gen_range(0.6..1.4),
            target: None,
        }
    }

    fn step(&mut self, rng: &mut StdRng, world: f64, turn_sigma: f64, attraction: f64) {
        // Approximate a normal turn with the sum of uniform samples (Irwin–Hall),
        // which avoids pulling in a distributions crate.
        let turn: f64 = (0..4).map(|_| rng.gen_range(-1.0..1.0)).sum::<f64>() / 2.0 * turn_sigma;
        self.heading += turn;
        let mut dx = self.heading.cos() * self.speed;
        let mut dy = self.heading.sin() * self.speed;
        // Blend the random-walk step with a step towards the current hotspot.
        if let Some((tx, ty)) = self.target {
            let to_x = tx - self.x;
            let to_y = ty - self.y;
            let dist = (to_x * to_x + to_y * to_y).sqrt();
            if dist > self.speed {
                dx = dx * (1.0 - attraction) + to_x / dist * self.speed * attraction;
                dy = dy * (1.0 - attraction) + to_y / dist * self.speed * attraction;
            }
        }
        self.x += dx;
        self.y += dy;
        // Reflect at the boundary.
        if self.x < 0.0 {
            self.x = -self.x;
            self.heading = std::f64::consts::PI - self.heading;
        } else if self.x > world {
            self.x = 2.0 * world - self.x;
            self.heading = std::f64::consts::PI - self.heading;
        }
        if self.y < 0.0 {
            self.y = -self.y;
            self.heading = -self.heading;
        } else if self.y > world {
            self.y = 2.0 * world - self.y;
            self.heading = -self.heading;
        }
        self.x = self.x.clamp(0.0, world);
        self.y = self.y.clamp(0.0, world);
    }
}

/// Generates a dataset from `profile`: planted convoy groups, then
/// independent background movers. Deterministic for a fixed (profile, seed)
/// pair.
pub fn generate(profile: &DatasetProfile, seed: u64) -> GeneratedDataset {
    let p = profile;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut database = TrajectoryDatabase::new();
    let mut ground_truth = Vec::new();

    // Shared hotspots (depots, intersections, water points) that
    // independent objects gravitate towards, creating the incidental
    // co-location real GPS data exhibits.
    let hotspots: Vec<(f64, f64)> = (0..p.movement.num_hotspots)
        .map(|_| {
            (
                rng.gen_range(0.0..p.movement.world_size),
                rng.gen_range(0.0..p.movement.world_size),
            )
        })
        .collect();

    let convoy_member_total = p.num_convoys * p.convoy_size;
    let mut next_id = 0u64;

    // --- Planted convoy groups -------------------------------------------------
    for _ in 0..p.num_convoys {
        let members: Vec<ObjectId> = (0..p.convoy_size)
            .map(|i| ObjectId(next_id + i as u64))
            .collect();
        next_id += p.convoy_size as u64;

        // The group's shared lifetime inside the time domain.
        let lifetime = p.convoy_lifetime.min(p.time_domain);
        let latest_start = (p.time_domain - lifetime).max(0);
        let start: TimePoint = if latest_start == 0 {
            0
        } else {
            rng.gen_range(0..=latest_start)
        };
        let end = start + lifetime - 1;

        // A leader walk shared by the group; members follow with a fixed
        // per-member offset plus small jitter bounded by e × member_jitter,
        // which keeps every member within e of the leader (and therefore
        // the group density-connected) at every tick of the interval.
        let mut leader = Walker::new(&mut rng, p.movement.world_size, p.movement.mean_speed);
        let max_offset = p.e * p.movement.member_jitter;
        let offsets: Vec<(f64, f64)> = members
            .iter()
            .map(|_| {
                (
                    rng.gen_range(-max_offset..max_offset),
                    rng.gen_range(-max_offset..max_offset),
                )
            })
            .collect();

        let mut tracks: Vec<Vec<TrajPoint>> = vec![Vec::new(); members.len()];
        for t in start..=end {
            leader.step(&mut rng, p.movement.world_size, p.movement.turn_sigma, 0.0);
            for (mi, (ox, oy)) in offsets.iter().enumerate() {
                let jitter = max_offset * 0.2;
                let jx = rng.gen_range(-jitter..jitter);
                let jy = rng.gen_range(-jitter..jitter);
                tracks[mi].push(TrajPoint::new(leader.x + ox + jx, leader.y + oy + jy, t));
            }
        }

        // Convoy members are sampled *regularly* during the planted
        // interval so that the ground truth is airtight; irregular
        // sampling is applied to the background objects instead.
        for (member, track) in members.iter().zip(tracks) {
            if let Ok(traj) = Trajectory::from_points(track) {
                database.insert(*member, traj);
            }
        }
        ground_truth.push(PlantedConvoy {
            members,
            start,
            end,
        });
    }

    // --- Independent background objects ----------------------------------------
    let background = p.num_objects.saturating_sub(convoy_member_total);
    for _ in 0..background {
        let id = ObjectId(next_id);
        next_id += 1;

        // Presence window.
        let length =
            ((p.time_domain as f64 * p.presence_fraction).round() as i64).clamp(2, p.time_domain);
        let latest_start = (p.time_domain - length).max(0);
        let start: TimePoint = if latest_start == 0 {
            0
        } else {
            rng.gen_range(0..=latest_start)
        };
        let end = start + length - 1;

        let mut walker = Walker::new(&mut rng, p.movement.world_size, p.movement.mean_speed);
        let mut points = Vec::with_capacity(length as usize);
        for t in start..=end {
            // Periodically (re)pick a hotspot to head towards; between
            // switches the walker blends its random walk with the pull.
            if !hotspots.is_empty() && (walker.target.is_none() || rng.gen::<f64>() < 0.01) {
                walker.target = Some(hotspots[rng.gen_range(0..hotspots.len())]);
            }
            walker.step(
                &mut rng,
                p.movement.world_size,
                p.movement.turn_sigma,
                p.movement.hotspot_attraction,
            );
            // Irregular sampling: drop interior samples with the profile's
            // probability, always keeping the first and last so the
            // presence window is honoured.
            let is_boundary = t == start || t == end;
            if is_boundary || rng.gen::<f64>() >= p.missing_probability {
                points.push(TrajPoint::new(walker.x, walker.y, t));
            }
        }
        if let Ok(traj) = Trajectory::from_points(points) {
            database.insert(id, traj);
        }
    }

    GeneratedDataset {
        database,
        ground_truth,
        profile: *p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DatasetProfile, ProfileName};
    use trajectory::SnapshotPolicy;

    fn small_profile() -> DatasetProfile {
        DatasetProfile {
            num_objects: 20,
            time_domain: 120,
            convoy_lifetime: 60,
            num_convoys: 2,
            convoy_size: 3,
            k: 30,
            ..DatasetProfile::truck()
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let profile = small_profile();
        let a = generate(&profile, 7);
        let b = generate(&profile, 7);
        assert_eq!(a.database, b.database);
        assert_eq!(a.ground_truth, b.ground_truth);
        // A different seed gives a different dataset.
        let c = generate(&profile, 8);
        assert_ne!(a.database, c.database);
    }

    #[test]
    fn generated_sizes_match_the_profile() {
        let profile = small_profile();
        let data = generate(&profile, 1);
        assert_eq!(data.database.len(), profile.num_objects);
        assert_eq!(data.ground_truth.len(), profile.num_convoys);
        let domain = data.database.time_domain().unwrap();
        assert!(domain.num_points() <= profile.time_domain);
        // Every planted convoy has the requested size and lifetime.
        for planted in &data.ground_truth {
            assert_eq!(planted.members.len(), profile.convoy_size);
            assert_eq!(planted.lifetime(), profile.convoy_lifetime);
        }
    }

    #[test]
    fn planted_convoy_members_stay_within_e_of_each_other_pairwise_chain() {
        let profile = small_profile();
        let data = generate(&profile, 3);
        let mut checked_ticks = 0;
        for snap in data.database.sweep(SnapshotPolicy::Interpolate) {
            let t = snap.time;
            let position_of =
                |id: ObjectId| snap.entries.iter().find(|e| e.id == id).map(|e| e.position);
            for planted in &data.ground_truth {
                if !planted.interval().contains(t) {
                    continue;
                }
                checked_ticks += 1;
                // Every member must be within e of at least one other member
                // (they all sit within e·member_jitter·2 of the leader track,
                // so in fact all pairs are close; we check the weaker chain
                // property that density connection needs).
                for a in &planted.members {
                    let pa = position_of(*a).expect("member present");
                    let close_to_other = planted.members.iter().any(|b| {
                        b != a && position_of(*b).is_some_and(|pb| pa.distance(&pb) <= profile.e)
                    });
                    assert!(
                        close_to_other,
                        "member {a} strayed from its convoy at t={t}"
                    );
                }
            }
        }
        // The sweep reached every tick of every planted interval.
        let planted_ticks: i64 = data.ground_truth.iter().map(|c| c.lifetime()).sum();
        assert_eq!(checked_ticks, planted_ticks);
    }

    #[test]
    fn background_objects_respect_missing_probability() {
        let mut profile = small_profile();
        profile.missing_probability = 0.4;
        profile.presence_fraction = 1.0;
        profile.num_convoys = 0;
        let data = generate(&profile, 11);
        let stats = data.database.stats();
        // With 40 % of interior samples dropped the average trajectory length
        // must be clearly below the full domain length.
        assert!(
            stats.average_trajectory_length < profile.time_domain as f64 * 0.8,
            "avg length {} does not reflect missing samples",
            stats.average_trajectory_length
        );
    }

    #[test]
    fn all_named_profiles_generate_scaled_datasets() {
        for name in ProfileName::ALL {
            let profile = DatasetProfile::named(name).scaled(0.01);
            let data = generate(&profile, 5);
            assert!(
                !data.database.is_empty(),
                "{name} generated an empty database"
            );
            assert!(data.database.total_points() > 0);
        }
    }

    #[test]
    fn world_boundary_is_respected() {
        let profile = small_profile();
        let data = generate(&profile, 13);
        let world = profile.movement.world_size;
        for (_, traj) in data.database.iter() {
            for p in traj.points() {
                assert!(
                    p.x >= -1e-6 && p.x <= world + 1e-6,
                    "x={} out of world",
                    p.x
                );
                assert!(
                    p.y >= -1e-6 && p.y <= world + 1e-6,
                    "y={} out of world",
                    p.y
                );
            }
        }
    }
}
