//! Fold-equivalence property tests: the indexed candidate fold of
//! [`CmcState`] — over ticks (CMC, Algorithm 1) and over λ-partitions (the
//! CuTS filter's chaining, Algorithm 2) — against a copy of the all-pairs
//! loop of Algorithm 1 (every open candidate intersected with every cluster
//! of the unit), kept here as the oracle.
//!
//! DBSCAN never produces overlapping clusters, so the engine and stream
//! suites only ever fold disjoint cluster lists. The public fold API accepts
//! arbitrary lists, and that is where the order of extensions, the per-step
//! candidate dedup and the fresh-chain rule interact. The generated units
//! here draw clusters from a handful of objects, so clusters overlap, repeat
//! each other's member sets, fall below `m` or come out empty; feed gaps,
//! empty units and interleaved evictions ride along. After every step the
//! open chains, the drained output and the counters must match the oracle
//! exactly and in order.

use convoy_core::{CmcState, CmcStateSnapshot, CmcStats, Convoy, ConvoyQuery, PartitionClusters};
use proptest::prelude::*;
use std::collections::HashSet;
use traj_cluster::Cluster;
use trajectory::{ObjectId, TimeInterval, TimePoint};

/// The all-pairs CMC fold: the `CmcState` bookkeeping with the nested
/// candidate × cluster loop and a set-based per-step dedup, over units
/// `[start, end]` — a tick is `[t, t]`, a λ-partition its window.
struct AllPairsCmc {
    query: ConvoyQuery,
    current: Vec<Convoy>,
    closed: Vec<Convoy>,
    peak_candidates: usize,
    last_tick: Option<TimePoint>,
    ticks_ingested: u64,
    gap_closures: u64,
    convoys_closed: u64,
}

impl AllPairsCmc {
    fn new(query: ConvoyQuery) -> Self {
        AllPairsCmc {
            query,
            current: Vec::new(),
            closed: Vec::new(),
            peak_candidates: 0,
            last_tick: None,
            ticks_ingested: 0,
            gap_closures: 0,
            convoys_closed: 0,
        }
    }

    fn close(&mut self, candidate: Convoy) {
        if candidate.lifetime() >= self.query.k as i64 {
            self.closed.push(candidate);
            self.convoys_closed += 1;
        }
    }

    fn ingest_clusters(&mut self, t: TimePoint, clusters: &[Cluster]) {
        self.ingest_unit(t, t, clusters);
    }

    fn ingest_partition(&mut self, partition: &PartitionClusters) {
        self.ingest_unit(
            partition.window.start,
            partition.window.end,
            &partition.clusters,
        );
    }

    fn ingest_unit(&mut self, start: TimePoint, end: TimePoint, clusters: &[Cluster]) {
        if let Some(last) = self.last_tick {
            if start > last + 1 {
                self.gap_closures += self.current.len() as u64;
                for candidate in std::mem::take(&mut self.current) {
                    self.close(candidate);
                }
            }
        }
        self.last_tick = Some(end);
        self.ticks_ingested += 1;

        let mut next = Vec::new();
        let mut seen: HashSet<(Cluster, TimePoint)> = HashSet::new();
        let mut assigned = vec![false; clusters.len()];
        for candidate in std::mem::take(&mut self.current) {
            let mut extended = false;
            for (ci, cluster) in clusters.iter().enumerate() {
                let common = candidate.objects.intersection(cluster);
                if common.len() >= self.query.m {
                    extended = true;
                    assigned[ci] = true;
                    if seen.insert((common.clone(), candidate.start)) {
                        next.push(Convoy {
                            objects: common,
                            start: candidate.start,
                            end: end.max(candidate.end),
                        });
                    }
                }
            }
            if !extended {
                self.close(candidate);
            }
        }
        for (ci, cluster) in clusters.iter().enumerate() {
            if !assigned[ci] && seen.insert((cluster.clone(), start)) {
                next.push(Convoy::new(cluster.clone(), start, end));
            }
        }
        self.current = next;
        self.peak_candidates = self.peak_candidates.max(self.current.len());
    }

    fn close_started_before(&mut self, cutoff: TimePoint) -> usize {
        let (old, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.current)
            .into_iter()
            .partition(|c| c.start < cutoff);
        self.current = kept;
        let closed = old.len();
        for candidate in old {
            self.close(candidate);
        }
        closed
    }

    fn evict_longer_than(&mut self, max_lifetime: i64) -> usize {
        let (doomed, kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.current)
            .into_iter()
            .partition(|c| c.lifetime() >= max_lifetime);
        self.current = kept;
        let evicted = doomed.len();
        for candidate in doomed {
            self.close(candidate);
        }
        evicted
    }

    fn evict_to_capacity(&mut self, max_candidates: usize) -> usize {
        let excess = self.current.len().saturating_sub(max_candidates);
        let mut by_age: Vec<usize> = (0..self.current.len()).collect();
        by_age.sort_by_key(|&i| (self.current[i].start, i));
        let doomed: HashSet<usize> = by_age.into_iter().take(excess).collect();
        for (i, candidate) in std::mem::take(&mut self.current).into_iter().enumerate() {
            if doomed.contains(&i) {
                self.close(candidate);
            } else {
                self.current.push(candidate);
            }
        }
        excess
    }

    fn snapshot(&self) -> CmcStateSnapshot {
        CmcStateSnapshot {
            current: self.current.clone(),
            closed: self.closed.clone(),
            peak_candidates: self.peak_candidates,
            last_tick: self.last_tick,
            ticks_ingested: self.ticks_ingested,
            gap_closures: self.gap_closures,
            convoys_closed: self.convoys_closed,
        }
    }

    fn stats(&self) -> CmcStats {
        CmcStats {
            peak_candidates: self.peak_candidates,
            ticks_ingested: self.ticks_ingested,
            gap_closures: self.gap_closures,
            convoys_closed: self.convoys_closed,
        }
    }
}

/// One generated step: `kind` picks the operation, `param` sizes it, and
/// `clusters` are the (possibly overlapping) member lists of a unit.
type Step = (u8, usize, Vec<Vec<u64>>);

/// Up to five clusters of up to five members from an eight-object universe:
/// overlaps and repeated member sets are the norm, and clusters below `m`
/// and empty clusters are common.
fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u8..12,
            0usize..4,
            proptest::collection::vec(proptest::collection::vec(0u64..8, 0..6), 0..6),
        ),
        1..40,
    )
}

fn clusters_of(lists: &[Vec<u64>]) -> Vec<Cluster> {
    lists
        .iter()
        .map(|ids| Cluster::new(ids.iter().map(|&i| ObjectId(i)).collect()))
        .collect()
}

/// `m = 0` is outside what [`ConvoyQuery::new`] builds but the fields are
/// public, so the fold must treat it like the all-pairs loop does too.
fn query(m: usize, k: usize) -> ConvoyQuery {
    ConvoyQuery {
        m,
        ..ConvoyQuery::new(1, k, 1.0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_cmc_fold_matches_the_all_pairs_loop(
        m in 0usize..4,
        k in 1usize..4,
        steps in arb_steps()
    ) {
        let query = query(m, k);
        let mut state = CmcState::new(&query);
        let mut oracle = AllPairsCmc::new(query);
        let mut t: TimePoint = 0;
        for (i, (kind, param, lists)) in steps.iter().enumerate() {
            match kind {
                // Evictions between ticks, as the windowed stream does.
                9 => prop_assert_eq!(
                    state.evict_longer_than(*param as i64 + 1),
                    oracle.evict_longer_than(*param as i64 + 1)
                ),
                10 => prop_assert_eq!(
                    state.evict_to_capacity(*param),
                    oracle.evict_to_capacity(*param)
                ),
                _ => {
                    // Kind 8 skips ticks (a feed gap); kinds 0 and 1 are
                    // empty ticks.
                    t += if *kind == 8 { 2 + *param as i64 } else { 1 };
                    let clusters = if *kind < 2 { Vec::new() } else { clusters_of(lists) };
                    state.ingest_clusters(t, &clusters);
                    oracle.ingest_clusters(t, &clusters);
                }
            }
            prop_assert_eq!(
                &state.export_state().current,
                &oracle.current,
                "open chains diverged at step {}",
                i
            );
            if i % 3 == 0 {
                prop_assert_eq!(state.drain_closed(), std::mem::take(&mut oracle.closed));
            }
            prop_assert_eq!(state.stats(), oracle.stats(), "counters diverged at step {}", i);
        }
        prop_assert_eq!(state.export_state(), oracle.snapshot());
        let oracle_stats = {
            let current = std::mem::take(&mut oracle.current);
            for candidate in current {
                oracle.close(candidate);
            }
            oracle.stats()
        };
        let (convoys, stats) = state.finish_with_stats();
        prop_assert_eq!(convoys, oracle.closed);
        prop_assert_eq!(stats, oracle_stats);
    }

    #[test]
    fn indexed_chain_fold_matches_the_all_pairs_loop(
        m in 0usize..4,
        k in 1usize..8,
        steps in arb_steps()
    ) {
        let query = query(m, k);
        let mut chain = CmcState::new(&query);
        let mut oracle = AllPairsCmc::new(query);
        let mut start: TimePoint = 0;
        for (i, (kind, param, lists)) in steps.iter().enumerate() {
            if *kind >= 10 {
                let cutoff = start - *param as i64;
                prop_assert_eq!(
                    chain.close_started_before(cutoff),
                    oracle.close_started_before(cutoff)
                );
            } else {
                // Consecutive λ-partitions share their boundary point; kind 8
                // starts a window past it (a gap).
                if *kind == 8 {
                    start += 2 + *param as i64;
                }
                let end = start + 1 + *param as i64;
                let clusters = if *kind < 2 { Vec::new() } else { clusters_of(lists) };
                let partition = PartitionClusters {
                    window: TimeInterval::new(start, end),
                    clusters,
                };
                chain.ingest_partition(&partition);
                oracle.ingest_partition(&partition);
                start = end;
            }
            prop_assert_eq!(
                &chain.export_state().current,
                &oracle.current,
                "open chains diverged at step {}",
                i
            );
            if i % 3 == 0 {
                prop_assert_eq!(chain.drain_closed(), std::mem::take(&mut oracle.closed));
            }
            prop_assert_eq!(chain.export_state(), oracle.snapshot(), "state diverged at step {}", i);
        }
        for candidate in std::mem::take(&mut oracle.current) {
            oracle.close(candidate);
        }
        let (candidates, stats) = chain.finish_with_stats();
        prop_assert_eq!(candidates, oracle.closed);
        prop_assert_eq!(stats, oracle.stats());
    }
}
