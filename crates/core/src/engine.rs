//! The streaming + parallel convoy engine.
//!
//! Algorithm 1 (CMC) is both the exact baseline and the inner loop of CuTS
//! refinement, so this module factors it into composable pieces:
//!
//! * [`CmcState`] — the incremental core: ingest one snapshot (or one tick's
//!   clusters), emit the convoys that closed at that tick. Every engine, the
//!   CuTS refinement step and streaming ingest all fold through this one
//!   state machine, and so does the CuTS filter: its chaining of λ-partition
//!   clusters into candidates (Algorithm 2) is the same extend-or-close step
//!   over a window instead of a tick ([`CmcState::ingest_partition`]). There
//!   is a single implementation of the candidate bookkeeping (including the
//!   per-step candidate de-duplication), for ticks and partitions alike.
//! * [`CmcEngine`] — the execution strategy, run through
//!   [`CmcEngine::run_windowed_with_stats_obs`]: the swept single-pass
//!   cursor (one sequential loop over a [`SnapshotSweep`]) or the
//!   time-partitioned parallel driver.
//! * The parallel driver ([`CmcEngine::Parallel`]) splits the time domain
//!   into one contiguous partition per thread; each worker streams its
//!   partition with a [`SnapshotSweep`] and density-clusters every tick (the
//!   measured hot path of CMC). The per-tick clusters are then folded through
//!   a single [`CmcState`] in time order, which stitches candidate chains
//!   across partition boundaries: a chain open at the end of partition *z*
//!   simply keeps extending into the clusters of partition *z + 1*.
//!
//! Why the fold is sequential: Algorithm 1 starts a fresh candidate from a
//! cluster only when the cluster extended **no** existing candidate, so chain
//! creation depends on every candidate alive at that tick — including chains
//! begun in earlier partitions. Folding partitions independently and joining
//! their candidate sets afterwards can therefore both invent chains the
//! sequential algorithm never starts and miss convoys whose chains die midway
//! through a partition. Clustering carries no such coupling, which is exactly
//! why it parallelises cleanly while the fold keeps the paper's semantics
//! bit-for-bit.
//!
//! The fold is only cheap because of its index. Intersecting every open
//! candidate with every cluster of the tick, as Algorithm 1 is written, took
//! 3.09 s of the 3.68 s engine time on the ledger's `downtown-dense-cmc`
//! workload (2-thread parallel engine, seed 11, 2-vCPU Xeon) and held the
//! parallel speedup at 1.02×. [`CmcState::ingest_clusters`] instead joins
//! candidates with clusters on object id through a per-tick object → cluster
//! index and intersects only the pairs that keep at least `m` objects: the
//! same run folds in 0.09 s of 0.52 s, a 1.55× speedup.

use crate::candidate::OverlapIndex;
use crate::cuts::partition::PartitionClusters;
use crate::metrics::FoldWork;
use crate::query::{Convoy, ConvoyQuery};
use convoy_obs::{Obs, SpanId};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use traj_cluster::{Cluster, ClusterCounts, SnapshotClusterer};
use trajectory::{
    Snapshot, SnapshotPolicy, SnapshotSweep, TimeInterval, TimePoint, TrajectoryDatabase,
};

/// The incremental CMC state machine: ingest snapshots (or pre-clustered
/// ticks) in time order, collect the convoys whose candidate chains close.
///
/// This is Algorithm 1 with the loop turned inside out, which is what makes
/// it usable beyond the batch setting: an unbounded feed (a live position
/// stream) can push one snapshot at a time and drain closed convoys as they
/// are discovered, without the whole time domain ever being materialized.
///
/// Time points must be ingested in increasing order. A tick with no clusters
/// closes every open candidate, exactly like an empty snapshot in the batch
/// algorithm — and a *skipped* tick (a feed outage) is treated the same way,
/// so no convoy ever spans time points the state never observed.
///
/// ```
/// use convoy_core::{CmcState, ConvoyQuery};
/// use trajectory::{ObjectId, SnapshotPolicy, Trajectory, TrajectoryDatabase};
///
/// let mut db = TrajectoryDatabase::new();
/// for i in 0..3u64 {
///     let traj = Trajectory::from_tuples(
///         (0..8).map(|t| (t as f64, i as f64 * 0.5, t as i64))).unwrap();
///     db.insert(ObjectId(i), traj);
/// }
/// let mut state = CmcState::new(&ConvoyQuery::new(3, 4, 1.5));
/// for snapshot in db.sweep(SnapshotPolicy::Interpolate) {
///     state.ingest_snapshot(&snapshot);
/// }
/// let convoys = state.finish();
/// assert_eq!(convoys.len(), 1);
/// assert_eq!(convoys[0].lifetime(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct CmcState {
    query: ConvoyQuery,
    current: Vec<Convoy>,
    closed: Vec<Convoy>,
    peak_candidates: usize,
    last_tick: Option<TimePoint>,
    ticks_ingested: u64,
    gap_closures: u64,
    convoys_closed: u64,
    /// Reusable snapshot-clustering scratch: one grid index + DBSCAN state
    /// per fold, so [`CmcState::ingest_snapshot`] allocates nothing in
    /// steady state.
    clusterer: SnapshotClusterer,
    /// Double buffer for the per-step candidate turnover (swapped with
    /// `current` at the end of every fold step, tick or partition).
    next: Vec<Convoy>,
    /// Per-tick dedup index over `next`: hash of `(objects, start)` → first
    /// `next` index with that hash; `dedup_chain[i]` links further entries
    /// sharing the hash (`u32::MAX` terminates). Exact — a hash hit is
    /// always confirmed by full equality — but clone-free, unlike the old
    /// `HashSet<(Cluster, TimePoint)>` which cloned every candidate's
    /// object vector per tick.
    dedup_heads: HashMap<u64, u32>,
    dedup_chain: Vec<u32>,
    /// Per-tick "cluster extended some candidate" flags.
    assigned: Vec<bool>,
    /// Per-tick object → cluster index: each candidate intersects only the
    /// clusters it shares at least `m` objects with.
    index: OverlapIndex,
    /// Member buffers of consumed chains, reused by the candidates later
    /// ticks grow or create, so a warmed fold whose chains merely turn over
    /// allocates nothing. It only ever holds buffers that once backed open
    /// chains, so it is bounded by the working set.
    spare: Vec<Cluster>,
    /// The fold's own work since the last [`CmcState::take_work`] (its
    /// `cluster` counts live in the clusterer).
    work: FoldWork,
    /// Handle for the per-tick `cmc.*` histograms and gauge (off by
    /// default; one branch per tick when disabled, so the hot-path contract
    /// holds either way).
    obs: Obs,
}

/// Counters describing a [`CmcState`]'s life so far — the observability
/// surface for long or unbounded feeds, where the interesting questions are
/// "how big did the working set get", "how much of the stream have we seen"
/// and "how often did feed outages cut chains short".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CmcStats {
    /// Largest number of simultaneously open candidate chains observed (a
    /// bound on the per-tick working set; see
    /// [`CmcState::peak_candidates`]).
    pub peak_candidates: usize,
    /// Number of ticks ingested via [`CmcState::ingest_snapshot`] /
    /// [`CmcState::ingest_clusters`] (partitions, for a fold driven by
    /// [`CmcState::ingest_partition`]).
    pub ticks_ingested: u64,
    /// Number of candidate chains force-closed because a tick was *skipped*
    /// (the feed-outage path): an unobserved tick closes every open chain,
    /// whether or not it qualified as a convoy.
    pub gap_closures: u64,
    /// Total convoys that satisfied the lifetime constraint and closed,
    /// including ones already taken by [`CmcState::drain_closed`].
    pub convoys_closed: u64,
}

/// A serializable view of a [`CmcState`]'s resumable state: the open
/// candidate chains, the not-yet-drained output, and the lifetime counters.
/// Per-tick scratch (the clusterer, the dedup index, the double buffer) is
/// deliberately absent — a restored state rebuilds it empty, which is
/// output-neutral.
#[derive(Debug, Clone, PartialEq)]
pub struct CmcStateSnapshot {
    /// Open candidate chains, in fold order.
    pub current: Vec<Convoy>,
    /// Convoys closed but not yet drained.
    pub closed: Vec<Convoy>,
    /// Largest number of simultaneously open chains observed.
    pub peak_candidates: usize,
    /// The last ingested tick (the last window's end, for partitions).
    pub last_tick: Option<TimePoint>,
    /// Number of ticks (or partitions) ingested so far.
    pub ticks_ingested: u64,
    /// Chains force-closed by feed gaps.
    pub gap_closures: u64,
    /// Convoys closed over the state's lifetime.
    pub convoys_closed: u64,
}

impl CmcState {
    /// Creates an empty state for `query`.
    pub fn new(query: &ConvoyQuery) -> Self {
        CmcState {
            query: *query,
            current: Vec::new(),
            closed: Vec::new(),
            peak_candidates: 0,
            last_tick: None,
            ticks_ingested: 0,
            gap_closures: 0,
            convoys_closed: 0,
            clusterer: SnapshotClusterer::new(),
            next: Vec::new(),
            dedup_heads: HashMap::new(),
            dedup_chain: Vec::new(),
            assigned: Vec::new(),
            index: OverlapIndex::default(),
            spare: Vec::new(),
            work: FoldWork::default(),
            obs: Obs::noop(),
        }
    }

    /// Attaches a metrics recorder: the per-tick `cmc.clusters_per_tick` /
    /// `cmc.candidates_per_tick` histograms and `cmc.candidates_open` gauge,
    /// plus the `cluster.call_ns` latency histogram of the internal
    /// [`SnapshotClusterer`]. Counts are not recorded here: they stay in the
    /// state ([`CmcState::stats`], [`CmcState::take_work`]). The default is
    /// the no-op recorder, which keeps every instrumented path at a single
    /// branch.
    pub fn set_obs(&mut self, obs: Obs) {
        self.clusterer.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Nanoseconds spent density-clustering so far (0 unless a live recorder
    /// is attached): the internal clusterer's
    /// [`SnapshotClusterer::call_ns_total`]. The engines subtract this from
    /// their fold total to split the `cmc.cluster` and `cmc.fold` stage
    /// spans.
    pub fn cluster_time_ns(&self) -> u64 {
        self.clusterer.call_ns_total()
    }

    /// Ingests the snapshot of one time point: density-clusters it and folds
    /// the clusters into the candidate chains. The clustering reuses the
    /// state's internal [`SnapshotClusterer`], so a long-lived fold stops
    /// allocating once its buffers reach the stream's working-set size.
    pub fn ingest_snapshot(&mut self, snapshot: &Snapshot) {
        if snapshot.len() < self.query.m {
            self.ingest_clusters(snapshot.time, &[]);
            return;
        }
        // Detach the clusterer so its borrowed output can be fed back into
        // `self` (a plain move of empty-capacity headers, no allocation).
        let mut clusterer = std::mem::take(&mut self.clusterer);
        let clusters = clusterer.cluster_into(snapshot, self.query.e, self.query.m);
        self.ingest_clusters(snapshot.time, clusters);
        self.clusterer = clusterer;
    }

    /// Folds one tick's clusters into the candidate chains (Algorithm 1,
    /// lines 5–11). Candidates that fail to extend and satisfy the lifetime
    /// constraint are moved to the closed set.
    ///
    /// Candidates are de-duplicated per step on `(objects, start)`: two
    /// chains that converge to the same member set and begin at the same
    /// tick are indistinguishable from that point on, so keeping both would
    /// multiply the candidate set every subsequent tick. Disjoint DBSCAN
    /// partitions never converge this way, but this entry point accepts
    /// *arbitrary* cluster lists (overlapping communities, merged partition
    /// clusters, hand-fed streams), where the blow-up is real.
    ///
    /// Ticks must arrive in strictly increasing order (debug-asserted). A
    /// **gap** — `t` more than one tick after the previous ingest, e.g. a
    /// live feed dropping ticks during an outage — closes every open
    /// candidate first: an unobserved tick has no clusters, and a convoy must
    /// be density-connected at *every* time point of its interval, so no
    /// chain may silently span ticks the state never saw.
    pub fn ingest_clusters(&mut self, t: TimePoint, clusters: &[Cluster]) {
        debug_assert!(
            self.last_tick.is_none_or(|last| last < t),
            "ticks must be ingested in increasing order"
        );
        self.fold_unit(t, t, clusters);
    }

    /// Folds one λ-partition's clusters into the candidate chains: the
    /// chaining half of the CuTS filter (Algorithm 2, lines 13–22), the same
    /// extend-or-close step as [`CmcState::ingest_clusters`] over a window
    /// instead of a tick. A fresh chain spans the window; an extended chain
    /// ends at the window's end. The closed chains are *candidates* at
    /// partition granularity, which the refinement then verifies.
    ///
    /// Windows must arrive in order and contiguous: each starts on the
    /// previous window's end, as consecutive [`trajectory::TimePartition`]
    /// windows share their boundary point (debug-asserted to never start
    /// before it). A window that starts later leaves a gap, which closes the
    /// open chains and counts as [`CmcStats::gap_closures`] exactly as a
    /// skipped tick does.
    pub fn ingest_partition(&mut self, partition: &PartitionClusters) {
        let window = partition.window;
        debug_assert!(
            self.last_tick.is_none_or(|last| last <= window.start),
            "partitions must be ingested in window order"
        );
        self.fold_unit(window.start, window.end, &partition.clusters);
    }

    /// The fold step behind both entry points: extends the open chains with
    /// the clusters observed over the unit `[start, end]`, closes the ones
    /// that fail to extend and starts a chain from every cluster that
    /// extended none. A unit that starts more than one point after the
    /// previous unit's end first closes every open chain (a gap).
    // lint: hot-path — the per-tick fold reuses its scratch buffers; steady state must not allocate
    fn fold_unit(&mut self, start: TimePoint, end: TimePoint, clusters: &[Cluster]) {
        if self
            .last_tick
            .is_some_and(|last| start.saturating_sub(last) > 1)
        {
            self.gap_closures += self.current.len() as u64;
            self.close_all_candidates();
        }
        self.last_tick = Some(end);
        self.ticks_ingested = self.ticks_ingested.saturating_add(1);

        self.next.clear();
        self.dedup_heads.clear();
        self.dedup_chain.clear();
        self.assigned.clear();
        self.assigned.resize(clusters.len(), false);
        let k = self.query.k as i64;
        let m = self.query.m;
        let probing = !self.current.is_empty() && !clusters.is_empty();
        if probing {
            self.index.rebuild(clusters);
        }
        let mut lookups = 0u64;
        let mut extensions = 0u64;

        for candidate in self.current.drain(..) {
            let extending: &[usize] = if probing {
                lookups += candidate.objects.len() as u64;
                self.index.extending(&candidate.objects, m)
            } else {
                &[]
            };
            extensions += extending.len() as u64;
            for &ci in extending {
                self.assigned[ci] = true;
                let spare = self.spare.pop().unwrap_or_default();
                let grown = candidate.extended(&clusters[ci], end, spare);
                if dedup_register(
                    &mut self.dedup_heads,
                    &mut self.dedup_chain,
                    &self.next,
                    &grown.objects,
                    grown.start,
                ) {
                    self.next.push(grown);
                } else {
                    self.spare.push(grown.objects);
                }
            }
            if extending.is_empty() && candidate.lifetime() >= k {
                self.closed.push(candidate);
                self.convoys_closed += 1;
            } else {
                self.spare.push(candidate.objects);
            }
        }

        for (ci, cluster) in clusters.iter().enumerate() {
            if !self.assigned[ci]
                && dedup_register(
                    &mut self.dedup_heads,
                    &mut self.dedup_chain,
                    &self.next,
                    cluster,
                    start,
                )
            {
                // The dedup check above runs on the borrowed cluster, so
                // duplicates never copy; new candidates reuse the member
                // buffers of the chains this unit consumed.
                let mut objects = self.spare.pop().unwrap_or_default();
                objects.clone_from(cluster);
                self.next.push(Convoy::new(objects, start, end));
            }
        }

        std::mem::swap(&mut self.current, &mut self.next);
        self.peak_candidates = self.peak_candidates.max(self.current.len());
        self.work.overlap_lookups += lookups;
        self.work.extensions += extensions;

        if self.obs.enabled() {
            // All names are pre-registered after the first tick, so the
            // steady state of a live registry allocates nothing here.
            self.obs
                .histogram_record("cmc.clusters_per_tick", clusters.len() as u64);
            self.obs
                .histogram_record("cmc.candidates_per_tick", self.current.len() as u64);
            let open = i64::try_from(self.current.len()).unwrap_or(i64::MAX);
            self.obs.gauge_set("cmc.candidates_open", open);
        }
    }

    /// Closes every open candidate (what an empty tick does), reporting the
    /// ones that satisfy the lifetime constraint.
    fn close_all_candidates(&mut self) {
        self.close_where(|_| true);
    }

    /// Number of candidate chains currently open.
    pub fn active_candidates(&self) -> usize {
        self.current.len()
    }

    /// The last ingested tick (the last window's end, for partitions), or
    /// `None` before the first ingest.
    pub fn last_tick(&self) -> Option<TimePoint> {
        self.last_tick
    }

    /// The largest number of simultaneously open candidate chains observed so
    /// far (a bound on the per-tick working set).
    pub fn peak_candidates(&self) -> usize {
        self.peak_candidates
    }

    /// The state's lifetime counters: peak working-set size, ticks ingested,
    /// chains force-closed by feed gaps, and convoys closed so far. Cheap to
    /// call at any point of a stream (counters survive
    /// [`CmcState::drain_closed`]).
    pub fn stats(&self) -> CmcStats {
        CmcStats {
            peak_candidates: self.peak_candidates,
            ticks_ingested: self.ticks_ingested,
            gap_closures: self.gap_closures,
            convoys_closed: self.convoys_closed,
        }
    }

    /// Hands out the work this state has done since the last call — its
    /// clusterer's counts, overlap lookups and extensions — and restarts
    /// the count. Session counts: [`CmcState::export_state`] does not carry
    /// them, so a restored state starts from zero.
    pub fn take_work(&mut self) -> FoldWork {
        FoldWork {
            cluster: self.clusterer.take_counts(),
            ..std::mem::take(&mut self.work)
        }
    }

    /// Takes the convoys that have closed since the last drain, leaving the
    /// open candidates untouched. This is the streaming consumption path: an
    /// unbounded feed ingests ticks forever and drains results periodically.
    pub fn drain_closed(&mut self) -> Vec<Convoy> {
        std::mem::take(&mut self.closed)
    }

    /// Force-closes every open candidate whose lifetime has reached
    /// `max_lifetime` ticks, reporting the ones that satisfy `k`. Returns the
    /// number of candidates closed.
    ///
    /// This is the horizon half of windowed eviction on an unbounded feed:
    /// called *before* a tick extends the chains, it guarantees no open (and
    /// hence no reported) chain ever exceeds `max_lifetime` ticks, bounding
    /// both memory and result latency. A candidate at exactly the horizon is
    /// closed intact, not dropped.
    pub fn evict_longer_than(&mut self, max_lifetime: i64) -> usize {
        self.close_where(|candidate| candidate.lifetime() >= max_lifetime)
    }

    /// Closes the open chains that started before `cutoff`, reporting those
    /// that satisfy the lifetime constraint. Returns the number of chains
    /// closed. This is the coarse-filter side of windowed eviction: a
    /// long-lived feed must not keep partition chains from an unbounded past
    /// open.
    pub fn close_started_before(&mut self, cutoff: TimePoint) -> usize {
        self.close_where(|candidate| candidate.start < cutoff)
    }

    /// Closes the open candidates matching `doomed`, keeping the others in
    /// order and reporting the closed ones that satisfy `k`. Returns the
    /// number closed.
    fn close_where(&mut self, mut doomed: impl FnMut(&Convoy) -> bool) -> usize {
        let k = self.query.k as i64;
        let mut closed = 0;
        for candidate in std::mem::take(&mut self.current) {
            if !doomed(&candidate) {
                self.current.push(candidate);
                continue;
            }
            closed += 1;
            if candidate.lifetime() >= k {
                self.closed.push(candidate);
                self.convoys_closed += 1;
            }
        }
        closed
    }

    /// Force-closes the oldest open candidates (smallest start, ties broken
    /// by insertion order) until at most `max_candidates` remain, reporting
    /// the ones that satisfy `k`. Returns the number closed.
    ///
    /// This is the backpressure half of windowed eviction: a burst of
    /// overlapping clusters cannot grow the working set beyond the
    /// configured bound.
    pub fn evict_to_capacity(&mut self, max_candidates: usize) -> usize {
        if self.current.len() <= max_candidates {
            return 0;
        }
        let excess = self.current.len() - max_candidates;
        // Indices of the `excess` oldest candidates, deterministic under ties.
        let mut by_age: Vec<usize> = (0..self.current.len()).collect();
        by_age.sort_by_key(|&i| (self.current[i].start, i));
        let mut doomed = vec![false; self.current.len()];
        for &i in by_age.iter().take(excess) {
            doomed[i] = true;
        }
        // `close_where` visits the candidates in order.
        let mut doomed = doomed.into_iter();
        self.close_where(|_| doomed.next().unwrap_or(false));
        excess
    }

    /// Exports the resumable state for checkpointing. The inverse of
    /// [`CmcState::from_state`]: `from_state(q, s.export_state())` continues
    /// bit-identically to `s` under the same ingest sequence.
    pub fn export_state(&self) -> CmcStateSnapshot {
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

    /// Rebuilds a state for `query` from an exported view, with fresh (empty)
    /// scratch buffers.
    pub fn from_state(query: &ConvoyQuery, snapshot: CmcStateSnapshot) -> Self {
        let mut state = CmcState::new(query);
        state.current = snapshot.current;
        state.closed = snapshot.closed;
        state.peak_candidates = snapshot.peak_candidates;
        state.last_tick = snapshot.last_tick;
        state.ticks_ingested = snapshot.ticks_ingested;
        state.gap_closures = snapshot.gap_closures;
        state.convoys_closed = snapshot.convoys_closed;
        state
    }

    /// Ends the stream: flushes candidates still open (the window boundary
    /// closes them) and returns every convoy not yet drained.
    pub fn finish(self) -> Vec<Convoy> {
        self.finish_with_stats().0
    }

    /// Like [`CmcState::finish`], but also returns the state's lifetime
    /// counters (which include the convoys closed by this final flush).
    pub fn finish_with_stats(mut self) -> (Vec<Convoy>, CmcStats) {
        self.close_all_candidates();
        let stats = self.stats();
        (self.closed, stats)
    }
}

/// Registers `(objects, start)` in a tick's candidate-dedup index. Returns
/// `true` when the pair was new — the caller must then push the candidate
/// onto `next` (the registration reserves exactly that index); `false`
/// means an equal candidate is already in `next`.
///
/// The index is a hash-head map plus an intra-`next` collision chain: a
/// hash hit is always confirmed by full `(objects, start)` equality against
/// the stored candidates, so the dedup is exact without ever cloning an
/// object vector into a set (the old `HashSet<(Cluster, TimePoint)>`
/// cloned every surviving candidate's members once per tick).
fn dedup_register(
    heads: &mut HashMap<u64, u32>,
    chain: &mut Vec<u32>,
    next: &[Convoy],
    objects: &Cluster,
    start: TimePoint,
) -> bool {
    debug_assert_eq!(chain.len(), next.len());
    let mut hasher = DefaultHasher::new();
    objects.members().hash(&mut hasher);
    start.hash(&mut hasher);
    // lint: allow(cast-audit) — candidate list length is bounded far below u32::MAX (object-count bound + eviction)
    let idx = next.len() as u32;
    match heads.entry(hasher.finish()) {
        Entry::Occupied(head) => {
            let mut i = *head.get();
            loop {
                let existing = &next[i as usize];
                if existing.start == start && existing.objects == *objects {
                    return false;
                }
                let link = chain[i as usize];
                if link == u32::MAX {
                    break;
                }
                i = link;
            }
            chain[i as usize] = idx;
            chain.push(u32::MAX);
            true
        }
        Entry::Vacant(slot) => {
            slot.insert(idx);
            chain.push(u32::MAX);
            true
        }
    }
}

/// How a CMC run extracts and processes snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CmcEngine {
    /// Stream snapshots from one sorted sweep over all samples
    /// ([`SnapshotSweep`]) and fold them incrementally. The default.
    #[default]
    Swept,
    /// Time-partitioned parallel clustering with stitched folding (see the
    /// module docs). `threads == 0` means "use all available cores".
    Parallel {
        /// Number of worker threads (0 = `std::thread::available_parallelism`,
        /// clamped to [`MAX_PARALLEL_THREADS`]).
        threads: usize,
    },
}

/// Hard cap on worker threads spawned by the parallel driver. Partitioning
/// beyond this brings no speedup (the fold is sequential anyway) and an
/// unbounded user-supplied count would hit the OS thread limit and panic.
pub const MAX_PARALLEL_THREADS: usize = 64;

impl CmcEngine {
    /// Display name used by reports and benchmarks.
    pub fn name(&self) -> &'static str {
        match self {
            CmcEngine::Swept => "swept",
            CmcEngine::Parallel { .. } => "parallel",
        }
    }

    /// The number of worker threads this engine will actually use (before
    /// the data-dependent clamp to the window's tick count): 1 for the
    /// swept engine; for the parallel driver the requested count (`0`
    /// meaning every available core), clamped to [`MAX_PARALLEL_THREADS`].
    pub fn resolved_threads(&self) -> usize {
        match *self {
            CmcEngine::Parallel { threads: 0 } => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(MAX_PARALLEL_THREADS),
            CmcEngine::Parallel { threads } => threads.min(MAX_PARALLEL_THREADS),
            _ => 1,
        }
    }

    /// Runs CMC over the whole time domain of `db` with this engine.
    pub fn run(&self, db: &TrajectoryDatabase, query: &ConvoyQuery) -> Vec<Convoy> {
        db.time_domain()
            .map_or_else(Vec::new, |w| self.run_windowed_with_stats(db, query, w).0)
    }

    /// Runs CMC over `window` with this engine, returning the convoys and
    /// the counters of the [`CmcState`] fold that produced them — every
    /// engine, the parallel driver included, folds through
    /// exactly one state machine, so the counters are engine-independent.
    pub fn run_windowed_with_stats(
        &self,
        db: &TrajectoryDatabase,
        query: &ConvoyQuery,
        window: TimeInterval,
    ) -> (Vec<Convoy>, CmcStats) {
        let (convoys, stats, _) =
            self.run_windowed_with_stats_obs(db, query, window, &Obs::noop(), SpanId::NONE);
        (convoys, stats)
    }

    /// Like [`CmcEngine::run_windowed_with_stats`], also returning the run's
    /// [`FoldWork`] (every clusterer's counts summed, the parallel workers'
    /// included) and recording into `obs` the per-tick histograms of the
    /// fold and one root span per engine (child of `parent`):
    ///
    /// * `cmc.swept` → `cmc.sweep`, `cmc.cluster`,
    ///   `cmc.fold` (accumulated stage totals);
    /// * `cmc.parallel` → one `cmc.partition` per worker, then `cmc.fold`.
    ///
    /// The parallel driver falls back to the `cmc.swept` tree when there is
    /// nothing to split. With the no-op recorder this is exactly
    /// [`CmcEngine::run_windowed_with_stats`] — the result is identical
    /// either way.
    pub fn run_windowed_with_stats_obs(
        &self,
        db: &TrajectoryDatabase,
        query: &ConvoyQuery,
        window: TimeInterval,
        obs: &Obs,
        parent: SpanId,
    ) -> (Vec<Convoy>, CmcStats, FoldWork) {
        let sweep = |w| SnapshotSweep::new(db, w, SnapshotPolicy::Interpolate);
        self.run_sweep(sweep, query, window, obs, parent)
    }

    /// The one CMC implementation every run function delegates to: folds
    /// the snapshots `sweep(window)` yields with this engine. The parallel
    /// driver calls `sweep` once per sub-window, each from its worker
    /// thread, so `sweep(w)` must yield exactly the ticks of `w` that
    /// `sweep(window)` would. CMC sweeps every object on its sampled
    /// interval; the CuTS refinement sweeps the filter's coverage
    /// ([`crate::cuts::refine`]).
    pub(crate) fn run_sweep<'a>(
        &self,
        sweep: impl Fn(TimeInterval) -> SnapshotSweep<'a> + Sync,
        query: &ConvoyQuery,
        window: TimeInterval,
        obs: &Obs,
        parent: SpanId,
    ) -> (Vec<Convoy>, CmcStats, FoldWork) {
        match *self {
            CmcEngine::Swept => sequential(sweep(window), query, obs, parent),
            CmcEngine::Parallel { .. } => {
                parallel(&sweep, query, window, self.resolved_threads(), obs, parent)
            }
        }
    }
}

/// The swept engine: folds `snapshots` through one [`CmcState`] under a
/// `cmc.swept` root span.
///
/// Sweep, clustering and fold interleave per tick, so with a live recorder
/// their accumulated totals are re-laid as three synthetic child spans
/// (`cmc.sweep` → `cmc.cluster` → `cmc.fold`) end to end from the run's
/// start — the proportions are exact, the wall-clock positions are not (see
/// the crate docs of `convoy_obs`).
fn sequential(
    mut snapshots: impl Iterator<Item = Snapshot>,
    query: &ConvoyQuery,
    obs: &Obs,
    parent: SpanId,
) -> (Vec<Convoy>, CmcStats, FoldWork) {
    let engine_span = obs.span_start("cmc.swept", parent);
    let run_start_ns = obs.now_ns();
    let live = obs.enabled();
    let mut state = CmcState::new(query);
    state.set_obs(obs.clone());
    let mut sweep_ns = 0u64;
    let mut ingest_ns = 0u64;
    loop {
        let sweep_from_ns = if live { obs.now_ns() } else { 0 };
        let Some(snapshot) = snapshots.next() else {
            break;
        };
        let ingest_from_ns = if live { obs.now_ns() } else { 0 };
        state.ingest_snapshot(&snapshot);
        if live {
            sweep_ns = sweep_ns.saturating_add(ingest_from_ns.saturating_sub(sweep_from_ns));
            ingest_ns = ingest_ns.saturating_add(obs.now_ns().saturating_sub(ingest_from_ns));
        }
    }
    let cluster_ns = state.cluster_time_ns();
    let work = state.take_work();
    let (convoys, stats) = state.finish_with_stats();
    if live {
        let fold_ns = ingest_ns.saturating_sub(cluster_ns);
        let mut cursor_ns = run_start_ns;
        for (name, dur_ns) in [
            ("cmc.sweep", sweep_ns),
            ("cmc.cluster", cluster_ns),
            ("cmc.fold", fold_ns),
        ] {
            obs.span_at(name, engine_span, cursor_ns, dur_ns);
            cursor_ns = cursor_ns.saturating_add(dur_ns);
        }
    }
    obs.span_end(engine_span);
    (convoys, stats, work)
}

/// Splits `window` into `parts` contiguous, disjoint sub-windows whose sizes
/// differ by at most one tick.
fn split_window(window: TimeInterval, parts: usize) -> Vec<TimeInterval> {
    let total = window.num_points();
    let parts = (parts as i64).clamp(1, total);
    let base = total / parts;
    let remainder = total % parts;
    let mut out = Vec::with_capacity(parts as usize);
    let mut start = window.start;
    for i in 0..parts {
        let len = base + i64::from(i < remainder);
        // Saturating keeps the endpoints ordered even for windows spanning
        // the full tick range (where `num_points` saturates).
        let end = start.saturating_add(len - 1).min(window.end);
        out.push(TimeInterval::new(start, end));
        start = end.saturating_add(1);
    }
    out
}

/// Runs CMC over `window` with time-partitioned parallel clustering on
/// `threads` (already resolved) workers.
///
/// Each worker thread sweeps one contiguous partition of the window and
/// density-clusters every tick — snapshot extraction plus DBSCAN, the part of
/// CMC that dominates its runtime and carries no cross-tick dependency. The
/// per-tick cluster lists are then folded through a single [`CmcState`] in
/// time order, carrying open candidate chains across partition boundaries,
/// so the result is identical to the sequential algorithm (see the module
/// docs for why the fold itself must stay ordered). With one thread (or a
/// one-tick window) this degrades to the swept sequential engine.
///
/// Spans: a `cmc.parallel` root, one *real* `cmc.partition` span per worker
/// thread (each worker density-clusters with its own recorder-attached
/// scratch, so `cluster.call_ns` accrues from all workers), and a real
/// `cmc.fold` span over the sequential stitch. Each worker hands back its
/// clusterer's counts; the run's [`FoldWork`] sums them at join.
fn parallel<'a>(
    sweep: &(impl Fn(TimeInterval) -> SnapshotSweep<'a> + Sync),
    query: &ConvoyQuery,
    window: TimeInterval,
    threads: usize,
    obs: &Obs,
    parent: SpanId,
) -> (Vec<Convoy>, CmcStats, FoldWork) {
    let partitions = split_window(window, threads);
    if partitions.len() <= 1 {
        return sequential(sweep(window), query, obs, parent);
    }
    let engine_span = obs.span_start("cmc.parallel", parent);

    type Worked = (Vec<(TimePoint, Vec<Cluster>)>, ClusterCounts);
    let clustered: Vec<Worked> = std::thread::scope(|scope| {
        let handles: Vec<_> = partitions
            .iter()
            .map(|&partition| {
                let obs = obs.clone();
                scope.spawn(move || {
                    let partition_span = obs.span_start("cmc.partition", engine_span);
                    // One clustering scratch per worker, reused across every
                    // tick of its partition; only the collected cluster
                    // lists themselves are materialized for the fold.
                    let mut clusterer = SnapshotClusterer::with_obs(obs.clone());
                    let out: Vec<(TimePoint, Vec<Cluster>)> = sweep(partition)
                        .map(|snapshot| {
                            let clusters = if snapshot.len() < query.m {
                                Vec::new()
                            } else {
                                clusterer.cluster_into(&snapshot, query.e, query.m).to_vec()
                            };
                            (snapshot.time, clusters)
                        })
                        .collect();
                    obs.span_end(partition_span);
                    (out, clusterer.take_counts())
                })
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(no-unwrap-in-lib) — re-raising a worker panic on the coordinating thread is the intent
            .map(|h| h.join().expect("snapshot-clustering worker panicked"))
            .collect()
    });

    // Stitch: one state machine consumes the partitions in time order, so a
    // candidate chain open at a partition boundary keeps extending into the
    // next partition's clusters.
    let fold_span = obs.span_start("cmc.fold", engine_span);
    let mut state = CmcState::new(query);
    state.set_obs(obs.clone());
    for (partition, _) in &clustered {
        for (t, clusters) in partition {
            state.ingest_clusters(*t, clusters);
        }
    }
    let mut work = state.take_work();
    for (_, counts) in clustered {
        work.cluster += counts;
    }
    let (convoys, stats) = state.finish_with_stats();
    obs.span_end(fold_span);
    obs.span_end(engine_span);
    (convoys, stats, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::normalize_convoys;
    use trajectory::{ObjectId, Trajectory};

    fn cluster(ids: &[u64]) -> Cluster {
        Cluster::new(ids.iter().map(|i| ObjectId(*i)).collect())
    }

    fn convoy_db() -> TrajectoryDatabase {
        let mut db = TrajectoryDatabase::new();
        for lane in 0..3u64 {
            db.insert(
                ObjectId(lane),
                Trajectory::from_tuples((0..30).map(|t| (t as f64, lane as f64 * 0.5, t as i64)))
                    .unwrap(),
            );
        }
        db.insert(
            ObjectId(9),
            Trajectory::from_tuples((0..30).map(|t| (t as f64, 100.0, t as i64))).unwrap(),
        );
        db
    }

    #[test]
    fn every_engine_agrees_on_a_simple_convoy() {
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 5, 1.5);
        let reference = vec![Convoy::new(cluster(&[0, 1, 2]), 0, 29)];
        let window = db.time_domain().unwrap();
        let work_of = |engine: CmcEngine| {
            engine
                .run_windowed_with_stats_obs(&db, &query, window, &Obs::noop(), SpanId::NONE)
                .2
        };
        let swept_work = work_of(CmcEngine::Swept);
        // Every one of the 30 ticks holds all four objects and is clustered.
        assert_eq!(swept_work.cluster.points, 30 * 4);
        for engine in [
            CmcEngine::Swept,
            CmcEngine::Parallel { threads: 2 },
            CmcEngine::Parallel { threads: 3 },
            CmcEngine::Parallel { threads: 0 },
        ] {
            let got = normalize_convoys(engine.run(&db, &query), &query);
            assert_eq!(got, reference, "{} missed the convoy", engine.name());
            // The parallel driver sums its workers' counts at join.
            assert_eq!(work_of(engine), swept_work, "{}", engine.name());
        }
    }

    #[test]
    fn parallel_engine_stitches_convoys_across_partition_boundaries() {
        // One convoy spanning the whole 30-tick domain, split across 7
        // partitions: the chain must survive every boundary.
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 25, 1.5);
        let convoys =
            normalize_convoys(CmcEngine::Parallel { threads: 7 }.run(&db, &query), &query);
        assert_eq!(convoys.len(), 1);
        assert_eq!(convoys[0].start, 0);
        assert_eq!(convoys[0].end, 29);
    }

    #[test]
    fn parallel_with_more_threads_than_ticks_degrades_gracefully() {
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 5, 1.5);
        let window = TimeInterval::new(10, 12);
        let sequential = CmcEngine::Swept.run_windowed_with_stats(&db, &query, window);
        let parallel =
            CmcEngine::Parallel { threads: 64 }.run_windowed_with_stats(&db, &query, window);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn parallel_on_empty_database_returns_nothing() {
        let db = TrajectoryDatabase::new();
        let engine = CmcEngine::Parallel { threads: 4 };
        assert!(engine.run(&db, &ConvoyQuery::new(2, 2, 1.0)).is_empty());
    }

    #[test]
    fn engines_emit_their_documented_span_trees() {
        use convoy_obs::Registry;
        use std::sync::Arc;

        let db = convoy_db();
        let query = ConvoyQuery::new(3, 5, 1.5);
        let window = db.time_domain().unwrap();
        let stages: &[&str] = &["cmc.sweep", "cmc.cluster", "cmc.fold"];
        for (engine, root_name, children) in [
            (CmcEngine::Swept, "cmc.swept", stages),
            (
                CmcEngine::Parallel { threads: 2 },
                "cmc.parallel",
                &["cmc.partition", "cmc.partition", "cmc.fold"][..],
            ),
        ] {
            let registry = Arc::new(Registry::new());
            let obs = Obs::registry(registry.clone());
            let parent = obs.span_start("test", SpanId::NONE);
            let recorded = engine.run_windowed_with_stats_obs(&db, &query, window, &obs, parent);
            obs.span_end(parent);
            let unrecorded =
                engine.run_windowed_with_stats_obs(&db, &query, window, &Obs::noop(), SpanId::NONE);
            assert_eq!(
                recorded,
                unrecorded,
                "{} changed under recording",
                engine.name()
            );
            assert!(!recorded.0.is_empty());

            let spans = registry.spans();
            assert!(spans.iter().all(|s| s.closed), "{}", engine.name());
            let roots: Vec<_> = spans.iter().filter(|s| s.parent == parent.0).collect();
            assert_eq!(roots.len(), 1, "{}", engine.name());
            assert_eq!(roots[0].name, root_name);
            let child_names: Vec<&str> = spans
                .iter()
                .filter(|s| s.parent == roots[0].id)
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(child_names, children, "{}", engine.name());
        }
    }

    #[test]
    fn split_window_tiles_without_gaps_or_overlap() {
        for (len, parts) in [(10i64, 3usize), (7, 7), (5, 9), (1, 4), (100, 8)] {
            let window = TimeInterval::new(-3, -3 + len - 1);
            let chunks = split_window(window, parts);
            assert!(chunks.len() <= parts.max(1));
            assert_eq!(chunks.first().unwrap().start, window.start);
            assert_eq!(chunks.last().unwrap().end, window.end);
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end + 1, pair[1].start);
            }
            let covered: i64 = chunks.iter().map(TimeInterval::num_points).sum();
            assert_eq!(covered, window.num_points());
        }
    }

    #[test]
    fn streaming_drain_reports_convoys_as_they_close() {
        // Objects 0–2 convoy on [0, 9], then scatter; the closed convoy must
        // be drainable as soon as the chain breaks, mid-stream.
        let mut db = TrajectoryDatabase::new();
        for lane in 0..3u64 {
            db.insert(
                ObjectId(lane),
                Trajectory::from_tuples((0..20).map(|t| {
                    let y = if t < 10 {
                        lane as f64 * 0.5
                    } else {
                        lane as f64 * 300.0
                    };
                    (t as f64, y, t as i64)
                }))
                .unwrap(),
            );
        }
        let query = ConvoyQuery::new(3, 5, 1.5);
        let mut state = CmcState::new(&query);
        let mut closed_at: Option<TimePoint> = None;
        for snapshot in db.sweep(SnapshotPolicy::Interpolate) {
            let t = snapshot.time;
            state.ingest_snapshot(&snapshot);
            if closed_at.is_none() {
                let drained = state.drain_closed();
                if !drained.is_empty() {
                    assert_eq!(drained[0].end, 9);
                    closed_at = Some(t);
                }
            }
        }
        assert_eq!(
            closed_at,
            Some(10),
            "convoy must close when the chain breaks"
        );
        assert!(state.finish().is_empty(), "nothing left after the drain");
    }

    #[test]
    fn candidate_dedup_keeps_converging_chains_bounded() {
        // Regression for the duplicate-candidate blow-up: two overlapping
        // clusters at t=0 both converge to {1, 2} at t=1, and every later
        // tick offers two overlapping clusters that each extend {1, 2}.
        // Without per-step dedup the candidate count doubles every tick
        // (2^20 here); with it the working set stays constant.
        let query = ConvoyQuery::new(2, 3, 1.0);
        let mut state = CmcState::new(&query);
        state.ingest_clusters(0, &[cluster(&[1, 2, 3]), cluster(&[1, 2, 4])]);
        assert_eq!(state.active_candidates(), 2);
        for t in 1..=20 {
            state.ingest_clusters(t, &[cluster(&[1, 2, 5]), cluster(&[1, 2, 6])]);
            assert!(
                state.active_candidates() <= 4,
                "candidate set exploded at t={t}: {}",
                state.active_candidates()
            );
        }
        assert!(state.peak_candidates() <= 4);
        let convoys = normalize_convoys(state.finish(), &query);
        // The surviving chain is {1, 2} over the whole stream.
        assert_eq!(convoys.len(), 1);
        assert_eq!(convoys[0].objects, cluster(&[1, 2]));
        assert_eq!(convoys[0].start, 0);
        assert_eq!(convoys[0].end, 20);
    }

    #[test]
    fn dedup_does_not_merge_chains_with_different_starts() {
        let query = ConvoyQuery::new(2, 2, 1.0);
        let mut state = CmcState::new(&query);
        state.ingest_clusters(0, &[cluster(&[1, 2])]);
        // At t=1 the fresh cluster {1, 2, 3} extends the open chain (objects
        // {1, 2}, start 0). The cluster is assigned, so no fresh chain with
        // start 1 appears — same semantics as the batch algorithm.
        state.ingest_clusters(1, &[cluster(&[1, 2, 3])]);
        assert_eq!(state.active_candidates(), 1);
        let convoys = state.finish();
        assert_eq!(convoys.len(), 1);
        assert_eq!(convoys[0].start, 0);
    }

    #[test]
    fn dropped_ticks_close_candidates_instead_of_bridging_the_gap() {
        // A live feed loses ticks 3..=7: the chain alive at tick 2 must not
        // be silently extended across the unobserved interval.
        let query = ConvoyQuery::new(2, 2, 1.0);
        let mut state = CmcState::new(&query);
        for t in 0..=2 {
            state.ingest_clusters(t, &[cluster(&[1, 2])]);
        }
        state.ingest_clusters(8, &[cluster(&[1, 2])]);
        state.ingest_clusters(9, &[cluster(&[1, 2])]);
        let convoys = state.finish();
        assert_eq!(convoys.len(), 2);
        assert_eq!(convoys[0].interval(), TimeInterval::new(0, 2));
        assert_eq!(convoys[1].interval(), TimeInterval::new(8, 9));
    }

    #[test]
    fn absurd_thread_counts_are_capped_not_spawned() {
        assert_eq!(
            CmcEngine::Parallel { threads: 500_000 }.resolved_threads(),
            MAX_PARALLEL_THREADS
        );
        assert_eq!(CmcEngine::Swept.resolved_threads(), 1);
        assert!(CmcEngine::Parallel { threads: 0 }.resolved_threads() >= 1);
        // And the driver completes (clamped) rather than exhausting the OS.
        let db = convoy_db();
        let query = ConvoyQuery::new(3, 5, 1.5);
        let reference = normalize_convoys(CmcEngine::Swept.run(&db, &query), &query);
        let engine = CmcEngine::Parallel { threads: 500_000 };
        let capped = normalize_convoys(engine.run(&db, &query), &query);
        assert_eq!(capped, reference);
    }

    #[test]
    fn gap_tick_closes_candidates() {
        let query = ConvoyQuery::new(2, 2, 1.0);
        let mut state = CmcState::new(&query);
        state.ingest_clusters(0, &[cluster(&[1, 2])]);
        state.ingest_clusters(1, &[cluster(&[1, 2])]);
        state.ingest_clusters(2, &[]);
        let closed = state.drain_closed();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].interval(), TimeInterval::new(0, 1));
    }

    #[test]
    fn stats_track_ticks_peaks_and_closures() {
        let query = ConvoyQuery::new(2, 2, 1.0);
        let mut state = CmcState::new(&query);
        assert_eq!(state.stats(), CmcStats::default());

        // Two chains open for three ticks, then an empty tick closes both
        // (the normal, non-gap path).
        for t in 0..3 {
            state.ingest_clusters(t, &[cluster(&[1, 2]), cluster(&[8, 9])]);
        }
        state.ingest_clusters(3, &[]);
        let stats = state.stats();
        assert_eq!(stats.ticks_ingested, 4);
        assert_eq!(stats.peak_candidates, 2);
        assert_eq!(stats.gap_closures, 0, "an observed empty tick is not a gap");
        assert_eq!(stats.convoys_closed, 2);

        // Counters survive a drain.
        assert_eq!(state.drain_closed().len(), 2);
        assert_eq!(state.stats().convoys_closed, 2);
    }

    #[test]
    fn evict_longer_than_closes_aged_chains_before_they_extend() {
        let query = ConvoyQuery::new(2, 2, 1.0);
        let mut state = CmcState::new(&query);
        let horizon = 3i64;
        for t in 0..6 {
            assert_eq!(
                state.evict_longer_than(horizon),
                usize::from(t == horizon),
                "the chain reaches the horizon exactly at t=3 and restarts there"
            );
            state.ingest_clusters(t, &[cluster(&[1, 2])]);
        }
        let convoys = state.finish();
        // [0,2] closed by the horizon, [3,5] closed by the final flush:
        // no reported chain ever exceeds `horizon` ticks.
        assert_eq!(convoys.len(), 2);
        assert_eq!(convoys[0].interval(), TimeInterval::new(0, 2));
        assert_eq!(convoys[1].interval(), TimeInterval::new(3, 5));
        assert!(convoys.iter().all(|c| c.lifetime() <= horizon));
    }

    #[test]
    fn evict_longer_than_drops_short_chains_without_reporting() {
        // k = 5 but the horizon is 2: the chain is cut before qualifying.
        let query = ConvoyQuery::new(2, 5, 1.0);
        let mut state = CmcState::new(&query);
        for t in 0..4 {
            state.evict_longer_than(2);
            state.ingest_clusters(t, &[cluster(&[1, 2])]);
        }
        let (convoys, stats) = state.finish_with_stats();
        assert!(convoys.is_empty());
        assert_eq!(stats.convoys_closed, 0);
    }

    #[test]
    fn evict_to_capacity_closes_the_oldest_chains() {
        let query = ConvoyQuery::new(2, 1, 1.0);
        let mut state = CmcState::new(&query);
        state.ingest_clusters(0, &[cluster(&[1, 2])]);
        state.ingest_clusters(
            1,
            &[cluster(&[1, 2, 3]), cluster(&[4, 5]), cluster(&[6, 7])],
        );
        assert_eq!(state.active_candidates(), 3);
        assert_eq!(state.evict_to_capacity(3), 0, "already within capacity");
        assert_eq!(state.evict_to_capacity(1), 2);
        assert_eq!(state.active_candidates(), 1);
        let closed = state.drain_closed();
        // The start-0 chain is oldest; the tie between the two start-1
        // chains breaks by insertion order.
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].start, 0);
        assert_eq!(closed[0].objects, cluster(&[1, 2]));
        assert_eq!(closed[1].interval(), TimeInterval::new(1, 1));
        assert_eq!(closed[1].objects, cluster(&[4, 5]));
        // The survivor keeps extending.
        state.ingest_clusters(2, &[cluster(&[6, 7])]);
        let convoys = state.finish();
        assert_eq!(convoys.len(), 1);
        assert_eq!(convoys[0].objects, cluster(&[6, 7]));
    }

    #[test]
    fn stats_count_gap_closures_from_dropped_feed_ticks() {
        // PR 2's gap-closing path: ticks 3..=7 are lost; both open chains
        // must be counted as gap closures even though only the qualifying
        // one is reported as a convoy.
        let query = ConvoyQuery::new(2, 3, 1.0);
        let mut state = CmcState::new(&query);
        for t in 0..3 {
            state.ingest_clusters(t, &[cluster(&[1, 2])]);
        }
        // A second, too-young chain opens just before the outage.
        state.ingest_clusters(3, &[cluster(&[1, 2, 3]), cluster(&[8, 9])]);
        state.ingest_clusters(9, &[cluster(&[1, 2])]);
        let stats = state.stats();
        assert_eq!(stats.gap_closures, 2, "both chains were cut by the gap");
        assert_eq!(
            stats.convoys_closed, 1,
            "only the k-satisfying chain became a convoy"
        );
        assert_eq!(stats.ticks_ingested, 5);
        let convoys = state.finish();
        assert_eq!(convoys.len(), 1);
        assert_eq!(convoys[0].interval(), TimeInterval::new(0, 3));
    }
}
