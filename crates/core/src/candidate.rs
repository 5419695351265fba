//! Candidate bookkeeping of the [`crate::engine::CmcState`] fold, shared by
//! CMC's ticks and the CuTS filter's λ-partitions.

use crate::query::Convoy;
use traj_cluster::Cluster;
use trajectory::{ObjectId, TimePoint};

impl Convoy {
    /// The chain extended with `cluster` observed up to `new_end`: the
    /// members both share (written into `buffer`, whose contents are
    /// replaced and whose storage is reused), the same start, and an end
    /// that never moves backwards. The overlap has already been counted
    /// against `m` by [`OverlapIndex::extending`], so only chains that
    /// survive are built.
    pub(crate) fn extended(
        &self,
        cluster: &Cluster,
        new_end: TimePoint,
        mut buffer: Cluster,
    ) -> Convoy {
        self.objects.intersection_into(cluster, &mut buffer);
        Convoy {
            objects: buffer,
            start: self.start,
            end: new_end.max(self.end),
        }
    }
}

/// A per-unit object → cluster index: the extension step of Algorithm 1
/// (and of the CuTS filter's partition fold) as an indexed join of the open
/// candidates with one tick's (or λ-partition's) clusters on object id.
///
/// The all-pairs loop intersects every candidate with every cluster, which
/// costs |candidates| × |clusters| merges, almost all of them empty on dense
/// data. The index instead holds the unit's `(object, cluster index)` pairs
/// sorted by object; a candidate looks up each of its members, counts hits
/// per cluster, and only the clusters with at least `m` hits are returned.
///
/// Exactness: cluster members are sorted and de-duplicated, so a cluster's
/// hit count is exactly the size of its intersection with the candidate, and
/// the qualifying clusters come out in ascending index — the order of the
/// all-pairs loop — so a fold driven by the index extends, de-duplicates and
/// closes candidates in the same order. That holds for overlapping cluster
/// lists too.
///
/// The buffers are reused across units: a warmed index allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct OverlapIndex {
    /// The unit's `(object, cluster index)` pairs, sorted.
    pairs: Vec<(ObjectId, usize)>,
    /// Per-cluster hit counters, all zero between lookups.
    hits: Vec<usize>,
    /// Clusters hit by the current lookup; after it, the qualifying ones.
    touched: Vec<usize>,
}

impl OverlapIndex {
    /// Rebuilds the index over one unit's clusters.
    // lint: hot-path — rebuilt every tick into reused buffers
    pub(crate) fn rebuild(&mut self, clusters: &[Cluster]) {
        self.pairs.clear();
        for (ci, cluster) in clusters.iter().enumerate() {
            self.pairs.extend(cluster.iter().map(|id| (id, ci)));
        }
        self.pairs.sort_unstable();
        self.hits.clear();
        self.hits.resize(clusters.len(), 0);
    }

    /// The indices of the clusters sharing at least `m` objects with
    /// `objects`, ascending. Every member of `objects` is looked up once.
    // lint: hot-path — one lookup per candidate per tick into reused buffers
    pub(crate) fn extending(&mut self, objects: &Cluster, m: usize) -> &[usize] {
        self.touched.clear();
        if self.hits.is_empty() {
            return &self.touched;
        }
        // Members ascend, so each search starts where the previous one ended.
        let mut rest = &self.pairs[..];
        for id in objects.iter() {
            rest = &rest[rest.partition_point(|&(o, _)| o < id)..];
            let run = rest.iter().take_while(|&&(o, _)| o == id).count();
            for &(_, ci) in &rest[..run] {
                if self.hits[ci] == 0 {
                    self.touched.push(ci);
                }
                self.hits[ci] += 1;
            }
            rest = &rest[run..];
        }
        self.touched.sort_unstable();
        let hits = &mut self.hits;
        self.touched
            .retain(|&ci| std::mem::take(&mut hits[ci]) >= m);
        if m == 0 {
            // Every cluster keeps at least zero common objects.
            self.touched.clear();
            self.touched.extend(0..self.hits.len());
        }
        &self.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(ids: &[u64]) -> Cluster {
        Cluster::new(ids.iter().map(|i| ObjectId(*i)).collect())
    }

    #[test]
    fn extension_keeps_intersection_and_grows_interval() {
        let c = Convoy::new(cluster(&[1, 2, 3, 4]), 0, 2);
        let clusters = [
            cluster(&[4, 9]),
            cluster(&[2, 3, 4, 5]),
            cluster(&[1, 2, 3, 4]),
        ];
        let mut index = OverlapIndex::default();
        index.rebuild(&clusters);
        // Too little overlap with cluster 0: only 1 and 2 extend, ascending.
        assert_eq!(index.extending(&c.objects, 2), &[1, 2]);
        let extended = c.extended(&clusters[1], 3, cluster(&[7, 8, 9, 10, 11]));
        assert_eq!(extended.objects, cluster(&[2, 3, 4]));
        assert_eq!(extended.start, 0);
        assert_eq!(extended.end, 3);
        // The end never moves backwards.
        assert_eq!(c.extended(&clusters[2], 1, Cluster::default()).end, 2);
        // Hit counters reset between lookups; m = 0 admits every cluster.
        assert_eq!(index.extending(&c.objects, 4), &[2]);
        assert_eq!(index.extending(&cluster(&[7]), 0), &[0, 1, 2]);
        // An empty tick extends nothing.
        index.rebuild(&[]);
        assert!(index.extending(&c.objects, 0).is_empty());
    }
}
