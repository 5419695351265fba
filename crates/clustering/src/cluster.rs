//! Clusters of object identifiers.

use trajectory::ObjectId;

/// A cluster of objects: a sorted, de-duplicated set of object ids.
///
/// Clusters are the currency exchanged between the snapshot/segment
/// clustering routines and the convoy candidate bookkeeping (where they are
/// intersected across time). Keeping the ids sorted makes intersection and
/// overlap counting linear.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct Cluster {
    members: Vec<ObjectId>,
}

impl Clone for Cluster {
    fn clone(&self) -> Self {
        Cluster {
            members: self.members.clone(),
        }
    }

    /// Copies `source`'s members into this cluster's existing buffer (the
    /// derived impl would allocate a fresh one).
    fn clone_from(&mut self, source: &Self) {
        self.members.clone_from(&source.members);
    }
}

impl Cluster {
    /// Creates a cluster from arbitrary ids (sorted and de-duplicated).
    pub fn new(mut members: Vec<ObjectId>) -> Self {
        members.sort_unstable();
        members.dedup();
        Cluster { members }
    }

    /// Refills this cluster in place from arbitrary ids (sorted and
    /// de-duplicated, like [`Cluster::new`]) — the allocation-free
    /// counterpart of `*self = Cluster::new(...)`, reusing the member
    /// buffer's existing capacity. Used by the snapshot clusterer's pooled
    /// output clusters.
    pub fn assign<I: IntoIterator<Item = ObjectId>>(&mut self, ids: I) {
        self.members.clear();
        self.members.extend(ids);
        self.members.sort_unstable();
        self.members.dedup();
    }

    /// The member ids, sorted ascending.
    #[inline]
    pub fn members(&self) -> &[ObjectId] {
        &self.members
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` when the cluster has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Membership test (binary search over the sorted ids).
    pub fn contains(&self, id: ObjectId) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// The intersection of two clusters.
    pub fn intersection(&self, other: &Cluster) -> Cluster {
        let mut out = Cluster::default();
        self.intersection_into(other, &mut out);
        out
    }

    /// Writes the intersection of two clusters into `out`, replacing its
    /// members and reusing its buffer (the allocation-free counterpart of
    /// `*out = self.intersection(other)` once `out` has the capacity).
    pub fn intersection_into(&self, other: &Cluster, out: &mut Cluster) {
        let out = &mut out.members;
        out.clear();
        out.reserve(self.len().min(other.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.members.len() && j < other.members.len() {
            match self.members[i].cmp(&other.members[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.members[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// Number of common members (size of the intersection, without
    /// materialising it).
    pub fn overlap(&self, other: &Cluster) -> usize {
        let (mut i, mut j, mut count) = (0, 0, 0);
        while i < self.members.len() && j < other.members.len() {
            match self.members[i].cmp(&other.members[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Number of members in the union of the two clusters.
    pub fn union_size(&self, other: &Cluster) -> usize {
        self.len() + other.len() - self.overlap(other)
    }

    /// The Jaccard overlap `|a ∩ b| / |a ∪ b|` used by the moving-cluster
    /// baseline MC2 (θ threshold). Zero when both clusters are empty.
    pub fn jaccard(&self, other: &Cluster) -> f64 {
        let union = self.union_size(other);
        if union == 0 {
            return 0.0;
        }
        self.overlap(other) as f64 / union as f64
    }

    /// Returns `true` when every member of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &Cluster) -> bool {
        self.overlap(other) == self.len()
    }

    /// Iterates over member ids.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.members.iter().copied()
    }
}

impl FromIterator<ObjectId> for Cluster {
    fn from_iter<I: IntoIterator<Item = ObjectId>>(iter: I) -> Self {
        Cluster::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(ids: &[u64]) -> Cluster {
        Cluster::new(ids.iter().map(|i| ObjectId(*i)).collect())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let c = cluster(&[3, 1, 2, 3, 1]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.members(), &[ObjectId(1), ObjectId(2), ObjectId(3)]);
        assert!(c.contains(ObjectId(2)));
        assert!(!c.contains(ObjectId(9)));
    }

    #[test]
    fn intersection_and_overlap() {
        let a = cluster(&[1, 2, 3, 4]);
        let b = cluster(&[3, 4, 5]);
        assert_eq!(a.intersection(&b), cluster(&[3, 4]));
        assert_eq!(a.overlap(&b), 2);
        assert_eq!(a.union_size(&b), 5);
        assert!((a.jaccard(&b) - 0.4).abs() < 1e-12);
        let empty = Cluster::default();
        assert_eq!(a.intersection(&empty), empty);
        // The in-place forms replace the target's members.
        let mut reused = cluster(&[7, 8, 9, 10, 11]);
        a.intersection_into(&b, &mut reused);
        assert_eq!(reused, cluster(&[3, 4]));
        reused.clone_from(&b);
        assert_eq!(reused, b);
        assert_eq!(empty.jaccard(&empty), 0.0);
    }

    #[test]
    fn is_subset_of_detects_containment() {
        let a = cluster(&[2, 3]);
        let b = cluster(&[1, 2, 3, 4]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(Cluster::default().is_subset_of(&a));
    }

    #[test]
    fn from_iterator_and_iter() {
        let c: Cluster = [ObjectId(5), ObjectId(1)].into_iter().collect();
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![ObjectId(1), ObjectId(5)]);
        assert!(!c.is_empty());
    }
}
