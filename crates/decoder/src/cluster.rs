//! Union–find cluster bookkeeping used by the decoder.

/// Disjoint-set forest tracking, per cluster root: defect parity and whether the
/// cluster has absorbed the boundary node; plus, for every cluster, its member list as a
/// circular ring, so growth can visit a cluster's nodes without scanning the graph.
#[derive(Debug, Clone)]
pub struct ClusterSet {
    parent: Vec<usize>,
    rank: Vec<u32>,
    /// Next member of the same cluster; following it from any member visits the whole
    /// cluster once and returns to the start.
    next: Vec<usize>,
    /// Number of defects in the cluster rooted here (valid at roots only).
    defects: Vec<usize>,
    /// Whether the cluster touches the virtual boundary (valid at roots only).
    touches_boundary: Vec<bool>,
}

impl ClusterSet {
    /// Creates `n` singleton clusters. `defect[i]` marks detection events and
    /// `boundary[i]` marks the virtual boundary node(s).
    #[must_use]
    pub fn new(defect: &[bool], boundary: &[bool]) -> Self {
        let n = defect.len();
        assert_eq!(boundary.len(), n, "defect and boundary vectors must match");
        ClusterSet {
            parent: (0..n).collect(),
            rank: vec![0; n],
            next: (0..n).collect(),
            defects: defect.iter().map(|&d| usize::from(d)).collect(),
            touches_boundary: boundary.to_vec(),
        }
    }

    /// Number of nodes managed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when no nodes are managed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the cluster root of `v` with path compression.
    pub fn find(&mut self, v: usize) -> usize {
        let mut root = v;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut current = v;
        while self.parent[current] != root {
            let next = self.parent[current];
            self.parent[current] = root;
            current = next;
        }
        root
    }

    /// Unions the clusters containing `a` and `b`; returns the new root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.rank[ra] >= self.rank[rb] { (ra, rb) } else { (rb, ra) };
        self.parent[small] = big;
        // Swapping one successor of each ring splices the two rings into one.
        self.next.swap(big, small);
        if self.rank[big] == self.rank[small] {
            self.rank[big] += 1;
        }
        self.defects[big] += self.defects[small];
        self.touches_boundary[big] = self.touches_boundary[big] || self.touches_boundary[small];
        big
    }

    /// The member after `v` in its cluster's ring: repeated from any member, it visits
    /// every member of the cluster exactly once before returning to the start.
    #[must_use]
    pub(crate) fn next_member(&self, v: usize) -> usize {
        self.next[v]
    }

    /// Number of defects in the cluster containing `v`.
    pub fn defect_count(&mut self, v: usize) -> usize {
        let root = self.find(v);
        self.defects[root]
    }

    /// Whether the cluster containing `v` has absorbed a boundary node.
    pub fn has_boundary(&mut self, v: usize) -> bool {
        let root = self.find(v);
        self.touches_boundary[root]
    }

    /// A cluster is *active* (must keep growing) while it holds an odd number of
    /// defects and has not reached the boundary.
    pub fn is_active(&mut self, v: usize) -> bool {
        let root = self.find(v);
        self.defects[root] % 2 == 1 && !self.touches_boundary[root]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_start_isolated() {
        let mut set = ClusterSet::new(&[true, false, false], &[false, false, true]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.find(0), 0);
        assert_eq!(set.defect_count(0), 1);
        assert!(!set.has_boundary(0));
        assert!(set.has_boundary(2));
        assert!(set.is_active(0));
        assert!(!set.is_active(1));
    }

    #[test]
    fn union_merges_defect_counts_and_boundary_flags() {
        let mut set = ClusterSet::new(&[true, true, false], &[false, false, true]);
        set.union(0, 1);
        assert_eq!(set.defect_count(0), 2);
        assert!(!set.is_active(0), "even cluster is inactive");
        set.union(1, 2);
        assert!(set.has_boundary(0));
        assert_eq!(set.find(0), set.find(2));
    }

    #[test]
    fn union_is_idempotent() {
        let mut set = ClusterSet::new(&[true, true], &[false, false]);
        let r1 = set.union(0, 1);
        let r2 = set.union(0, 1);
        assert_eq!(r1, r2);
        assert_eq!(set.defect_count(0), 2);
    }

    #[test]
    fn odd_cluster_with_boundary_is_inactive() {
        let mut set = ClusterSet::new(&[true, false], &[false, true]);
        set.union(0, 1);
        assert!(!set.is_active(0));
    }

    fn ring_of(set: &ClusterSet, start: usize) -> Vec<usize> {
        let mut members = vec![start];
        let mut v = set.next_member(start);
        while v != start {
            members.push(v);
            v = set.next_member(v);
        }
        members.sort_unstable();
        members
    }

    #[test]
    fn member_rings_follow_unions() {
        let mut set = ClusterSet::new(&[false; 6], &[false; 6]);
        assert_eq!(ring_of(&set, 3), vec![3]);
        set.union(0, 1);
        set.union(4, 5);
        set.union(1, 5);
        set.union(0, 4); // already joined: the ring must not split
        for v in [0, 1, 4, 5] {
            assert_eq!(ring_of(&set, v), vec![0, 1, 4, 5]);
        }
        assert_eq!(ring_of(&set, 2), vec![2]);
        assert_eq!(ring_of(&set, 3), vec![3]);
    }

    #[test]
    fn path_compression_preserves_roots() {
        let mut set = ClusterSet::new(&[false; 6], &[false; 6]);
        for i in 0..5 {
            set.union(i, i + 1);
        }
        let root = set.find(0);
        for i in 0..6 {
            assert_eq!(set.find(i), root);
        }
    }
}
