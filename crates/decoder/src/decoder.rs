//! Union–find decoder (Delfosse–Nickerson, arXiv:1709.06218) over a [`MatchingGraph`].
//!
//! Growth is uniform and by half-edges: every half-step, each *active* cluster (odd
//! defect count, boundary not absorbed) adds one unit of growth to every incident edge
//! that leads out of it; an edge joins the cluster support at two units. Every edge of
//! the graph has the same weight. Only the frontier is touched: a half-step walks the
//! member rings of the active clusters and their incident edges, never the whole graph.
//!
//! The correction is a pure function of the graph and the events, and two order facts
//! pin it bit for bit:
//! * the set of edges grown in a half-step depends only on the current partition into
//!   clusters, not on the order of unions or on which node is a cluster's root;
//! * peeling visits edges in [`MatchingGraph::incident_edges`] order and roots its
//!   spanning trees at the boundary first, then at the defects in ascending order.

use qec_codes::{DataQubitId, MatchingGraph};

use crate::cluster::ClusterSet;

/// Growth units at which an edge joins the cluster support (two half-edges).
const GROWN: u8 = 2;

/// The decoder's output: which data qubits to flip (Pauli correction) and which
/// space–time edges were matched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Correction {
    /// Data qubits whose error frame should be toggled (each listed once).
    pub data_qubits: Vec<DataQubitId>,
    /// Indices (into [`MatchingGraph::edges`]) of the matched edges.
    pub matched_edges: Vec<usize>,
}

impl Correction {
    /// Total number of matched edges.
    #[must_use]
    pub fn weight(&self) -> usize {
        self.matched_edges.len()
    }
}

/// Union–find decoder bound to one space–time matching graph.
#[derive(Debug, Clone)]
pub struct UnionFindDecoder {
    graph: MatchingGraph,
}

impl UnionFindDecoder {
    /// Wraps a matching graph for decoding. The graph can be reused across shots.
    #[must_use]
    pub fn new(graph: MatchingGraph) -> Self {
        UnionFindDecoder { graph }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &MatchingGraph {
        &self.graph
    }

    /// Decodes a set of detection events (node indices of the matching graph) into a
    /// Pauli correction.
    ///
    /// # Panics
    /// Panics if a detection event references a node outside the graph.
    #[must_use]
    pub fn decode(&self, detection_events: &[usize]) -> Correction {
        let n = self.graph.num_nodes();
        for &d in detection_events {
            assert!(d < n, "detection event {d} outside graph of {n} nodes");
        }
        if detection_events.is_empty() {
            return Correction::default();
        }

        let mut defect = vec![false; n];
        for &d in detection_events {
            defect[d] ^= true; // duplicated events cancel
        }
        let mut boundary = vec![false; n];
        boundary[self.graph.boundary()] = true;

        let mut clusters = ClusterSet::new(&defect, &boundary);
        let edges = self.graph.edges();
        // Half-edge units grown per edge; at `GROWN` the edge is in the cluster support
        // and is never touched again.
        let mut growth = vec![0u8; edges.len()];
        let defect_nodes: Vec<usize> = (0..n).filter(|&v| defect[v]).collect();

        let mut active_roots: Vec<usize> = Vec::new();
        let mut newly_grown: Vec<usize> = Vec::new();
        // Each iteration grows every active cluster by half an edge; the number of
        // iterations is bounded by the graph diameter.
        let mut safety = 0usize;
        loop {
            active_roots.clear();
            for &v in &defect_nodes {
                let root = clusters.find(v);
                if clusters.is_active(root) {
                    active_roots.push(root);
                }
            }
            if active_roots.is_empty() {
                break;
            }
            active_roots.sort_unstable();
            active_roots.dedup();
            safety += 1;
            assert!(
                safety <= 4 * n + 4,
                "union-find growth failed to terminate (graph disconnected from boundary?)"
            );
            // An edge gains one unit for each active cluster it leaves. Unions wait until
            // the sweep is done, so every cluster grows from the same partition and the
            // grown set does not depend on the order of the roots.
            for &root in &active_roots {
                let mut v = root;
                loop {
                    for &eidx in self.graph.incident_edges(v) {
                        if growth[eidx] == GROWN {
                            continue;
                        }
                        let edge = &edges[eidx];
                        let other = if edge.a == v { edge.b } else { edge.a };
                        if clusters.find(other) == root {
                            continue;
                        }
                        growth[eidx] += 1;
                        if growth[eidx] == GROWN {
                            newly_grown.push(eidx);
                        }
                    }
                    v = clusters.next_member(v);
                    if v == root {
                        break;
                    }
                }
            }
            for idx in newly_grown.drain(..) {
                clusters.union(edges[idx].a, edges[idx].b);
            }
        }

        self.peel(&defect_nodes, &growth)
    }

    /// Peeling phase: inside every cluster, build a spanning forest of the grown edges
    /// and peel leaves so that every defect is paired up (or routed to the boundary).
    fn peel(&self, defect_nodes: &[usize], growth: &[u8]) -> Correction {
        let n = self.graph.num_nodes();
        let edges = self.graph.edges();
        let boundary = self.graph.boundary();

        // Each node joins one spanning tree, so one visited/parent state serves all roots.
        let mut visited = vec![false; n];
        let mut parent_edge = vec![usize::MAX; n];
        let mut parity = vec![false; n];
        for &v in defect_nodes {
            parity[v] = true;
        }
        let mut matched_edges = Vec::new();
        let mut order: Vec<usize> = Vec::new();

        // Roots: the boundary first (so boundary-touching clusters are rooted there and
        // can dump an odd defect onto it), then any unvisited defect node.
        for &root in std::iter::once(&boundary).chain(defect_nodes) {
            if visited[root] {
                continue;
            }
            // BFS spanning tree of the cluster containing `root`; `order` is its queue.
            visited[root] = true;
            order.clear();
            order.push(root);
            let mut head = 0;
            while let Some(&v) = order.get(head) {
                head += 1;
                for &eidx in self.graph.incident_edges(v) {
                    if growth[eidx] != GROWN {
                        continue;
                    }
                    let edge = &edges[eidx];
                    let other = if edge.a == v { edge.b } else { edge.a };
                    if !visited[other] {
                        visited[other] = true;
                        parent_edge[other] = eidx;
                        order.push(other);
                    }
                }
            }
            // Peel from the leaves (reverse BFS order): a node carrying a defect sends
            // it to its parent through the tree edge, which becomes part of the
            // correction.
            for &v in order[1..].iter().rev() {
                if parity[v] {
                    let eidx = parent_edge[v];
                    matched_edges.push(eidx);
                    parity[v] = false;
                    let edge = &edges[eidx];
                    let parent = if edge.a == v { edge.b } else { edge.a };
                    parity[parent] ^= true;
                }
            }
            // Any parity left on the root must be on the boundary (odd clusters always
            // absorb the boundary by construction); parity on the boundary is harmless.
            debug_assert!(
                !parity[root] || root == boundary,
                "peeling left an unpaired defect inside a cluster"
            );
        }

        // Project matched space-time edges onto data-qubit flips (temporal edges have
        // no data qubit and only explain measurement errors): a qubit flips when it
        // appears an odd number of times, i.e. in an odd run of the sorted list.
        let mut flips: Vec<DataQubitId> =
            matched_edges.iter().filter_map(|&eidx| edges[eidx].data_qubit).collect();
        flips.sort_unstable();
        let mut data_qubits: Vec<DataQubitId> = Vec::new();
        for q in flips {
            if data_qubits.last() == Some(&q) {
                data_qubits.pop();
            } else {
                data_qubits.push(q);
            }
        }
        matched_edges.sort_unstable();

        Correction { data_qubits, matched_edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_codes::{CheckBasis, Code, MatchingGraph};

    fn decoder(d: usize, rounds: usize) -> (Code, UnionFindDecoder) {
        let code = Code::rotated_surface(d);
        let graph = MatchingGraph::build(&code, CheckBasis::Z, rounds);
        (code, UnionFindDecoder::new(graph))
    }

    /// Ideal (single perfect round) syndrome of an X-error set.
    fn syndrome_nodes(code: &Code, graph: &MatchingGraph, error: &[usize]) -> Vec<usize> {
        code.checks_of(CheckBasis::Z)
            .filter(|c| c.support.iter().filter(|q| error.contains(q)).count() % 2 == 1)
            .filter_map(|c| graph.detector_index(0, c.id))
            .collect()
    }

    /// `true` when `error ⊕ correction` commutes with every Z check (trivial syndrome).
    fn correction_clears_syndrome(code: &Code, error: &[usize], correction: &[usize]) -> bool {
        code.checks_of(CheckBasis::Z).all(|c| {
            let parity = c
                .support
                .iter()
                .filter(|q| {
                    let in_err = error.contains(q);
                    let in_corr = correction.contains(q);
                    in_err ^ in_corr
                })
                .count();
            parity % 2 == 0
        })
    }

    #[test]
    fn empty_syndrome_gives_empty_correction() {
        let (_, dec) = decoder(3, 3);
        let correction = dec.decode(&[]);
        assert!(correction.data_qubits.is_empty());
        assert_eq!(correction.weight(), 0);
    }

    #[test]
    fn single_bulk_error_is_corrected_exactly() {
        let (code, dec) = decoder(3, 1);
        let error = vec![4usize]; // centre qubit, two adjacent Z checks
        let events = syndrome_nodes(&code, dec.graph(), &error);
        assert_eq!(events.len(), 2);
        let correction = dec.decode(&events);
        assert!(correction_clears_syndrome(&code, &error, &correction.data_qubits));
    }

    #[test]
    fn boundary_error_is_routed_to_the_boundary() {
        let (code, dec) = decoder(3, 1);
        // A corner qubit touching a single Z check: one detection event, matched to the
        // boundary.
        let q = code
            .checks_of(CheckBasis::Z)
            .find(|c| c.weight() == 2)
            .map(|c| c.support[0])
            .expect("surface code has weight-2 Z checks");
        let error = vec![q];
        let events = syndrome_nodes(&code, dec.graph(), &error);
        let correction = dec.decode(&events);
        assert!(correction_clears_syndrome(&code, &error, &correction.data_qubits));
    }

    #[test]
    fn two_errors_far_apart_are_both_corrected() {
        let (code, dec) = decoder(5, 1);
        let error = vec![0usize, 24usize];
        let events = syndrome_nodes(&code, dec.graph(), &error);
        let correction = dec.decode(&events);
        assert!(correction_clears_syndrome(&code, &error, &correction.data_qubits));
    }

    #[test]
    fn measurement_error_pair_needs_no_data_correction() {
        let (code, dec) = decoder(3, 3);
        // The same check fires in consecutive rounds: classic measurement-error
        // signature, optimally explained by a temporal edge (no data flip).
        let check = code.checks_of(CheckBasis::Z).next().expect("has Z checks").id;
        let events = vec![
            dec.graph().detector_index(0, check).expect("node"),
            dec.graph().detector_index(1, check).expect("node"),
        ];
        let correction = dec.decode(&events);
        assert!(correction.data_qubits.is_empty(), "got {:?}", correction.data_qubits);
        assert_eq!(correction.weight(), 1);
    }

    #[test]
    fn random_low_weight_errors_always_clear_the_syndrome() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let (code, dec) = decoder(5, 1);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2024);
        for trial in 0..200 {
            let mut qubits: Vec<usize> = (0..code.num_data()).collect();
            qubits.shuffle(&mut rng);
            let weight = 1 + trial % 3;
            let error: Vec<usize> = qubits.into_iter().take(weight).collect();
            let events = syndrome_nodes(&code, dec.graph(), &error);
            let correction = dec.decode(&events);
            assert!(
                correction_clears_syndrome(&code, &error, &correction.data_qubits),
                "trial {trial}: error {error:?} corrected by {:?} leaves a syndrome",
                correction.data_qubits
            );
        }
    }

    #[test]
    fn duplicate_detection_events_cancel() {
        let (_, dec) = decoder(3, 1);
        let correction = dec.decode(&[0, 0]);
        assert!(correction.data_qubits.is_empty());
    }
}
