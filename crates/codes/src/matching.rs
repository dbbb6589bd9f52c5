//! Space–time matching (decoding) graphs for surface-code style decoding.
//!
//! For a CSS code whose single-qubit errors each flip at most two checks of a given
//! basis (true for the surface code), the decoding problem over `R` rounds reduces to
//! minimum-weight matching / union-find clustering on a graph whose nodes are the
//! space–time detectors `(round, check)` plus one virtual boundary node.
//!
//! * **Spatial edges** connect the one or two same-basis checks adjacent to a data
//!   qubit within a round (single-check qubits connect to the boundary) and are
//!   labelled with that data qubit, so a matched edge translates into a Pauli
//!   correction.
//! * **Temporal edges** connect the same check in consecutive rounds and model
//!   measurement errors; they carry no data-qubit label.
//!
//! The union-find decoder in `qec-decoder` consumes this graph.

use crate::code::{CheckBasis, CheckId, Code, DataQubitId};

/// A node of the space–time decoding graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpaceTimeNode {
    /// Detector for `check` in QEC round `round`.
    Detector {
        /// QEC round index (0-based).
        round: usize,
        /// Check id within the code.
        check: CheckId,
    },
    /// The virtual boundary absorbing odd excitations.
    Boundary,
}

/// An edge of the decoding graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchingEdge {
    /// First endpoint (dense node index as used by [`MatchingGraph`]).
    pub a: usize,
    /// Second endpoint (dense node index).
    pub b: usize,
    /// The data qubit whose error this edge represents, if it is a spatial edge.
    pub data_qubit: Option<DataQubitId>,
}

/// Space–time decoding graph for one check basis of a code over a fixed number of
/// rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchingGraph {
    basis: CheckBasis,
    rounds: usize,
    checks: Vec<CheckId>,
    check_slot: Vec<Option<usize>>,
    edges: Vec<MatchingEdge>,
    adjacency: Vec<Vec<usize>>,
    num_nodes: usize,
}

impl MatchingGraph {
    /// Builds the graph for `code`, detecting errors visible to checks of `basis`
    /// (i.e. `basis = Z` decodes X/bit-flip errors), over `rounds` QEC rounds.
    ///
    /// # Panics
    /// Panics if `rounds == 0` or if some data qubit touches more than two checks of
    /// `basis` (the code is then not matchable and must be decoded differently).
    #[must_use]
    pub fn build(code: &Code, basis: CheckBasis, rounds: usize) -> Self {
        assert!(rounds > 0, "need at least one round");
        let checks: Vec<CheckId> = code.checks_of(basis).map(|c| c.id).collect();
        let mut check_slot = vec![None; code.num_checks()];
        for (slot, &c) in checks.iter().enumerate() {
            check_slot[c] = Some(slot);
        }
        let per_round = checks.len();
        let num_nodes = per_round * rounds + 1; // + boundary
        let boundary = num_nodes - 1;

        let node = |round: usize, slot: usize| round * per_round + slot;

        let mut edges = Vec::new();
        // Spatial edges, one copy per round.
        let adjacency_per_qubit: Vec<Vec<usize>> = (0..code.num_data())
            .map(|q| {
                code.checks_of(basis)
                    .filter(|c| c.support.contains(&q))
                    .map(|c| check_slot[c.id].expect("slot exists"))
                    .collect()
            })
            .collect();
        for (q, slots) in adjacency_per_qubit.iter().enumerate() {
            assert!(
                slots.len() <= 2,
                "data qubit {q} touches {} checks of basis {basis}; not matchable",
                slots.len()
            );
        }
        for round in 0..rounds {
            for (q, slots) in adjacency_per_qubit.iter().enumerate() {
                match slots.as_slice() {
                    [a, b] => edges.push(MatchingEdge {
                        a: node(round, *a),
                        b: node(round, *b),
                        data_qubit: Some(q),
                    }),
                    [a] => edges.push(MatchingEdge {
                        a: node(round, *a),
                        b: boundary,
                        data_qubit: Some(q),
                    }),
                    _ => {}
                }
            }
            // Temporal edges to the next round.
            if round + 1 < rounds {
                for slot in 0..per_round {
                    edges.push(MatchingEdge {
                        a: node(round, slot),
                        b: node(round + 1, slot),
                        data_qubit: None,
                    });
                }
            }
        }

        let mut adjacency = vec![Vec::new(); num_nodes];
        for (idx, e) in edges.iter().enumerate() {
            adjacency[e.a].push(idx);
            adjacency[e.b].push(idx);
        }

        MatchingGraph { basis, rounds, checks, check_slot, edges, adjacency, num_nodes }
    }

    /// The check basis this graph decodes.
    #[must_use]
    pub fn basis(&self) -> CheckBasis {
        self.basis
    }

    /// Number of QEC rounds covered.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of detector nodes per round.
    #[must_use]
    pub fn detectors_per_round(&self) -> usize {
        self.checks.len()
    }

    /// Total number of nodes including the boundary.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Dense index of the boundary node.
    #[must_use]
    pub fn boundary(&self) -> usize {
        self.num_nodes - 1
    }

    /// All edges.
    #[must_use]
    pub fn edges(&self) -> &[MatchingEdge] {
        &self.edges
    }

    /// Indices of the edges incident to `node`.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn incident_edges(&self, node: usize) -> &[usize] {
        &self.adjacency[node]
    }

    /// Dense node index of the detector for `check` in `round`, or `None` when the
    /// check does not belong to this graph's basis.
    #[must_use]
    pub fn detector_index(&self, round: usize, check: CheckId) -> Option<usize> {
        if round >= self.rounds {
            return None;
        }
        self.check_slot.get(check).copied().flatten().map(|slot| round * self.checks.len() + slot)
    }

    /// Inverse of [`MatchingGraph::detector_index`] for non-boundary nodes.
    #[must_use]
    pub fn node_info(&self, node: usize) -> SpaceTimeNode {
        if node == self.boundary() {
            SpaceTimeNode::Boundary
        } else {
            let per_round = self.checks.len();
            SpaceTimeNode::Detector {
                round: node / per_round,
                check: self.checks[node % per_round],
            }
        }
    }

    /// Checks of this basis, in slot order.
    #[must_use]
    pub fn checks(&self) -> &[CheckId] {
        &self.checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::Code;

    #[test]
    fn node_and_edge_counts_for_surface_code() {
        let code = Code::rotated_surface(3);
        let rounds = 4;
        let graph = MatchingGraph::build(&code, CheckBasis::Z, rounds);
        assert_eq!(graph.detectors_per_round(), 4);
        assert_eq!(graph.num_nodes(), 4 * rounds + 1);
        // Per round: one spatial edge per data qubit (9), plus 4 temporal edges per
        // round transition.
        let expected_edges = 9 * rounds + 4 * (rounds - 1);
        assert_eq!(graph.edges().len(), expected_edges);
    }

    #[test]
    fn every_spatial_edge_maps_back_to_a_data_qubit_in_the_check_support() {
        let code = Code::rotated_surface(5);
        let graph = MatchingGraph::build(&code, CheckBasis::X, 2);
        for edge in graph.edges() {
            let Some(q) = edge.data_qubit else { continue };
            for &node in &[edge.a, edge.b] {
                if let SpaceTimeNode::Detector { check, .. } = graph.node_info(node) {
                    assert!(
                        code.check(check).support.contains(&q),
                        "edge qubit {q} not in support of check {check}"
                    );
                }
            }
        }
    }

    #[test]
    fn detector_index_round_trips_with_node_info() {
        let code = Code::rotated_surface(3);
        let graph = MatchingGraph::build(&code, CheckBasis::Z, 3);
        for round in 0..3 {
            for &check in graph.checks() {
                let node = graph.detector_index(round, check).expect("detector exists");
                assert_eq!(graph.node_info(node), SpaceTimeNode::Detector { round, check });
            }
        }
        assert_eq!(graph.node_info(graph.boundary()), SpaceTimeNode::Boundary);
    }

    #[test]
    fn boundary_edges_exist_for_boundary_qubits() {
        let code = Code::rotated_surface(3);
        let graph = MatchingGraph::build(&code, CheckBasis::Z, 1);
        let boundary_edges = graph
            .edges()
            .iter()
            .filter(|e| e.a == graph.boundary() || e.b == graph.boundary())
            .count();
        assert!(boundary_edges > 0, "surface code must have boundary edges");
    }

    #[test]
    fn wrong_basis_checks_have_no_detector_index() {
        let code = Code::rotated_surface(3);
        let graph = MatchingGraph::build(&code, CheckBasis::Z, 2);
        let x_check = code.checks_of(CheckBasis::X).next().expect("has X checks").id;
        assert_eq!(graph.detector_index(0, x_check), None);
    }

    #[test]
    #[should_panic(expected = "not matchable")]
    fn color_code_is_rejected_as_unmatchable() {
        let code = Code::color_666(5);
        let _ = MatchingGraph::build(&code, CheckBasis::Z, 1);
    }
}
