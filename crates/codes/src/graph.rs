//! Qubit interaction graph and graph coloring for the staggered open-loop LRC policy.
//!
//! Section 3.5 of the paper proposes *Staggered Always-LRC*: LRCs are scheduled as an
//! n-coloring problem on the qubit interaction graph so that no two neighbouring data
//! qubits are reset in the same round, and the colour groups are cycled round-robin.
//! This module provides the interaction graph (data qubits are adjacent when they share
//! a stabilizer check, which also covers the "diagonal" neighbours of the surface-code
//! layout) and a deterministic greedy colouring.

use crate::code::{Code, DataQubitId};

/// Undirected interaction graph over the data qubits of a code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionGraph {
    adjacency: Vec<Vec<DataQubitId>>,
}

impl InteractionGraph {
    /// Builds the graph for `code`: two data qubits are adjacent when at least one
    /// check contains both.
    #[must_use]
    pub fn new(code: &Code) -> Self {
        let n = code.num_data();
        let mut sets: Vec<Vec<DataQubitId>> = vec![Vec::new(); n];
        for check in code.checks() {
            for (i, &a) in check.support.iter().enumerate() {
                for &b in &check.support[i + 1..] {
                    if !sets[a].contains(&b) {
                        sets[a].push(b);
                        sets[b].push(a);
                    }
                }
            }
        }
        for list in &mut sets {
            list.sort_unstable();
        }
        InteractionGraph { adjacency: sets }
    }

    /// Number of vertices (data qubits).
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Neighbours of a data qubit, ascending.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn neighbors(&self, q: DataQubitId) -> &[DataQubitId] {
        &self.adjacency[q]
    }

    /// Maximum vertex degree.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of undirected edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Deterministic greedy colouring (Welsh–Powell order: highest degree first).
    ///
    /// The result is a proper colouring: adjacent qubits never share a colour. The
    /// number of colours is at most `max_degree + 1`.
    #[must_use]
    pub fn greedy_coloring(&self) -> Coloring {
        let n = self.adjacency.len();
        let mut order: Vec<DataQubitId> = (0..n).collect();
        order.sort_by_key(|&q| std::cmp::Reverse((self.adjacency[q].len(), std::cmp::Reverse(q))));
        let mut colors = vec![usize::MAX; n];
        let mut num_colors = 0usize;
        for &q in &order {
            let mut used = vec![false; num_colors + 1];
            for &nb in &self.adjacency[q] {
                if colors[nb] != usize::MAX && colors[nb] <= num_colors {
                    used[colors[nb]] = true;
                }
            }
            let color = (0..).find(|&c| c >= used.len() || !used[c]).expect("unbounded search");
            colors[q] = color;
            num_colors = num_colors.max(color + 1);
        }
        Coloring { colors, num_colors }
    }
}

/// A proper colouring of the data qubits; colour groups are the round-robin LRC groups
/// of the staggered policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<usize>,
    num_colors: usize,
}

impl Coloring {
    /// Colour of data qubit `q`.
    ///
    /// # Panics
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn color(&self, q: DataQubitId) -> usize {
        self.colors[q]
    }

    /// Number of colours used.
    #[must_use]
    pub fn num_colors(&self) -> usize {
        self.num_colors
    }

    /// All data qubits with the given colour.
    #[must_use]
    pub fn group(&self, color: usize) -> Vec<DataQubitId> {
        (0..self.colors.len()).filter(|&q| self.colors[q] == color).collect()
    }

    /// The colour group scheduled in QEC round `round` under round-robin cycling.
    #[must_use]
    pub fn group_for_round(&self, round: usize) -> Vec<DataQubitId> {
        if self.num_colors == 0 {
            return Vec::new();
        }
        self.group(round % self.num_colors)
    }

    /// Colours of every qubit (indexed by data qubit id).
    #[must_use]
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }
}

#[cfg(test)]
mod tests {
    use crate::code::Code;
    use proptest::prelude::*;

    #[test]
    fn surface_interaction_graph_has_expected_size() {
        let code = Code::rotated_surface(5);
        let graph = code.interaction_graph();
        assert_eq!(graph.num_vertices(), 25);
        assert!(graph.num_edges() > 0);
        // Degree is bounded by the neighbourhood of the four adjacent plaquettes.
        assert!(graph.max_degree() <= 12);
    }

    #[test]
    fn coloring_is_proper_for_surface_code() {
        let code = Code::rotated_surface(7);
        let graph = code.interaction_graph();
        let coloring = graph.greedy_coloring();
        for q in 0..graph.num_vertices() {
            for &nb in graph.neighbors(q) {
                assert_ne!(coloring.color(q), coloring.color(nb), "{q} and {nb} share colour");
            }
        }
        assert!(coloring.num_colors() <= graph.max_degree() + 1);
    }

    #[test]
    fn coloring_is_proper_for_color_code() {
        let code = Code::color_666(7);
        let coloring = code.interaction_graph().greedy_coloring();
        let graph = code.interaction_graph();
        for q in 0..graph.num_vertices() {
            for &nb in graph.neighbors(q) {
                assert_ne!(coloring.color(q), coloring.color(nb));
            }
        }
    }

    #[test]
    fn groups_partition_the_qubits() {
        let code = Code::rotated_surface(5);
        let coloring = code.interaction_graph().greedy_coloring();
        let total: usize = (0..coloring.num_colors()).map(|c| coloring.group(c).len()).sum();
        assert_eq!(total, code.num_data());
    }

    #[test]
    fn round_robin_cycles_through_all_groups() {
        let code = Code::rotated_surface(3);
        let coloring = code.interaction_graph().greedy_coloring();
        let k = coloring.num_colors();
        assert_eq!(coloring.group_for_round(0), coloring.group_for_round(k));
        let mut covered: Vec<usize> = (0..k).flat_map(|r| coloring.group_for_round(r)).collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered.len(), code.num_data());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn coloring_proper_for_random_surface_distance(k in 1usize..5) {
            let d = 2 * k + 1;
            let code = Code::rotated_surface(d);
            let graph = code.interaction_graph();
            let coloring = graph.greedy_coloring();
            for q in 0..graph.num_vertices() {
                for &nb in graph.neighbors(q) {
                    prop_assert_ne!(coloring.color(q), coloring.color(nb));
                }
            }
        }
    }
}
