//! Differential oracle for [`UnionFindDecoder`]: the frontier-only growth and the
//! single-pass peel must return exactly the [`Correction`] of the original all-edge-scan
//! decoder, kept below verbatim (against the public `MatchingGraph`/`ClusterSet` API) as
//! the reference. Every logical error rate, report and corpus rests on that identity.

use std::collections::VecDeque;

use leaky_sim::{policy::NeverLrc, NoiseParams, Simulator};
use proptest::prelude::*;
use qec_codes::{CheckBasis, Code, DataQubitId, MatchingGraph};
use qec_decoder::cluster::ClusterSet;
use qec_decoder::{detection_events, Correction, UnionFindDecoder};
use rand::{Rng, SeedableRng};

/// Reference decoder: every half-step rescans all edges of the graph.
fn reference_decode(graph: &MatchingGraph, detection_events: &[usize]) -> Correction {
    let n = graph.num_nodes();
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
    boundary[graph.boundary()] = true;

    let mut clusters = ClusterSet::new(&defect, &boundary);
    let edges = graph.edges();
    let mut growth = vec![0u32; edges.len()];
    let mut grown = vec![false; edges.len()];
    let defect_nodes: Vec<usize> = (0..n).filter(|&v| defect[v]).collect();

    let mut any_active = defect_nodes.iter().any(|&v| clusters.is_active(v));
    let mut safety = 0usize;
    while any_active {
        safety += 1;
        assert!(
            safety <= 4 * n + 4,
            "union-find growth failed to terminate (graph disconnected from boundary?)"
        );
        let mut newly_grown: Vec<usize> = Vec::new();
        for (idx, edge) in edges.iter().enumerate() {
            if grown[idx] {
                continue;
            }
            let root_a = clusters.find(edge.a);
            let root_b = clusters.find(edge.b);
            let active_a = clusters.is_active(edge.a);
            let active_b = clusters.is_active(edge.b);
            let increment =
                if root_a == root_b { 0 } else { u32::from(active_a) + u32::from(active_b) };
            if increment == 0 {
                continue;
            }
            growth[idx] += increment;
            if growth[idx] >= 2 {
                grown[idx] = true;
                newly_grown.push(idx);
            }
        }
        for idx in newly_grown {
            clusters.union(edges[idx].a, edges[idx].b);
        }
        any_active = defect_nodes.iter().any(|&v| clusters.is_active(v));
    }

    reference_peel(graph, &defect, &grown)
}

/// Reference peel: one BFS spanning tree per root over a rebuilt grown-edge adjacency.
fn reference_peel(graph: &MatchingGraph, defect: &[bool], grown: &[bool]) -> Correction {
    let n = graph.num_nodes();
    let edges = graph.edges();
    let boundary = graph.boundary();

    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (idx, edge) in edges.iter().enumerate() {
        if grown[idx] {
            adjacency[edge.a].push(idx);
            adjacency[edge.b].push(idx);
        }
    }

    let mut visited = vec![false; n];
    let mut parity: Vec<bool> = defect.to_vec();
    let mut matched_edges = Vec::new();

    let mut roots: Vec<usize> = vec![boundary];
    roots.extend((0..n).filter(|&v| defect[v]));

    for &root in &roots {
        if visited[root] {
            continue;
        }
        visited[root] = true;
        let mut order: Vec<usize> = vec![root];
        let mut parent_edge: Vec<Option<usize>> = vec![None; n];
        let mut parent_node: Vec<usize> = vec![usize::MAX; n];
        let mut queue = VecDeque::from([root]);
        while let Some(v) = queue.pop_front() {
            for &eidx in &adjacency[v] {
                let edge = &edges[eidx];
                let other = if edge.a == v { edge.b } else { edge.a };
                if !visited[other] {
                    visited[other] = true;
                    parent_edge[other] = Some(eidx);
                    parent_node[other] = v;
                    order.push(other);
                    queue.push_back(other);
                }
            }
        }
        for &v in order.iter().rev() {
            if v == root {
                continue;
            }
            if parity[v] {
                let eidx = parent_edge[v].expect("non-root nodes have a parent edge");
                matched_edges.push(eidx);
                parity[v] = false;
                let p = parent_node[v];
                parity[p] ^= true;
            }
        }
    }

    let mut qubit_parity = std::collections::HashMap::new();
    for &eidx in &matched_edges {
        if let Some(q) = edges[eidx].data_qubit {
            *qubit_parity.entry(q).or_insert(0usize) += 1;
        }
    }
    let mut data_qubits: Vec<DataQubitId> =
        qubit_parity.into_iter().filter(|&(_, count)| count % 2 == 1).map(|(q, _)| q).collect();
    data_qubits.sort_unstable();
    matched_edges.sort_unstable();

    Correction { data_qubits, matched_edges }
}

fn surface_decoder(d: usize, layers: usize) -> UnionFindDecoder {
    UnionFindDecoder::new(MatchingGraph::build(&Code::rotated_surface(d), CheckBasis::Z, layers))
}

fn assert_matches_reference(decoder: &UnionFindDecoder, events: &[usize]) {
    assert_eq!(
        decoder.decode(events),
        reference_decode(decoder.graph(), events),
        "events {events:?} on a graph of {} nodes",
        decoder.graph().num_nodes()
    );
}

#[test]
fn simulated_leaky_shots_decode_like_the_reference() {
    for d in [3, 5, 7] {
        let rounds = 2 * d;
        let code = Code::rotated_surface(d);
        let decoder = surface_decoder(d, rounds + 1);
        for lr in [0.1, 1.0] {
            let noise = NoiseParams::builder().physical_error_rate(2e-3).leakage_ratio(lr).build();
            let mut sim = Simulator::new(&code, noise, 0);
            let mut nonempty = 0;
            for shot in 0..64 {
                sim.reseed_for_shot(1_000 * d as u64, shot, true);
                let run = sim.run_with_policy(&mut NeverLrc, rounds);
                let events = detection_events(&run, decoder.graph());
                nonempty += usize::from(!events.is_empty());
                assert_matches_reference(&decoder, &events);
            }
            assert!(nonempty > 0, "d={d} lr={lr}: every shot was silent");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn random_event_lists_decode_like_the_reference(
        d_pick in 0usize..3,
        layer_pick in 0usize..4,
        density in 1usize..6,
        seed in any::<u64>(),
    ) {
        let d = [3, 5, 7][d_pick];
        let layers = [1, 2, d + 1, 6 * d + 1][layer_pick];
        let decoder = surface_decoder(d, layers);
        let n = decoder.graph().num_nodes();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        // Up to `density` events per layer, drawn over every node (boundary included),
        // so duplicates and the boundary index both occur.
        let count = rng.gen_range(0..density * layers + 2);
        let mut events: Vec<usize> = (0..count).map(|_| rng.gen_range(0..n)).collect();
        // Repeat a few events so that partly cancelling lists occur on large graphs too.
        for _ in 0..count.min(3) {
            let k = rng.gen_range(0..count);
            events.push(events[k]);
        }
        assert_matches_reference(&decoder, &events);
        events.push(decoder.graph().boundary());
        assert_matches_reference(&decoder, &events);
        // Doubling every event cancels them all; so does the empty list.
        events.extend_from_slice(&events.clone());
        assert_matches_reference(&decoder, &events);
        assert_matches_reference(&decoder, &[]);
        assert_matches_reference(&decoder, &[decoder.graph().boundary()]);
    }
}

#[test]
#[should_panic(expected = "outside graph")]
fn out_of_range_event_panics() {
    let decoder = surface_decoder(3, 2);
    let _ = decoder.decode(&[decoder.graph().num_nodes()]);
}
