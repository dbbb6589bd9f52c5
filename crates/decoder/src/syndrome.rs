//! Converting simulated runs into detection events and judging logical failure.

use qec_codes::{Code, DataQubitId, MatchingGraph};

use crate::decoder::Correction;
use leaky_sim::{Bits, RunRecord};

/// Which logical memory experiment is being decoded.
///
/// A `Z`-basis memory stores the logical qubit in the Z basis, is corrupted by X
/// (bit-flip) errors, and is therefore decoded on the **Z-check** matching graph;
/// conversely for `X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryBasis {
    /// Logical Z memory (decode X errors using Z-type checks).
    Z,
    /// Logical X memory (decode Z errors using X-type checks).
    X,
}

/// Extracts the detection events of `run` for the matching graph `graph`.
///
/// The graph must cover `run.num_rounds() + 1` rounds: the extra, final layer compares
/// the last noisy measurement with a round of perfect measurements (the standard
/// trick that closes open time-like error strings before readout).
///
/// # Panics
/// Panics if the graph's round count is not `run.num_rounds() + 1`.
#[must_use]
pub fn detection_events(run: &RunRecord, graph: &MatchingGraph) -> Vec<usize> {
    assert_eq!(
        graph.rounds(),
        run.num_rounds() + 1,
        "matching graph must have one more layer than the noisy rounds"
    );
    // The fired checks of each layer, ascending; checks outside the graph's
    // basis have no detector index and are skipped.
    let mut events = Vec::new();
    for (r, round) in run.rounds().iter().enumerate() {
        events.extend(round.detectors().ones().filter_map(|check| graph.detector_index(r, check)));
    }
    // Final perfect layer.
    if let Some(last) = run.rounds().last() {
        let flips = run.final_perfect_measurements().differences(last.measurements());
        events.extend(flips.filter_map(|check| graph.detector_index(run.num_rounds(), check)));
    }
    events
}

/// Returns `true` when, after applying `correction`, the run still carries a logical
/// error in the given memory basis.
#[must_use]
pub fn logical_failure(
    code: &Code,
    run: &RunRecord,
    correction: &Correction,
    basis: MemoryBasis,
) -> bool {
    match basis {
        // Residual X errors flip the logical-Z readout.
        MemoryBasis::Z => residual_flips(run.final_data_x(), code.logical_z(), correction),
        MemoryBasis::X => residual_flips(run.final_data_z(), code.logical_x(), correction),
    }
}

/// `true` when the residual frame — `frames` with every correction qubit
/// flipped — has odd parity on the first logical support. Over a support of
/// distinct qubits that parity is the frames' parity on it plus the number of
/// correction entries that land in it, so no corrected copy is built.
fn residual_flips(
    frames: Bits<'_>,
    logicals: &[Vec<DataQubitId>],
    correction: &Correction,
) -> bool {
    logicals.first().is_some_and(|support| {
        let framed = support.iter().filter(|&&q| frames.get(q)).count();
        let corrected = correction.data_qubits.iter().filter(|q| support.contains(q)).count();
        (framed + corrected) % 2 == 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::UnionFindDecoder;
    use leaky_sim::{policy::NeverLrc, NoiseParams, Simulator};
    use qec_codes::CheckBasis;

    fn run_and_decode(d: usize, rounds: usize, p: f64, seed: u64) -> (Code, RunRecord, bool) {
        let code = Code::rotated_surface(d);
        let noise = NoiseParams::builder()
            .physical_error_rate(p)
            .leakage_ratio(0.0)
            .mlr_false_flag(0.0)
            .build();
        let mut sim = Simulator::new(&code, noise, seed);
        let run = sim.run_with_policy(&mut NeverLrc, rounds);
        let graph = MatchingGraph::build(&code, CheckBasis::Z, rounds + 1);
        let decoder = UnionFindDecoder::new(graph);
        let events = detection_events(&run, decoder.graph());
        let correction = decoder.decode(&events);
        let failed = logical_failure(&code, &run, &correction, MemoryBasis::Z);
        (code, run, failed)
    }

    #[test]
    fn noiseless_runs_never_fail() {
        for seed in 0..5 {
            let (_, run, failed) = run_and_decode(3, 5, 0.0, seed);
            assert!(!failed);
            assert!(!run.final_data_x().any());
        }
    }

    #[test]
    fn low_noise_runs_rarely_fail() {
        let mut failures = 0usize;
        let shots = 60;
        for seed in 0..shots {
            let (_, _, failed) = run_and_decode(3, 3, 5e-4, 1000 + seed);
            if failed {
                failures += 1;
            }
        }
        assert!(
            failures <= 2,
            "decoder failed {failures}/{shots} shots at p=5e-4, which is far too many"
        );
    }

    #[test]
    fn detection_events_requires_matching_round_count() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::default();
        let mut sim = Simulator::new(&code, noise, 3);
        let run = sim.run_with_policy(&mut NeverLrc, 4);
        let graph = MatchingGraph::build(&code, CheckBasis::Z, 5);
        // correct round count works
        let _ = detection_events(&run, &graph);
    }

    #[test]
    #[should_panic(expected = "one more layer")]
    fn detection_events_rejects_wrong_round_count() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::default();
        let mut sim = Simulator::new(&code, noise, 3);
        let run = sim.run_with_policy(&mut NeverLrc, 4);
        let graph = MatchingGraph::build(&code, CheckBasis::Z, 4);
        let _ = detection_events(&run, &graph);
    }

    #[test]
    fn logical_failure_detects_uncorrected_logical_string() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder().physical_error_rate(0.0).leakage_ratio(0.0).build();
        let mut sim = Simulator::new(&code, noise, 3);
        let mut run = sim.run_with_policy(&mut NeverLrc, 2);
        // Manually plant a logical X string in the final frames.
        for &q in &code.logical_z()[0] {
            run.finals_mut().final_data_x.set(q, true);
        }
        let failed = logical_failure(&code, &run, &Correction::default(), MemoryBasis::Z);
        assert!(failed);
        // Correcting the same string removes the failure.
        let correction =
            Correction { data_qubits: code.logical_z()[0].clone(), matched_edges: vec![] };
        assert!(!logical_failure(&code, &run, &correction, MemoryBasis::Z));
    }

    #[test]
    fn x_basis_memory_uses_z_frames() {
        let code = Code::rotated_surface(3);
        let noise = NoiseParams::builder().physical_error_rate(0.0).leakage_ratio(0.0).build();
        let mut sim = Simulator::new(&code, noise, 3);
        let mut run = sim.run_with_policy(&mut NeverLrc, 2);
        for &q in &code.logical_x()[0] {
            run.finals_mut().final_data_z.set(q, true);
        }
        assert!(logical_failure(&code, &run, &Correction::default(), MemoryBasis::X));
        assert!(!logical_failure(&code, &run, &Correction::default(), MemoryBasis::Z));
    }
}
