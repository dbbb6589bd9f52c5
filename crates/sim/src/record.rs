//! Per-round and per-run observation records produced by the simulator.

use serde::{Deserialize, Serialize};

use qec_codes::{CheckId, DataQubitId};

/// Everything observable (and the hidden ground truth) about one QEC round.
///
/// The *observable* part — `measurements`, `detectors`, `mlr_leak_flags` — is what a
/// [`crate::LeakagePolicy`] may use for speculation. The ground-truth leak snapshots
/// are recorded so that the experiment harness can score false positives and false
/// negatives exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Raw parity-qubit measurement outcomes, indexed by check id.
    pub measurements: Vec<bool>,
    /// Detection events: XOR of this round's measurement with the previous round's,
    /// indexed by check id.
    pub detectors: Vec<bool>,
    /// Multi-level-readout verdicts per check id (`true` = flagged as leaked). All
    /// `false` when MLR is disabled.
    pub mlr_leak_flags: Vec<bool>,
    /// Data qubits that received an LRC at the start of this round.
    pub data_lrcs: Vec<DataQubitId>,
    /// Parity qubits that received an LRC (conditional reset) at the start of this round.
    pub ancilla_lrcs: Vec<CheckId>,
    /// Ground truth: data-qubit leak flags *before* this round's LRCs were applied.
    pub data_leak_before: Vec<bool>,
    /// Ground truth: data-qubit leak flags at the end of the round.
    pub data_leak_after: Vec<bool>,
    /// Ground truth: ancilla leak flags at the end of the round.
    pub ancilla_leak_after: Vec<bool>,
    /// Wall-clock duration of this round in nanoseconds under the cycle-time model.
    pub cycle_time_ns: f64,
}

impl RoundRecord {
    /// Number of data qubits leaked at the end of the round.
    #[must_use]
    pub fn leaked_data_count(&self) -> usize {
        self.data_leak_after.iter().filter(|&&l| l).count()
    }

    /// Number of ancilla qubits leaked at the end of the round.
    #[must_use]
    pub fn leaked_ancilla_count(&self) -> usize {
        self.ancilla_leak_after.iter().filter(|&&l| l).count()
    }

    /// Total number of LRC gadgets applied this round.
    #[must_use]
    pub fn lrc_count(&self) -> usize {
        self.data_lrcs.len() + self.ancilla_lrcs.len()
    }

    /// Fraction of data qubits leaked at the end of the round (the paper's
    /// data-leakage-population sample for one round).
    #[must_use]
    pub fn data_leak_fraction(&self) -> f64 {
        if self.data_leak_after.is_empty() {
            return 0.0;
        }
        self.leaked_data_count() as f64 / self.data_leak_after.len() as f64
    }
}

/// A complete simulated run: the per-round records plus the final data frames needed
/// for decoding and logical-error determination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Per-round records, in execution order.
    pub rounds: Vec<RoundRecord>,
    /// Final bit-flip (X) frame of every data qubit after leaked qubits were
    /// depolarized and returned to the computational subspace.
    pub final_data_x: Vec<bool>,
    /// Final phase-flip (Z) frame of every data qubit.
    pub final_data_z: Vec<bool>,
    /// A final round of *noiseless* check measurements (the standard perfect readout
    /// appended for decoding), indexed by check id.
    pub final_perfect_measurements: Vec<bool>,
}

impl RunRecord {
    /// Number of simulated rounds.
    #[must_use]
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total LRCs applied over the run.
    #[must_use]
    pub fn total_lrcs(&self) -> usize {
        self.rounds.iter().map(RoundRecord::lrc_count).sum()
    }

    /// Total LRCs applied to data qubits only.
    #[must_use]
    pub fn total_data_lrcs(&self) -> usize {
        self.rounds.iter().map(|r| r.data_lrcs.len()).sum()
    }

    /// Average data-leakage population over the run (the paper's DLP metric).
    #[must_use]
    pub fn average_data_leak_fraction(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(RoundRecord::data_leak_fraction).sum::<f64>()
            / self.rounds.len() as f64
    }

    /// Data-leakage population of the final round.
    #[must_use]
    pub fn final_data_leak_fraction(&self) -> f64 {
        self.rounds.last().map_or(0.0, RoundRecord::data_leak_fraction)
    }

    /// Total simulated wall-clock time in nanoseconds.
    #[must_use]
    pub fn total_time_ns(&self) -> f64 {
        self.rounds.iter().map(|r| r.cycle_time_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_round(round: usize, leaked: usize, total: usize) -> RoundRecord {
        let mut leak = vec![false; total];
        for flag in leak.iter_mut().take(leaked) {
            *flag = true;
        }
        RoundRecord {
            round,
            measurements: vec![false; 4],
            detectors: vec![false; 4],
            mlr_leak_flags: vec![false; 4],
            data_lrcs: vec![0],
            ancilla_lrcs: vec![],
            data_leak_before: leak.clone(),
            data_leak_after: leak,
            ancilla_leak_after: vec![false; 4],
            cycle_time_ns: 600.0,
        }
    }

    #[test]
    fn round_record_counts() {
        let r = sample_round(0, 2, 8);
        assert_eq!(r.leaked_data_count(), 2);
        assert_eq!(r.lrc_count(), 1);
        assert!((r.data_leak_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn run_record_aggregates() {
        let run = RunRecord {
            rounds: vec![sample_round(0, 0, 4), sample_round(1, 2, 4)],
            final_data_x: vec![false; 4],
            final_data_z: vec![false; 4],
            final_perfect_measurements: vec![false; 4],
        };
        assert_eq!(run.num_rounds(), 2);
        assert_eq!(run.total_lrcs(), 2);
        assert!((run.average_data_leak_fraction() - 0.25).abs() < 1e-12);
        assert!((run.final_data_leak_fraction() - 0.5).abs() < 1e-12);
        assert!((run.total_time_ns() - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_has_zero_metrics() {
        let run = RunRecord {
            rounds: vec![],
            final_data_x: vec![],
            final_data_z: vec![],
            final_perfect_measurements: vec![],
        };
        assert_eq!(run.total_lrcs(), 0);
        assert!((run.average_data_leak_fraction()).abs() < 1e-12);
    }
}
