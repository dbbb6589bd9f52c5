//! Circuit-level noise parameters matching Section 6 ("Methodology") of the paper.

use serde::{Deserialize, Serialize};

/// Noise and timing parameters of the leakage-aware circuit noise model.
///
/// The defaults reproduce the paper's evaluation point: physical error rate
/// `p = 10⁻³`, leakage ratio `lr = 0.1` (so `p_leak = 10⁻⁴`), multi-level-readout
/// penalty `mlr = 10`, and 10 % leakage mobility.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseParams {
    /// Physical (non-leakage) error probability `p` applied to depolarization,
    /// gate, measurement, reset and initialization faults.
    pub p: f64,
    /// Leakage ratio `lr`; the per-location leakage probability is `p_leak = lr · p`.
    pub leakage_ratio: f64,
    /// Multi-level readout penalty `mlr`: a leaked qubit read out with MLR is
    /// misclassified with probability `mlr · p`.
    pub mlr: f64,
    /// Probability that a CNOT with a leaked operand transports the leakage to the
    /// other operand instead of applying a random Pauli (Section 6: 10 %).
    pub mobility: f64,
    /// Multiplier on `p` for the depolarizing error applied by an LRC gadget
    /// (a SWAP-based LRC is roughly three CNOTs deep; default 2.0).
    pub lrc_error_factor: f64,
    /// Whether multi-level readout of parity qubits is available ("+M" variants).
    pub mlr_enabled: bool,
    /// Probability that MLR falsely flags a *non-leaked* qubit as leaked.
    pub mlr_false_flag: f64,
    /// Duration of one two-qubit gate layer, in nanoseconds (used by the cycle-time model).
    pub gate_time_ns: f64,
    /// Duration of measurement plus reset, in nanoseconds.
    pub meas_time_ns: f64,
    /// Added latency of one LRC gadget, in nanoseconds.
    pub lrc_time_ns: f64,
}

impl NoiseParams {
    /// Start building a parameter set from the defaults.
    #[must_use]
    pub fn builder() -> NoiseParamsBuilder {
        NoiseParamsBuilder::default()
    }

    /// Per-location leakage probability `p_leak = lr · p`.
    #[must_use]
    pub fn p_leak(&self) -> f64 {
        self.leakage_ratio * self.p
    }

    /// Probability that MLR misses a genuinely leaked qubit (`mlr · p`, capped at 1).
    #[must_use]
    pub fn mlr_miss(&self) -> f64 {
        (self.mlr * self.p).min(1.0)
    }

    /// Depolarizing error probability of an LRC gadget.
    #[must_use]
    pub fn p_lrc(&self) -> f64 {
        (self.lrc_error_factor * self.p).min(1.0)
    }

    /// Base duration of one QEC round (four CNOT layers plus measurement/reset) in ns.
    #[must_use]
    pub fn base_round_ns(&self, cnot_layers: usize) -> f64 {
        self.gate_time_ns * cnot_layers as f64 + self.meas_time_ns
    }

    /// Duration of one QEC round that applies `lrcs` LRC gadgets, in ns: the one
    /// cycle-time formula of live rounds, reconstructed traces and replay scoring.
    #[must_use]
    pub fn round_ns(&self, cnot_layers: usize, lrcs: usize) -> f64 {
        self.base_round_ns(cnot_layers) + self.lrc_time_ns * lrcs as f64
    }

    /// Validates that every probability lies in `[0, 1]` and every timing is
    /// non-negative.
    ///
    /// # Errors
    /// Returns a message naming the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        let checks = [
            ("p", self.p),
            ("p_leak", self.p_leak()),
            ("mobility", self.mobility),
            ("mlr_false_flag", self.mlr_false_flag),
            ("p_lrc", self.p_lrc()),
        ];
        for (name, value) in checks {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(format!("{name} = {value} is not a probability"));
            }
        }
        let timings = [
            ("gate_time_ns", self.gate_time_ns),
            ("meas_time_ns", self.meas_time_ns),
            ("lrc_time_ns", self.lrc_time_ns),
        ];
        for (name, value) in timings {
            if value < 0.0 || value.is_nan() {
                return Err(format!("{name} = {value} must be non-negative"));
            }
        }
        Ok(())
    }
}

impl Default for NoiseParams {
    fn default() -> Self {
        NoiseParams {
            p: 1e-3,
            leakage_ratio: 0.1,
            mlr: 10.0,
            mobility: 0.1,
            lrc_error_factor: 2.0,
            mlr_enabled: true,
            mlr_false_flag: 1e-3,
            gate_time_ns: 25.0,
            meas_time_ns: 500.0,
            lrc_time_ns: 100.0,
        }
    }
}

/// Builder for [`NoiseParams`] (non-consuming, per the Rust API guidelines).
#[derive(Debug, Clone, Default)]
pub struct NoiseParamsBuilder {
    params: NoiseParams,
}

impl NoiseParamsBuilder {
    /// Set the physical error rate `p`.
    pub fn physical_error_rate(&mut self, p: f64) -> &mut Self {
        self.params.p = p;
        self
    }

    /// Set the leakage ratio `lr` (so `p_leak = lr·p`).
    pub fn leakage_ratio(&mut self, lr: f64) -> &mut Self {
        self.params.leakage_ratio = lr;
        self
    }

    /// Set the MLR misclassification multiplier.
    pub fn mlr(&mut self, mlr: f64) -> &mut Self {
        self.params.mlr = mlr;
        self
    }

    /// Enable or disable multi-level readout on parity qubits.
    pub fn mlr_enabled(&mut self, enabled: bool) -> &mut Self {
        self.params.mlr_enabled = enabled;
        self
    }

    /// Set the leakage mobility (transport probability through a CNOT).
    pub fn mobility(&mut self, mobility: f64) -> &mut Self {
        self.params.mobility = mobility;
        self
    }

    /// Set the LRC depolarizing-error multiplier.
    pub fn lrc_error_factor(&mut self, factor: f64) -> &mut Self {
        self.params.lrc_error_factor = factor;
        self
    }

    /// Set the MLR false-flag probability for non-leaked qubits.
    pub fn mlr_false_flag(&mut self, p: f64) -> &mut Self {
        self.params.mlr_false_flag = p;
        self
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if the assembled parameters fail validation (e.g. probabilities outside
    /// `[0, 1]`); use [`NoiseParamsBuilder::try_build`] for fallible construction.
    #[must_use]
    pub fn build(&self) -> NoiseParams {
        self.try_build().expect("invalid noise parameters")
    }

    /// Fallible variant of [`NoiseParamsBuilder::build`].
    ///
    /// # Errors
    /// Returns the validation message of [`NoiseParams::validate`].
    pub fn try_build(&self) -> Result<NoiseParams, String> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_evaluation_point() {
        let n = NoiseParams::default();
        assert!((n.p - 1e-3).abs() < 1e-12);
        assert!((n.p_leak() - 1e-4).abs() < 1e-12);
        assert!((n.mlr_miss() - 1e-2).abs() < 1e-12);
        assert!((n.mobility - 0.1).abs() < 1e-12);
        assert!(n.mlr_enabled);
    }

    #[test]
    fn builder_sets_fields() {
        let n = NoiseParams::builder()
            .physical_error_rate(1e-4)
            .leakage_ratio(1.0)
            .mobility(0.05)
            .mlr_enabled(false)
            .build();
        assert!((n.p - 1e-4).abs() < 1e-15);
        assert!((n.p_leak() - 1e-4).abs() < 1e-15);
        assert!(!n.mlr_enabled);
        assert!((n.mobility - 0.05).abs() < 1e-15);
    }

    #[test]
    fn invalid_probability_is_rejected() {
        let result = NoiseParams::builder().physical_error_rate(1.5).try_build();
        assert!(result.is_err());
        let result = NoiseParams::builder().mobility(-0.1).try_build();
        assert!(result.is_err());
    }

    #[test]
    fn mlr_miss_is_capped_at_one() {
        let n = NoiseParams::builder().physical_error_rate(0.5).build();
        assert!((n.mlr_miss() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn base_round_time_accounts_for_layers() {
        let n = NoiseParams::default();
        assert!((n.base_round_ns(4) - (4.0 * 25.0 + 500.0)).abs() < 1e-9);
    }
}
