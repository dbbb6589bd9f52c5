//! Calibration inputs of the offline GLADIATOR model.

use serde::{Deserialize, Serialize};

/// Calibration data used when enumerating the fault model. These correspond to the
/// "device calibration data (leakage rate, non-leakage noise, readout error)" the paper
/// feeds into the offline stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GladiatorConfig {
    /// Physical (non-leakage) error rate `p`.
    pub p: f64,
    /// Leakage ratio `lr`, so `p_leak = lr · p`.
    pub leakage_ratio: f64,
    /// A pattern is flagged as leakage when `W_leak > threshold · W_nonleak`.
    pub threshold: f64,
}

impl GladiatorConfig {
    /// Per-location leakage probability `p_leak = lr · p`.
    #[must_use]
    pub fn p_leak(&self) -> f64 {
        self.leakage_ratio * self.p
    }

    /// Returns a copy with a different physical error rate (recalibration only changes
    /// fault weights, never the enumerated fault locations — Section 4.3).
    #[must_use]
    pub fn with_error_rate(mut self, p: f64) -> Self {
        self.p = p;
        self
    }

    /// Returns a copy with a different leakage ratio.
    #[must_use]
    pub fn with_leakage_ratio(mut self, lr: f64) -> Self {
        self.leakage_ratio = lr;
        self
    }

    /// Returns a copy with a different decision threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Validates that the calibration values are probabilities / a positive factor.
    ///
    /// # Errors
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.p) {
            return Err(format!("p = {} is not a probability", self.p));
        }
        if self.leakage_ratio < 0.0 || !(0.0..=1.0).contains(&self.p_leak()) {
            return Err(format!("leakage ratio {} out of range", self.leakage_ratio));
        }
        if self.threshold <= 0.0 || self.threshold.is_nan() {
            return Err(format!("threshold {} must be positive", self.threshold));
        }
        Ok(())
    }
}

impl Default for GladiatorConfig {
    fn default() -> Self {
        GladiatorConfig { p: 1e-3, leakage_ratio: 0.1, threshold: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_calibration() {
        let c = GladiatorConfig::default();
        assert!((c.p - 1e-3).abs() < 1e-12);
        assert!((c.p_leak() - 1e-4).abs() < 1e-12);
        assert!((c.threshold - 1.0).abs() < 1e-12);
        c.validate().expect("defaults are valid");
    }

    #[test]
    fn with_methods_produce_modified_copies() {
        let base = GladiatorConfig::default();
        let changed = base.with_error_rate(1e-4).with_leakage_ratio(1.0).with_threshold(2.0);
        assert!((changed.p - 1e-4).abs() < 1e-15);
        assert!((changed.p_leak() - 1e-4).abs() < 1e-15);
        assert!((changed.threshold - 2.0).abs() < 1e-12);
        // base unchanged
        assert!((base.p - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(GladiatorConfig { p: 2.0, ..GladiatorConfig::default() }.validate().is_err());
        assert!(GladiatorConfig { threshold: 0.0, ..GladiatorConfig::default() }
            .validate()
            .is_err());
        assert!(GladiatorConfig { leakage_ratio: -1.0, ..GladiatorConfig::default() }
            .validate()
            .is_err());
    }
}
