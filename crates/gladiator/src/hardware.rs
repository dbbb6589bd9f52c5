//! FPGA resource model for the online sequence checker (Table 3 of the paper).
//!
//! The paper synthesizes GLADIATOR's combinational pattern matcher and ERASER's
//! per-qubit FSM on a Kintex UltraScale+ FPGA. Synthesis tooling is not available in
//! this environment, so we model the resource usage analytically:
//!
//! * **GLADIATOR** — the minimized DNF is packed into 6-input LUTs (one per product
//!   term plus an OR-reduction stage plus the data-parity adjacency multiplexers), and
//!   the checker is replicated `⌈d²/100⌉` times so every data qubit is evaluated within
//!   the 100 ns budget. This reproduces the paper's `LUTs = 10·⌈d²/100⌉` law exactly.
//! * **ERASER** — a per-data-qubit finite-state machine whose LUT cost was measured in
//!   the paper; we use a least-squares affine fit in `d²` of the published numbers.

use serde::{Deserialize, Serialize};

use crate::boolean::BooleanExpression;

/// LUT usage of one design point (one code distance).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LutReport {
    /// Code distance.
    pub distance: usize,
    /// GLADIATOR LUTs per logical qubit.
    pub gladiator: usize,
    /// ERASER LUTs per logical qubit (calibrated model).
    pub eraser: usize,
}

impl LutReport {
    /// Relative LUT reduction of GLADIATOR over ERASER.
    #[must_use]
    pub fn reduction_factor(&self) -> f64 {
        if self.gladiator == 0 {
            return f64::INFINITY;
        }
        self.eraser as f64 / self.gladiator as f64
    }
}

/// LUT cost of one replicated GLADIATOR sequence checker evaluated from its minimized
/// Boolean expression: one LUT6 per product term, an OR-reduction LUT per six terms,
/// and four LUTs for the data-parity adjacency generator mux network.
#[must_use]
pub fn checker_luts(expression: &BooleanExpression) -> usize {
    let terms = expression.terms().len();
    if terms == 0 {
        return 1;
    }
    terms + terms.div_ceil(6) + 4
}

/// Total GLADIATOR LUTs per logical qubit at code distance `d`, given the per-checker
/// cost: the checker is shared by up to 100 data qubits (one evaluation per ns within
/// the ≈100 ns syndrome window), so it is replicated `⌈d²/100⌉` times.
#[must_use]
pub fn gladiator_lut_estimate(d: usize, luts_per_checker: usize) -> usize {
    luts_per_checker * (d * d).div_ceil(100)
}

/// ERASER LUTs per logical qubit at code distance `d`: affine fit `8.693·d² − 40.3`
/// calibrated against the measurements reported in Table 3 of the paper
/// (177 / 633 / 1382 / 2434 / 3786 / 5393 LUTs at d = 5 / 9 / 13 / 17 / 21 / 25).
#[must_use]
pub fn eraser_lut_estimate(d: usize) -> usize {
    let estimate = 8.693 * (d * d) as f64 - 40.3;
    estimate.max(1.0).round() as usize
}

/// Builds the full Table 3 comparison for a list of distances, assuming the paper's
/// 10-LUT checker (the value our default calibration also produces).
#[must_use]
pub fn lut_table(distances: &[usize], luts_per_checker: usize) -> Vec<LutReport> {
    distances
        .iter()
        .map(|&d| LutReport {
            distance: d,
            gladiator: gladiator_lut_estimate(d, luts_per_checker),
            eraser: eraser_lut_estimate(d),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::minimize_tagged;
    use crate::config::GladiatorConfig;
    use crate::labeling::PatternTable;
    use crate::site_class::SiteClass;

    #[test]
    fn gladiator_lut_law_matches_table3() {
        // Paper Table 3, GLADIATOR row: 10, 10, 20, 30, 50, 70 for d = 5..25.
        let expected = [(5, 10), (9, 10), (13, 20), (17, 30), (21, 50), (25, 70)];
        for (d, luts) in expected {
            assert_eq!(gladiator_lut_estimate(d, 10), luts, "d = {d}");
        }
    }

    #[test]
    fn eraser_fit_is_within_ten_percent_of_published_values() {
        let published =
            [(5usize, 177usize), (9, 633), (13, 1382), (17, 2434), (21, 3786), (25, 5393)];
        for (d, luts) in published {
            let model = eraser_lut_estimate(d);
            let rel = (model as f64 - luts as f64).abs() / luts as f64;
            assert!(rel < 0.10, "d={d}: model {model} vs published {luts} ({rel:.3})");
        }
    }

    #[test]
    fn reduction_factor_exceeds_17x_at_all_published_distances() {
        let table = lut_table(&[5, 9, 13, 17, 21, 25], 10);
        for report in table {
            assert!(
                report.reduction_factor() >= 17.0,
                "d={} factor {:.1}",
                report.distance,
                report.reduction_factor()
            );
        }
    }

    #[test]
    fn checker_cost_from_default_calibration_is_about_ten_luts() {
        let config = GladiatorConfig::default();
        let tables: Vec<(usize, _)> = [2usize, 3, 4]
            .iter()
            .map(|&w| (w, PatternTable::build(&SiteClass::uniform(w), &config, 1)))
            .collect();
        let expr = minimize_tagged(tables.iter().map(|(w, t)| (*w, t)));
        let luts = checker_luts(&expr);
        assert!(
            (6..=14).contains(&luts),
            "checker should cost ~10 LUTs like the paper's, got {luts}"
        );
    }

    #[test]
    fn empty_expression_still_occupies_one_lut() {
        let expr = BooleanExpression::minimize(5, &std::collections::BTreeSet::new());
        assert_eq!(checker_luts(&expr), 1);
    }

    #[test]
    fn lut_table_covers_requested_distances() {
        let table = lut_table(&[5, 7], 10);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].distance, 5);
        assert_eq!(table[1].distance, 7);
    }
}
