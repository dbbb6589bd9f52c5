//! Pattern labeling: the lookup table the QEC controller queries.

use serde::{Deserialize, Serialize};

use crate::config::GladiatorConfig;
use crate::propagation;
use crate::site_class::SiteClass;

/// A labeled syndrome-pattern table for one degree class.
///
/// `is_flagged(pattern)` answers the online question "should this observation trigger
/// an LRC?" in O(1) — the runtime equivalent of the paper's combinational sequence
/// checker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternTable {
    width: usize,
    leakage_weight: Vec<f64>,
    nonleakage_weight: Vec<f64>,
    flagged: Vec<bool>,
    threshold: f64,
}

impl PatternTable {
    /// Builds the table of `site_class` over a window of `window` rounds: 1 for
    /// GLADIATOR, 2 for GLADIATOR-D, whose table is indexed by
    /// `round₂ << width | round₁`.
    ///
    /// # Panics
    /// Panics if the window or the class width is out of range (see
    /// [`propagation::fault_weights`]).
    #[must_use]
    pub fn build(site_class: &SiteClass, config: &GladiatorConfig, window: usize) -> Self {
        let (leakage, nonleakage) = propagation::fault_weights(site_class, config, window);
        Self::from_weights(window * site_class.width, leakage, nonleakage, config.threshold)
    }

    /// Builds a table directly from raw per-pattern weights.
    ///
    /// # Panics
    /// Panics if the weight vectors do not have `2^width` entries.
    #[must_use]
    pub fn from_weights(
        width: usize,
        leakage_weight: Vec<f64>,
        nonleakage_weight: Vec<f64>,
        threshold: f64,
    ) -> Self {
        let size = 1usize << width;
        assert_eq!(leakage_weight.len(), size, "leakage weights must have 2^width entries");
        assert_eq!(nonleakage_weight.len(), size, "non-leakage weights must have 2^width entries");
        let flagged =
            (0..size).map(|i| leakage_weight[i] > threshold * nonleakage_weight[i]).collect();
        PatternTable { width, leakage_weight, nonleakage_weight, flagged, threshold }
    }

    /// Pattern width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Decision threshold used for labeling.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// `true` when `pattern` is labeled as leakage-dominated.
    ///
    /// # Panics
    /// Panics if `pattern` has bits outside the table width.
    #[must_use]
    pub fn is_flagged(&self, pattern: u32) -> bool {
        assert!(
            (pattern as usize) < self.flagged.len(),
            "pattern {pattern:#b} wider than table width {}",
            self.width
        );
        self.flagged[pattern as usize]
    }

    /// Accumulated leakage weight of a pattern (the super-edge `W_L`).
    #[must_use]
    pub fn leakage_weight(&self, pattern: u32) -> f64 {
        self.leakage_weight[pattern as usize]
    }

    /// Accumulated non-leakage weight of a pattern (`W_NL`).
    #[must_use]
    pub fn nonleakage_weight(&self, pattern: u32) -> f64 {
        self.nonleakage_weight[pattern as usize]
    }

    /// Number of flagged patterns.
    #[must_use]
    pub fn flagged_count(&self) -> usize {
        self.flagged.iter().filter(|&&f| f).count()
    }

    /// All flagged patterns, ascending.
    #[must_use]
    pub fn flagged_patterns(&self) -> Vec<u32> {
        (0..self.flagged.len() as u32).filter(|&p| self.flagged[p as usize]).collect()
    }

    /// The number of patterns ERASER's "at least half the bits flipped" heuristic would
    /// flag at this width — the baseline GLADIATOR is compared against.
    #[must_use]
    pub fn eraser_flagged_count(&self) -> usize {
        (0..self.flagged.len() as u32).filter(|&p| eraser_flags(self.width, p)).count()
    }
}

/// ERASER's heuristic: flag when at least 50 % of the adjacent syndrome bits flipped.
#[must_use]
pub fn eraser_flags(width: usize, pattern: u32) -> bool {
    let flips = pattern.count_ones() as usize;
    2 * flips >= width && flips > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config() -> GladiatorConfig {
        GladiatorConfig::default()
    }

    fn single_round(width: usize, config: &GladiatorConfig) -> PatternTable {
        PatternTable::build(&SiteClass::uniform(width), config, 1)
    }

    fn two_round(width: usize, config: &GladiatorConfig) -> PatternTable {
        PatternTable::build(&SiteClass::uniform(width), config, 2)
    }

    /// ERASER applied independently to both rounds of the window.
    fn eraser_two_round_count(width: usize) -> usize {
        let all = 1u32 << width;
        let mut count = 0;
        for r1 in 0..all {
            for r2 in 0..all {
                if eraser_flags(width, r1) && eraser_flags(width, r2) {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn eraser_heuristic_counts_match_paper() {
        // 4-bit: 11/16 flagged; 3-bit: 4/8; 8-bit joint: 2 rounds handled elsewhere.
        let four: usize = (0..16u32).filter(|&p| eraser_flags(4, p)).count();
        assert_eq!(four, 11);
        let three: usize = (0..8u32).filter(|&p| eraser_flags(3, p)).count();
        assert_eq!(three, 4);
        let two: usize = (0..4u32).filter(|&p| eraser_flags(2, p)).count();
        assert_eq!(two, 3);
    }

    #[test]
    fn surface_bulk_table_flags_fewer_patterns_than_eraser() {
        let table = single_round(4, &GladiatorConfig::default());
        assert_eq!(table.flagged_count(), 8);
        assert_eq!(table.eraser_flagged_count(), 11);
        // Frequently occurring non-leakage patterns must not be flagged.
        assert!(!table.is_flagged(0));
        assert!(!table.is_flagged(0b1111));
        assert!(!table.is_flagged(0b1100)); // time-ordered "0011"
        assert!(!table.is_flagged(0b0001));
    }

    #[test]
    fn flagged_patterns_have_higher_leakage_weight() {
        let table = single_round(4, &GladiatorConfig::default());
        for pattern in table.flagged_patterns() {
            assert!(table.leakage_weight(pattern) > table.nonleakage_weight(pattern));
        }
    }

    #[test]
    fn three_bit_table_flags_only_multi_flip_non_first_order_patterns() {
        let table = single_round(3, &GladiatorConfig::default());
        // The weight-2 patterns 101 and 011 (time order) that are not suffixes are
        // leakage-dominated; singles and the all-ones pattern are not.
        assert!(table.flagged_count() <= 4);
        assert!(table.flagged_count() >= 2);
        assert!(!table.is_flagged(0b111));
        assert!(!table.is_flagged(0b001));
        assert!(table.is_flagged(0b101));
    }

    #[test]
    fn one_bit_patterns_are_never_flagged_at_default_calibration() {
        // A single adjacent check cannot distinguish leakage from a measurement error,
        // so a 1-bit site never speculates (matches the color-code corner qubits).
        let table = single_round(1, &GladiatorConfig::default());
        assert_eq!(table.flagged_count(), 0);
    }

    #[test]
    fn higher_leakage_ratio_flags_more_patterns() {
        let low = single_round(4, &GladiatorConfig::default().with_leakage_ratio(0.01));
        let high = single_round(4, &GladiatorConfig::default().with_leakage_ratio(1.0));
        assert!(high.flagged_count() >= low.flagged_count());
    }

    #[test]
    fn raising_the_threshold_only_removes_flags() {
        let lenient = single_round(4, &GladiatorConfig::default().with_threshold(1.0));
        let strict = single_round(4, &GladiatorConfig::default().with_threshold(10.0));
        for p in 0..16u32 {
            if strict.is_flagged(p) {
                assert!(lenient.is_flagged(p), "pattern {p:04b} flagged only at strict threshold");
            }
        }
        assert!(strict.flagged_count() <= lenient.flagged_count());
    }

    #[test]
    #[should_panic(expected = "wider than table width")]
    fn out_of_range_pattern_panics() {
        let table = single_round(3, &GladiatorConfig::default());
        let _ = table.is_flagged(0b10000);
    }

    #[test]
    fn eraser_two_round_surface_count_is_121() {
        // Paper, Section 5.2: ERASER flags 121 of 256 two-round patterns.
        assert_eq!(eraser_two_round_count(4), 121);
    }

    #[test]
    fn surface_two_round_table_flags_fewer_than_eraser() {
        let table = two_round(4, &config());
        let flagged = table.flagged_count();
        assert!(
            flagged < 121,
            "GLADIATOR-D must flag fewer two-round patterns than ERASER (got {flagged})"
        );
        assert!(flagged >= 30, "GLADIATOR-D should still flag a substantial set (got {flagged})");
    }

    #[test]
    fn color_code_two_round_table_flags_a_small_rare_pattern_set() {
        // Paper: 11/64 for GLADIATOR-D vs 16/64 for ERASER on 3-bit sites. Our
        // enumeration lands at a comparable size (the exact count depends on the set of
        // second-order events modelled; EXPERIMENTS.md records the difference). What
        // matters operationally is that the flagged patterns are the *rare*
        // random-looking ones, not the common deterministic fault signatures ERASER
        // reacts to.
        let table = two_round(3, &config());
        assert_eq!(eraser_two_round_count(3), 16);
        assert!(table.flagged_count() >= 8);
        assert!(table.flagged_count() <= 20);
        // Deterministic data-error and measurement-echo signatures stay unflagged.
        // (`| 0b000` spells out the empty round-1 pattern half on purpose.)
        #[allow(clippy::identity_op)]
        let burst_then_silence = (0b111 << 3) | 0b000;
        assert!(!table.is_flagged(burst_then_silence));
        assert!(!table.is_flagged((0b001 << 3) | 0b001));
    }

    #[test]
    fn persistent_data_error_signature_is_not_flagged() {
        // suffix in round 1, complementary prefix in round 2 (paper's "0011 -> 1111"
        // temporal argument expressed on detectors).
        let table = two_round(4, &config());
        let r1 = 0b1100u32;
        let r2 = 0b0011u32;
        assert!(!table.is_flagged((r2 << 4) | r1));
    }

    #[test]
    fn random_flip_signature_is_flagged() {
        let table = two_round(4, &config());
        // Round 1 shows only the last site flipped (compatible with a leak landing
        // mid-round), round 2 keeps flipping random sites: leakage-dominated.
        let r1 = 0b1000u32;
        let r2 = 0b0110u32;
        assert!(table.is_flagged((r2 << 4) | r1));
    }

    #[test]
    fn measurement_error_echo_is_not_flagged() {
        let table = two_round(4, &config());
        // same single bit in both rounds = classic measurement-error echo
        let r1 = 0b0010u32;
        let r2 = 0b0010u32;
        assert!(!table.is_flagged((r2 << 4) | r1));
    }

    #[test]
    fn deferring_helps_sparse_sites_more_than_single_round() {
        // For 2-bit sites the single-round table cannot flag anything, but the
        // two-round table can.
        let single = single_round(2, &config());
        let double = two_round(2, &config());
        assert_eq!(single.flagged_count(), 0);
        assert!(double.flagged_count() > 0);
    }

    #[test]
    fn zero_window_is_never_flagged() {
        for width in 1..=6 {
            let table = two_round(width, &config());
            assert!(!table.is_flagged(0), "width {width}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn gladiator_never_flags_more_than_eraser_at_default_calibration(width in 2usize..7) {
            let table = single_round(width, &GladiatorConfig::default());
            prop_assert!(table.flagged_count() <= table.eraser_flagged_count());
        }

        #[test]
        fn zero_pattern_is_never_flagged(width in 1usize..9, lr in 0.01f64..1.0) {
            let table = single_round(width, &GladiatorConfig::default().with_leakage_ratio(lr));
            prop_assert!(!table.is_flagged(0));
        }
    }
}
