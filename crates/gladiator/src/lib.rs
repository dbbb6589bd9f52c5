//! GLADIATOR: graphical-model leakage speculation for quantum error correction.
//!
//! This crate is the paper's primary contribution: an **offline**, code-aware model
//! that decides which syndrome patterns around a data qubit are *leakage-dominated*
//! and should trigger a leakage-reduction circuit (LRC), and which are better explained
//! by ordinary Pauli noise and can be ignored.
//!
//! The pipeline mirrors Section 4 of the paper:
//!
//! 1. [`propagation`] enumerates, for every data-qubit site class of a code, where the
//!    data qubit can leak and which ordinary faults can occur, over a window of one
//!    round (GLADIATOR) or two rounds (GLADIATOR-D, which the paper uses for
//!    sparse-syndrome codes such as the color code). Every fault is weighted by the
//!    device error rates and summed into the syndrome patterns it produces.
//! 2. [`labeling`] labels each pattern as *leakage* when its accumulated leakage
//!    weight exceeds its non-leakage weight by a threshold factor, producing a
//!    [`PatternTable`] (the runtime lookup table).
//! 3. [`boolean`] converts the flagged pattern set into a minimized disjunctive normal
//!    form via Quine–McCluskey (the paper uses SymPy), matching Appendix B.
//! 4. [`hardware`] estimates the FPGA LUT cost of the resulting sequence checker and of
//!    ERASER's per-qubit FSM (Table 3).
//! 5. [`mobility`] implements the leakage-mobility estimator of Section 7.6 (Table 6).
//!
//! The entry point is [`GladiatorModel::for_code`], which builds every table a runtime
//! policy needs for a given [`qec_codes::Code`].
//!
//! # Example
//!
//! ```
//! use gladiator::{GladiatorConfig, GladiatorModel};
//! use qec_codes::Code;
//!
//! let code = Code::rotated_surface(5);
//! let model = GladiatorModel::for_code(&code, GladiatorConfig::default());
//! // The four-neighbour (bulk) table flags strictly fewer patterns than ERASER's
//! // "at least half the bits flipped" heuristic (11 of 16).
//! let table = model.single_round_table(4).expect("bulk degree class exists");
//! assert!(table.flagged_count() < 11);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod boolean;
pub mod config;
pub mod hardware;
pub mod labeling;
pub mod mobility;
pub mod propagation;
pub mod site_class;

pub use boolean::{BooleanExpression, TaggedPattern};
pub use config::GladiatorConfig;
pub use hardware::{eraser_lut_estimate, gladiator_lut_estimate, LutReport};
pub use labeling::PatternTable;
pub use mobility::{MobilityEstimator, MobilityRegime};
pub use site_class::SiteClass;

use std::collections::BTreeMap;

use qec_codes::Code;

/// The complete offline GLADIATOR model for one code: a single-round pattern table and
/// a two-round (GLADIATOR-D) table per site class.
///
/// Width-keyed queries read the *uniform class* of that width,
/// [`SiteClass::uniform`], in which every site detects every Pauli; the model holds it
/// for every width it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct GladiatorModel {
    config: GladiatorConfig,
    single_round: BTreeMap<SiteClass, PatternTable>,
    two_round: BTreeMap<SiteClass, PatternTable>,
}

impl GladiatorModel {
    /// Builds the model for every parity-site class occurring in `code`: one
    /// basis-aware table per distinct (width, detection-signature) class, plus the
    /// uniform class of every width, used for reporting and hardware synthesis.
    #[must_use]
    pub fn for_code(code: &Code, config: GladiatorConfig) -> Self {
        Self::for_classes(SiteClass::classes_of(code), config)
    }

    /// Builds the model for an explicit list of degree classes (pattern widths) in the
    /// simplified basis-agnostic form.
    #[must_use]
    pub fn for_degrees(degrees: &[usize], config: GladiatorConfig) -> Self {
        Self::for_classes(degrees.iter().map(|&width| SiteClass::uniform(width)), config)
    }

    /// Builds both windows for every class and for the uniform class of its width.
    fn for_classes(classes: impl IntoIterator<Item = SiteClass>, config: GladiatorConfig) -> Self {
        let mut single_round = BTreeMap::new();
        let mut two_round = BTreeMap::new();
        for class in classes {
            for class in [class, SiteClass::uniform(class.width)] {
                single_round
                    .entry(class)
                    .or_insert_with(|| PatternTable::build(&class, &config, 1));
                two_round.entry(class).or_insert_with(|| PatternTable::build(&class, &config, 2));
            }
        }
        GladiatorModel { config, single_round, two_round }
    }

    /// The configuration used to build this model.
    #[must_use]
    pub fn config(&self) -> &GladiatorConfig {
        &self.config
    }

    /// Single-round pattern table for a data qubit with `width` adjacent checks.
    #[must_use]
    pub fn single_round_table(&self, width: usize) -> Option<&PatternTable> {
        self.single_round.get(&SiteClass::uniform(width))
    }

    /// Two-round (GLADIATOR-D) pattern table for `width` adjacent checks.
    #[must_use]
    pub fn two_round_table(&self, width: usize) -> Option<&PatternTable> {
        self.two_round.get(&SiteClass::uniform(width))
    }

    /// Degree classes covered by this model, ascending.
    #[must_use]
    pub fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.single_round.keys().map(|class| class.width).collect();
        widths.dedup();
        widths
    }

    /// Classifies a single-round pattern: `true` means "leakage-dominated, schedule an
    /// LRC". Patterns for unknown widths are conservatively classified as non-leakage.
    #[must_use]
    pub fn classify(&self, width: usize, pattern: u32) -> bool {
        self.single_round_table(width).is_some_and(|t| t.is_flagged(pattern))
    }

    /// Basis-aware single-round classification for a specific site class (falls back to
    /// the width-keyed table when the class was not prebuilt).
    #[must_use]
    pub fn classify_class(&self, site_class: &SiteClass, pattern: u32) -> bool {
        match self.class_table(site_class) {
            Some(table) => table.is_flagged(pattern),
            None => self.classify(site_class.width, pattern),
        }
    }

    /// Basis-aware two-round classification for a specific site class (falls back to
    /// the width-keyed table when the class was not prebuilt).
    #[must_use]
    pub fn classify_two_round_class(
        &self,
        site_class: &SiteClass,
        round1: u32,
        round2: u32,
    ) -> bool {
        let width = site_class.width;
        let pattern = (u64::from(round2) << width) | u64::from(round1);
        self.two_round
            .get(site_class)
            .or_else(|| self.two_round_table(width))
            .is_some_and(|t| t.is_flagged(pattern as u32))
    }

    /// The basis-aware single-round table for a site class, if it was prebuilt.
    #[must_use]
    pub fn class_table(&self, site_class: &SiteClass) -> Option<&PatternTable> {
        self.single_round.get(site_class)
    }

    /// Classifies a two-round pattern (`round1` in the low bits, `round2` shifted by
    /// `width`), as used by GLADIATOR-D.
    #[must_use]
    pub fn classify_two_round(&self, width: usize, round1: u32, round2: u32) -> bool {
        self.classify_two_round_class(&SiteClass::uniform(width), round1, round2)
    }

    /// The minimized Boolean expression over prefix-tagged patterns covering every
    /// single-round degree class (the content of the paper's sequence checker).
    #[must_use]
    pub fn minimized_expression(&self) -> BooleanExpression {
        boolean::minimize_tagged(
            self.widths().into_iter().filter_map(|w| self.single_round_table(w).map(|t| (w, t))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_covers_surface_code_degree_classes() {
        let code = Code::rotated_surface(5);
        let model = GladiatorModel::for_code(&code, GladiatorConfig::default());
        assert_eq!(model.widths(), vec![2, 3, 4]);
        assert!(model.single_round_table(4).is_some());
        assert!(model.two_round_table(4).is_some());
        assert!(model.single_round_table(7).is_none());
    }

    #[test]
    fn surface_bulk_class_flags_eight_of_sixteen_patterns() {
        // Paper, Section 1: "eraser flags 11/16 syndrome patterns as leakage-causing
        // patterns, whereas gladiator flags only 8/16".
        let model = GladiatorModel::for_degrees(&[4], GladiatorConfig::default());
        let table = model.single_round_table(4).expect("table exists");
        assert_eq!(table.flagged_count(), 8);
    }

    #[test]
    fn pattern_0011_is_not_flagged_but_1001_is() {
        // Paper, Section 1: "pattern 0011 is more likely to be caused by non-leakage
        // ... while the pattern 1001 most likely indicates a leakage".
        // Bit 0 is the first adjacent check in CNOT order, so the time-ordered string
        // "0011" (A1=0, A2=0, A3=1, A4=1) is the mask 0b1100.
        let model = GladiatorModel::for_degrees(&[4], GladiatorConfig::default());
        assert!(!model.classify(4, 0b1100), "suffix pattern 0011 must not be flagged");
        assert!(model.classify(4, 0b1001), "pattern 1001 must be flagged");
    }

    #[test]
    fn unknown_width_classifies_as_non_leakage() {
        let model = GladiatorModel::for_degrees(&[4], GladiatorConfig::default());
        assert!(!model.classify(9, 0b111111111));
    }

    #[test]
    fn two_round_classification_uses_both_rounds() {
        let model = GladiatorModel::for_degrees(&[4], GladiatorConfig::default());
        // A one-shot burst of flips explained by a round-1 data error that re-announces
        // itself as a prefix in round 2 is non-leakage; random-looking flips in both
        // rounds indicate leakage.
        let non_leak = model.classify_two_round(4, 0b1100, 0b0011);
        let leak = model.classify_two_round(4, 0b0000, 0b1001);
        assert!(!non_leak);
        assert!(leak);
    }

    #[test]
    fn minimized_expression_matches_flagged_sets() {
        let model = GladiatorModel::for_degrees(&[2, 3, 4], GladiatorConfig::default());
        let expr = model.minimized_expression();
        for &width in &[2usize, 3, 4] {
            let table = model.single_round_table(width).expect("table");
            for pattern in 0..(1u32 << width) {
                let tagged = boolean::TaggedPattern::encode(width, pattern, 4);
                assert_eq!(
                    expr.evaluate(tagged.bits()),
                    table.is_flagged(pattern),
                    "width {width} pattern {pattern:0width$b}"
                );
            }
        }
    }
}
