//! Prefix-tagged patterns and Quine–McCluskey Boolean minimization (Appendix B).
//!
//! The sequence checker has to match patterns of different widths (2-, 3- and 4-bit for
//! the surface code) with one piece of combinational logic. The paper normalizes the
//! widths by prefix tagging — a `w`-bit pattern is padded to `W+1` bits with a run of
//! ones followed by a zero — builds a truth table over the tagged space, and minimizes
//! it symbolically. This module reproduces that flow with a from-scratch
//! Quine–McCluskey implementation and a greedy prime-implicant cover.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

use crate::labeling::PatternTable;

/// A pattern padded to a uniform width with the paper's index-tag prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaggedPattern {
    bits: u32,
    len: usize,
}

impl TaggedPattern {
    /// Encodes a `width`-bit `pattern` into the tagged space of `max_width`-bit
    /// patterns (total length `max_width + 1`): bits `[0, width)` hold the pattern,
    /// bit `width` is the `0` separator and the remaining high bits are ones.
    ///
    /// # Panics
    /// Panics if `width` is zero, exceeds `max_width`, or the pattern has stray bits.
    #[must_use]
    pub fn encode(width: usize, pattern: u32, max_width: usize) -> Self {
        assert!(width >= 1 && width <= max_width, "width {width} out of range");
        assert!(pattern < (1 << width), "pattern {pattern:#b} wider than {width} bits");
        let len = max_width + 1;
        let ones = ((1u32 << (max_width - width)) - 1) << (width + 1);
        TaggedPattern { bits: pattern | ones, len }
    }

    /// The tagged bit string as an integer (LSB = first adjacent site).
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Total length of the tagged pattern in bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` only for the (impossible) zero-length pattern; present for API symmetry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Display for TaggedPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.len).rev() {
            write!(f, "{}", (self.bits >> i) & 1)?;
        }
        Ok(())
    }
}

/// One product term of a DNF expression: the input matches when
/// `input & mask == value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Term {
    /// Bits that the term constrains.
    pub mask: u32,
    /// Required values on the constrained bits.
    pub value: u32,
}

impl Term {
    /// Number of literals (constrained bits) in the term.
    #[must_use]
    pub fn literals(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// `true` when `input` satisfies the term.
    #[must_use]
    pub fn matches(&self, input: u32) -> bool {
        input & self.mask == self.value
    }
}

/// A minimized disjunctive-normal-form expression over `num_bits` inputs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BooleanExpression {
    num_bits: usize,
    terms: Vec<Term>,
}

impl BooleanExpression {
    /// Builds (and minimizes) the expression that is true exactly on `minterms`.
    #[must_use]
    pub fn minimize(num_bits: usize, minterms: &BTreeSet<u32>) -> Self {
        let terms = quine_mccluskey(num_bits, minterms);
        BooleanExpression { num_bits, terms }
    }

    /// Number of input bits.
    #[must_use]
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// The product terms of the expression.
    #[must_use]
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Total number of literals across all terms.
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.terms.iter().map(Term::literals).sum()
    }

    /// Evaluates the expression on an input.
    #[must_use]
    pub fn evaluate(&self, input: u32) -> bool {
        self.terms.iter().any(|t| t.matches(input))
    }
}

impl fmt::Display for BooleanExpression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "false");
        }
        let rendered: Vec<String> = self
            .terms
            .iter()
            .map(|t| {
                let literals: Vec<String> = (0..self.num_bits)
                    .filter(|&i| t.mask >> i & 1 == 1)
                    .map(|i| if t.value >> i & 1 == 1 { format!("x{i}") } else { format!("!x{i}") })
                    .collect();
                format!("({})", literals.join(" & "))
            })
            .collect();
        write!(f, "{}", rendered.join(" | "))
    }
}

/// Quine–McCluskey: derive prime implicants and cover the minterms greedily
/// (essential implicants first).
fn quine_mccluskey(num_bits: usize, minterms: &BTreeSet<u32>) -> Vec<Term> {
    if minterms.is_empty() {
        return Vec::new();
    }
    let full_mask = if num_bits >= 32 { u32::MAX } else { (1u32 << num_bits) - 1 };

    // Implicant = (mask of cared bits, value). Start with the minterms themselves.
    let mut current: BTreeSet<(u32, u32)> = minterms.iter().map(|&m| (full_mask, m)).collect();
    let mut primes: BTreeSet<(u32, u32)> = BTreeSet::new();

    while !current.is_empty() {
        let list: Vec<(u32, u32)> = current.iter().copied().collect();
        let mut combined_away: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut next: BTreeSet<(u32, u32)> = BTreeSet::new();
        for (i, &(mask_a, val_a)) in list.iter().enumerate() {
            for &(mask_b, val_b) in list.iter().skip(i + 1) {
                if mask_a != mask_b {
                    continue;
                }
                let diff = val_a ^ val_b;
                if diff.count_ones() == 1 {
                    next.insert((mask_a & !diff, val_a & !diff));
                    combined_away.insert((mask_a, val_a));
                    combined_away.insert((mask_b, val_b));
                }
            }
        }
        for implicant in &list {
            if !combined_away.contains(implicant) {
                primes.insert(*implicant);
            }
        }
        current = next;
    }

    // Greedy cover: essential primes first, then the prime covering the most remaining
    // minterms.
    let prime_list: Vec<(u32, u32)> = primes.into_iter().collect();
    let covers = |p: &(u32, u32), m: u32| m & p.0 == p.1;
    let mut uncovered: BTreeSet<u32> = minterms.clone();
    let mut chosen: Vec<(u32, u32)> = Vec::new();

    // Essential primes.
    for &m in minterms {
        let covering: Vec<&(u32, u32)> = prime_list.iter().filter(|p| covers(p, m)).collect();
        if covering.len() == 1 {
            let p = *covering[0];
            if !chosen.contains(&p) {
                chosen.push(p);
            }
        }
    }
    for p in &chosen {
        uncovered.retain(|&m| !covers(p, m));
    }
    while !uncovered.is_empty() {
        let best = prime_list
            .iter()
            .filter(|p| !chosen.contains(p))
            .max_by_key(|p| uncovered.iter().filter(|&&m| covers(p, m)).count())
            .copied();
        let Some(best) = best else { break };
        uncovered.retain(|&m| !covers(&best, m));
        chosen.push(best);
    }

    chosen.into_iter().map(|(mask, value)| Term { mask, value }).collect()
}

/// Builds the minimized expression that recognizes the flagged patterns of a set of
/// single-round tables of different widths, over the prefix-tagged input space.
#[must_use]
pub fn minimize_tagged<'a>(
    tables: impl Iterator<Item = (usize, &'a PatternTable)>,
) -> BooleanExpression {
    let collected: Vec<(usize, &PatternTable)> = tables.collect();
    let max_width = collected.iter().map(|(w, _)| *w).max().unwrap_or(1);
    let mut minterms = BTreeSet::new();
    for (width, table) in collected {
        for pattern in table.flagged_patterns() {
            minterms.insert(TaggedPattern::encode(width, pattern, max_width).bits());
        }
    }
    BooleanExpression::minimize(max_width + 1, &minterms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GladiatorConfig;
    use crate::site_class::SiteClass;
    use proptest::prelude::*;

    #[test]
    fn tagging_matches_paper_prefixes() {
        // 4-bit patterns are prefixed with "0", 3-bit with "10", 2-bit with "110".
        let four = TaggedPattern::encode(4, 0b1010, 4);
        assert_eq!(format!("{four}"), "01010");
        let three = TaggedPattern::encode(3, 0b011, 4);
        assert_eq!(format!("{three}"), "10011");
        let two = TaggedPattern::encode(2, 0b01, 4);
        assert_eq!(format!("{two}"), "11001");
        assert_eq!(four.len(), 5);
        assert!(!four.is_empty());
    }

    #[test]
    fn tagged_patterns_of_different_widths_never_collide() {
        let mut seen = BTreeSet::new();
        for width in 1..=4usize {
            for pattern in 0..(1u32 << width) {
                let tagged = TaggedPattern::encode(width, pattern, 4).bits();
                assert!(seen.insert(tagged), "collision for width {width} pattern {pattern:b}");
            }
        }
    }

    #[test]
    fn minimization_of_full_space_is_single_empty_term() {
        let minterms: BTreeSet<u32> = (0..8).collect();
        let expr = BooleanExpression::minimize(3, &minterms);
        assert_eq!(expr.terms().len(), 1);
        assert_eq!(expr.terms()[0].literals(), 0);
        assert!(expr.evaluate(0b101));
    }

    #[test]
    fn minimization_of_classic_example() {
        // f = x&y | !x&!y (XNOR) cannot be reduced below two 2-literal terms.
        let minterms: BTreeSet<u32> = [0b00, 0b11].into_iter().collect();
        let expr = BooleanExpression::minimize(2, &minterms);
        assert_eq!(expr.terms().len(), 2);
        assert_eq!(expr.literal_count(), 4);
    }

    #[test]
    fn empty_minterm_set_is_false() {
        let expr = BooleanExpression::minimize(4, &BTreeSet::new());
        assert!(expr.terms().is_empty());
        assert!(!expr.evaluate(0b1111));
        assert_eq!(format!("{expr}"), "false");
    }

    #[test]
    fn display_contains_literals() {
        let minterms: BTreeSet<u32> = [0b10].into_iter().collect();
        let expr = BooleanExpression::minimize(2, &minterms);
        let rendered = format!("{expr}");
        assert!(rendered.contains("x1"));
        assert!(rendered.contains("!x0"));
    }

    #[test]
    fn minimize_tagged_agrees_with_tables() {
        let config = GladiatorConfig::default();
        let tables: Vec<(usize, PatternTable)> = [2usize, 3, 4]
            .iter()
            .map(|&w| (w, PatternTable::build(&SiteClass::uniform(w), &config, 1)))
            .collect();
        let expr = minimize_tagged(tables.iter().map(|(w, t)| (*w, t)));
        for (width, table) in &tables {
            for pattern in 0..(1u32 << width) {
                let tagged = TaggedPattern::encode(*width, pattern, 4).bits();
                assert_eq!(expr.evaluate(tagged), table.is_flagged(pattern));
            }
        }
        // The paper's minimized surface-code checker has five product terms; ours must
        // land in the same ballpark for the same calibration.
        assert!(expr.terms().len() <= 10, "expression should stay compact");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn minimized_expression_is_equivalent_to_truth_table(
            bits in 2usize..6,
            seed in any::<u64>(),
        ) {
            let size = 1u32 << bits;
            let mut state = seed | 1;
            let mut minterms = BTreeSet::new();
            for value in 0..size {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if state >> 63 == 1 {
                    minterms.insert(value);
                }
            }
            let expr = BooleanExpression::minimize(bits, &minterms);
            for value in 0..size {
                prop_assert_eq!(expr.evaluate(value), minterms.contains(&value));
            }
        }
    }
}
