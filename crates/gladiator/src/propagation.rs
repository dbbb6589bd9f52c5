//! Error propagation: how leakage and ordinary faults transform syndrome patterns
//! (Figure 6 of the paper), enumerated over a window of one or two rounds.
//!
//! For a data qubit with `n` adjacent parity sites (checks measured in CNOT time order
//! `A1 … An`), a round's *pattern* is an `n`-bit mask whose bit `i` (LSB = `A1`) records
//! whether the detector of site `i` flipped that round. A window concatenates the
//! patterns of its rounds, round `t` in bits `t·n .. (t+1)·n`. Starting from the
//! error-free window, every fault location either
//!
//! * **leaks the data qubit**, after which every remaining CNOT of the window
//!   malfunctions and flips its site with probability ½ (so all suffix sub-patterns
//!   become reachable with geometric weights), or
//! * is an **ordinary (non-leakage) fault** — a data Pauli before/between CNOTs, a
//!   readout/reset flip on one site, or a CNOT depolarizing fault — which produces a
//!   *deterministic* pattern in its own round and a deterministic *echo* in the next:
//!   a persistent data error re-announces itself on the detecting sites it had not
//!   reached, and a flipped readout toggles its detector once more.
//!
//! [`fault_weights`] sums both enumerations per window pattern; the labeling stage
//! compares the two sums. GLADIATOR's tables use a one-round window, whose echoes fall
//! outside it. GLADIATOR-D (Section 5.2) uses a two-round window, in which the echo of
//! a round-1 fault tells a persistent Pauli error from a leaked qubit that keeps
//! flipping sites at random.

use crate::config::GladiatorConfig;
use crate::site_class::SiteClass;

/// Weight of one CNOT depolarizing fault relative to `p`.
const GATE_FAULT_FRACTION: f64 = 0.25;

/// Background non-leakage weight `BACKGROUND_FAULT_FACTOR · p²` added to every
/// pattern, accounting for the aggregate probability of multi-fault combinations that
/// are not enumerated explicitly (crosstalk, hook-error chains, ≥3 faults). Keeps
/// extremely unlikely leakage explanations from winning by default.
const BACKGROUND_FAULT_FACTOR: f64 = 2.0;

/// The X, Z and Y components of a depolarizing fault, one third of its weight each.
const PAULIS: [(bool, bool); 3] = [(true, false), (false, true), (true, true)];

/// Enumerates the fault model of `site_class` over a window of `window` rounds (1 or
/// 2) and returns every window pattern's leakage and non-leakage weight (the paper's
/// super-edge weights `W_L` and `W_NL`), indexed by `round₂ << width | round₁`.
///
/// # Panics
/// Panics if `window` is not 1 or 2, or if the class width is outside `1..=16` for one
/// round or `1..=12` for two (the window grows as `4^width`).
#[must_use]
pub fn fault_weights(
    site_class: &SiteClass,
    config: &GladiatorConfig,
    window: usize,
) -> (Vec<f64>, Vec<f64>) {
    let width = site_class.width;
    let max_width = match window {
        1 => 16,
        2 => 12,
        _ => panic!("window of {window} rounds, expected 1 or 2"),
    };
    assert!((1..=max_width).contains(&width), "pattern width {width} out of range 1..={max_width}");
    let bits = window * width;

    // A leak in round t after its first j CNOTs (j = 0: at round start, or carried in)
    // leaves the sites measured before it clean; every later site of the window flips
    // at random. j = width is a leak just before measurement, invisible in its round.
    let p_leak = config.p_leak();
    let mut leakage = vec![0.0; 1 << bits];
    for t in 0..window {
        for j in 0..=width {
            let clean = t * width + j;
            let share = p_leak / (1u64 << (bits - clean)) as f64;
            for random in 0..1usize << (bits - clean) {
                leakage[random << clean] += share;
            }
        }
    }

    // Ordinary faults of one round as (pattern, echo). A data Pauli after the first j
    // CNOTs flips the detecting sites measured later this round, and the detecting
    // sites it missed next round.
    let after = |mask: u32, j: usize| {
        let missed = (1u32 << j) - 1;
        (mask & !missed, mask & missed)
    };
    // A fault in round t shows its pattern in round t and its echo in round t + 1, when
    // the window has one.
    let place = |t: usize, (pattern, echo): (u32, u32)| {
        let echo = if t + 1 < window { echo << width } else { 0 };
        (pattern | echo) << (t * width)
    };
    let p = config.p;
    let g = GATE_FAULT_FRACTION * p;
    let mut faults: Vec<(u32, f64)> = Vec::new();
    for (x, z) in PAULIS {
        let mask = site_class.detection_mask(x, z);
        for t in 0..window {
            for j in 0..=width {
                faults.push((place(t, after(mask, j)), p / 3.0));
            }
        }
    }
    // Readout / reset fault: the site's detector flips now and again next round.
    for i in 0..width {
        for t in 0..window {
            faults.push((place(t, (1 << i, 1 << i)), p));
        }
    }
    // CNOT i depolarizing fault: ancilla-only flip, data-propagating part, or both.
    for i in 0..width {
        let ancilla = (1u32 << i, 1u32 << i);
        for t in 0..window {
            faults.push((place(t, ancilla), g));
        }
        for (x, z) in PAULIS {
            let data = after(site_class.detection_mask(x, z), i + 1);
            let both = (data.0 ^ ancilla.0, data.1 ^ ancilla.1);
            for t in 0..window {
                faults.push((place(t, data), g / 3.0));
                faults.push((place(t, both), g / 3.0));
            }
        }
    }

    let mut nonleakage = vec![0.0; 1 << bits];
    for &(pattern, weight) in &faults {
        nonleakage[pattern as usize] += weight;
    }
    // Second order: two independent faults in the same window.
    for (a, &(pattern_a, weight_a)) in faults.iter().enumerate() {
        for &(pattern_b, weight_b) in &faults[a + 1..] {
            nonleakage[(pattern_a ^ pattern_b) as usize] += weight_a * weight_b;
        }
    }
    // Every pattern keeps a small residual non-leakage explanation.
    let background = BACKGROUND_FAULT_FACTOR * p * p;
    for weight in &mut nonleakage {
        *weight += background;
    }
    // The dominant "nothing happened" prior keeps the all-zero pattern non-leakage.
    let used: f64 = nonleakage.iter().sum();
    nonleakage[0] += (1.0 - used).max(0.0);

    (leakage, nonleakage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config() -> GladiatorConfig {
        GladiatorConfig::default()
    }

    fn uniform_weights(width: usize) -> (Vec<f64>, Vec<f64>) {
        fault_weights(&SiteClass::uniform(width), &config(), 1)
    }

    #[test]
    fn leakage_weight_counts_all_locations() {
        let (leakage, _) = uniform_weights(4);
        // width + 1 leak locations (round start + after each of the 4 CNOTs), each with
        // prior p_leak.
        let expected = 5.0 * config().p_leak();
        assert!((leakage.iter().sum::<f64>() - expected).abs() < 1e-12);
        assert_eq!(leakage.len(), 16);
    }

    #[test]
    fn leakage_prefers_low_prefix_patterns() {
        // Patterns whose early (low-index) bits are zero are reachable from more leak
        // locations, so they accumulate more leakage weight.
        let (leakage, _) = uniform_weights(4);
        let late_only = leakage[0b1000];
        let early = leakage[0b0001];
        assert!(late_only > early, "late-bit patterns should carry more leakage weight");
    }

    #[test]
    fn pattern_with_first_bit_set_only_reachable_from_round_start_leak() {
        let (leakage, _) = uniform_weights(4);
        assert!((leakage[0b1001] - config().p_leak() / 16.0).abs() < 1e-15);
    }

    #[test]
    fn non_leakage_first_order_targets_are_suffixes_singles_and_all_ones() {
        let (_, nonleakage) = uniform_weights(4);
        // "0011" in the paper's time order (A3, A4 flipped) is the mask 0b1100 and must
        // be a strong first-order pattern.
        assert!(nonleakage[0b1100] >= config().p, "W_NL(0011) = {}", nonleakage[0b1100]);
        // An alternating pattern like A1,A3 (mask 0b0101) is no first-order fault's
        // pattern: only second-order pairs and the background reach it.
        assert!(nonleakage[0b0101] > 0.0);
        assert!(nonleakage[0b0101] < config().p / 100.0, "W_NL(1010) = {}", nonleakage[0b0101]);
    }

    #[test]
    fn no_fault_prior_dominates_the_zero_pattern() {
        let (_, nonleakage) = uniform_weights(4);
        assert!(nonleakage[0] > 0.9, "zero pattern should carry the no-fault prior");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn leakage_weights_are_probability_like(width in 1usize..9) {
            let (leakage, _) = uniform_weights(width);
            // Every pattern is reachable by leakage (round-start leak randomizes all
            // bits), and each of the width + 1 leak locations carries exactly p_leak.
            for &weight in &leakage {
                prop_assert!(weight > 0.0);
            }
            let total: f64 = leakage.iter().sum();
            prop_assert!((total - (width + 1) as f64 * config().p_leak()).abs() < 1e-12);
        }

        #[test]
        fn non_leakage_weight_is_close_to_one(width in 1usize..9) {
            let (_, nonleakage) = uniform_weights(width);
            let total: f64 = nonleakage.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-6, "total weight {total}");
        }
    }
}
