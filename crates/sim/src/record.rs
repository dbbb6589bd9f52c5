//! The record of one simulated run, packed in one arena per shot.
//!
//! A [`RunRecord`] keeps every flag vector of a run as packed words (see
//! [`crate::bits`]) in one `Vec<u64>`: the three final vectors first, then
//! each round's six at a fixed stride. Every round's LRC indices sit in one
//! `Vec<usize>` with per-round bounds, and cycle times in one `Vec<f64>`.
//! Appending a round ([`RunRecord::push_round`]) writes in place, so a run
//! reserved for its round count ([`RunRecord::with_capacity`]) allocates
//! nothing per round. Callers read rounds through borrowed views
//! ([`Rounds`], [`RoundView`]) whose methods keep the names of the round's
//! fields.

use std::fmt;
use std::ops::Range;

use qec_codes::{CheckId, DataQubitId};

use crate::bits::{words_for, Bits, BitsMut};

/// Flag lengths of a run and the word counts that hold them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    num_data: usize,
    num_checks: usize,
    data_words: usize,
    check_words: usize,
}

impl Layout {
    fn new(num_data: usize, num_checks: usize) -> Self {
        Layout {
            num_data,
            num_checks,
            data_words: words_for(num_data),
            check_words: words_for(num_checks),
        }
    }

    /// Words of the three final vectors, ahead of the rounds.
    fn head(self) -> usize {
        2 * self.data_words + self.check_words
    }

    /// Words of one round: measurements, detectors, MLR flags and ancilla
    /// leaks after (per check), then data leaks before and after.
    fn stride(self) -> usize {
        4 * self.check_words + 2 * self.data_words
    }

    fn split_round(self, words: &mut [u64]) -> RoundFlagsMut<'_> {
        let (checks, data) = words.split_at_mut(4 * self.check_words);
        let (measurements, checks) = checks.split_at_mut(self.check_words);
        let (detectors, checks) = checks.split_at_mut(self.check_words);
        let (mlr_leak_flags, ancilla_leak_after) = checks.split_at_mut(self.check_words);
        let (data_leak_before, data_leak_after) = data.split_at_mut(self.data_words);
        let checks = |words| BitsMut::new(words, self.num_checks);
        let data = |words| BitsMut::new(words, self.num_data);
        RoundFlagsMut {
            measurements: checks(measurements),
            detectors: checks(detectors),
            mlr_leak_flags: checks(mlr_leak_flags),
            ancilla_leak_after: checks(ancilla_leak_after),
            data_leak_before: data(data_leak_before),
            data_leak_after: data(data_leak_after),
        }
    }
}

/// A complete simulated run: every round's observations and ground truth,
/// plus the final data frames needed for decoding and logical-error
/// determination.
///
/// The *observable* part of a round — measurements, detectors, MLR flags — is
/// what a [`crate::LeakagePolicy`] may use for speculation. The ground-truth
/// leak snapshots are recorded so that the experiment harness can score false
/// positives and false negatives exactly.
#[derive(Clone, PartialEq)]
pub struct RunRecord {
    layout: Layout,
    /// The final data X frames, data Z frames and perfect measurements, then
    /// `layout.stride()` words per round.
    words: Vec<u64>,
    /// Each round's data LRCs, then its ancilla LRCs, in round order.
    lrcs: Vec<usize>,
    /// Per round, the ends in `lrcs` of its data LRCs and of its ancilla LRCs.
    lrc_ends: Vec<usize>,
    /// Per round, its wall-clock duration in ns under the cycle-time model.
    cycle_times: Vec<f64>,
}

/// Mutable access to one round's six flag vectors.
pub struct RoundFlagsMut<'a> {
    /// Raw parity-qubit measurement outcomes, indexed by check id.
    pub measurements: BitsMut<'a>,
    /// Detection events, indexed by check id.
    pub detectors: BitsMut<'a>,
    /// Multi-level-readout verdicts per check id.
    pub mlr_leak_flags: BitsMut<'a>,
    /// Ground truth: ancilla leak flags at the end of the round.
    pub ancilla_leak_after: BitsMut<'a>,
    /// Ground truth: data leak flags before the round's LRCs.
    pub data_leak_before: BitsMut<'a>,
    /// Ground truth: data leak flags at the end of the round.
    pub data_leak_after: BitsMut<'a>,
}

/// Mutable access to a run's three final vectors.
pub struct FinalFlagsMut<'a> {
    /// Final bit-flip (X) frame of every data qubit.
    pub final_data_x: BitsMut<'a>,
    /// Final phase-flip (Z) frame of every data qubit.
    pub final_data_z: BitsMut<'a>,
    /// The final round of noiseless check measurements.
    pub final_perfect_measurements: BitsMut<'a>,
}

impl RunRecord {
    /// An empty run of a code with `num_data` data qubits and `num_checks`
    /// checks; its final vectors are clear.
    #[must_use]
    pub fn new(num_data: usize, num_checks: usize) -> Self {
        Self::with_capacity(num_data, num_checks, 0)
    }

    /// An empty run with room for `rounds` rounds, so appending them
    /// allocates only for LRC indices beyond one per round.
    #[must_use]
    pub fn with_capacity(num_data: usize, num_checks: usize, rounds: usize) -> Self {
        let layout = Layout::new(num_data, num_checks);
        let mut words = Vec::with_capacity(layout.head() + rounds * layout.stride());
        words.resize(layout.head(), 0);
        RunRecord {
            layout,
            words,
            lrcs: Vec::with_capacity(rounds),
            lrc_ends: Vec::with_capacity(2 * rounds),
            cycle_times: Vec::with_capacity(rounds),
        }
    }

    /// A run holding a copy of `rounds` (a prefix of another run) with room
    /// for `capacity` rounds; its final vectors are clear.
    #[must_use]
    pub fn from_prefix(rounds: Rounds<'_>, capacity: usize) -> Self {
        let source = rounds.run;
        let Layout { num_data, num_checks, .. } = source.layout;
        let mut run = Self::with_capacity(num_data, num_checks, capacity.max(rounds.len));
        let head = source.layout.head();
        run.words
            .extend_from_slice(&source.words[head..head + rounds.len * source.layout.stride()]);
        let lrc_end = rounds.len.checked_sub(1).map_or(0, |last| source.lrc_ends[2 * last + 1]);
        run.lrcs.extend_from_slice(&source.lrcs[..lrc_end]);
        run.lrc_ends.extend_from_slice(&source.lrc_ends[..2 * rounds.len]);
        run.cycle_times.extend_from_slice(&source.cycle_times[..rounds.len]);
        run
    }

    /// Number of simulated rounds.
    #[must_use]
    pub fn num_rounds(&self) -> usize {
        self.cycle_times.len()
    }

    /// Every round, in execution order.
    #[must_use]
    pub fn rounds(&self) -> Rounds<'_> {
        Rounds { run: self, len: self.num_rounds() }
    }

    /// Round `index`.
    ///
    /// # Panics
    /// Panics if `index >= num_rounds()`.
    #[must_use]
    pub fn round(&self, index: usize) -> RoundView<'_> {
        assert!(index < self.num_rounds(), "round {index} of a {}-round run", self.num_rounds());
        RoundView { run: self, index }
    }

    /// Final bit-flip (X) frame of every data qubit after leaked qubits were
    /// depolarized and returned to the computational subspace.
    #[must_use]
    pub fn final_data_x(&self) -> Bits<'_> {
        Bits::new(&self.words[..self.layout.data_words], self.layout.num_data)
    }

    /// Final phase-flip (Z) frame of every data qubit.
    #[must_use]
    pub fn final_data_z(&self) -> Bits<'_> {
        let words = self.layout.data_words;
        Bits::new(&self.words[words..2 * words], self.layout.num_data)
    }

    /// A final round of *noiseless* check measurements (the standard perfect
    /// readout appended for decoding), indexed by check id.
    #[must_use]
    pub fn final_perfect_measurements(&self) -> Bits<'_> {
        let start = 2 * self.layout.data_words;
        Bits::new(&self.words[start..self.layout.head()], self.layout.num_checks)
    }

    /// Mutable access to the three final vectors.
    pub fn finals_mut(&mut self) -> FinalFlagsMut<'_> {
        let layout = self.layout;
        let (x, rest) = self.words[..layout.head()].split_at_mut(layout.data_words);
        let (z, perfect) = rest.split_at_mut(layout.data_words);
        FinalFlagsMut {
            final_data_x: BitsMut::new(x, layout.num_data),
            final_data_z: BitsMut::new(z, layout.num_data),
            final_perfect_measurements: BitsMut::new(perfect, layout.num_checks),
        }
    }

    /// Appends a round with the given LRCs and cycle time, all of its flags
    /// clear, and returns its flags for the caller to fill.
    pub fn push_round(
        &mut self,
        data_lrcs: &[DataQubitId],
        ancilla_lrcs: &[CheckId],
        cycle_time_ns: f64,
    ) -> RoundFlagsMut<'_> {
        self.lrcs.extend_from_slice(data_lrcs);
        self.lrc_ends.push(self.lrcs.len());
        self.lrcs.extend_from_slice(ancilla_lrcs);
        self.lrc_ends.push(self.lrcs.len());
        self.cycle_times.push(cycle_time_ns);
        let start = self.words.len();
        self.words.resize(start + self.layout.stride(), 0);
        self.layout.split_round(&mut self.words[start..])
    }

    /// Mutable access to the flags of round `index`.
    ///
    /// # Panics
    /// Panics if `index >= num_rounds()`.
    pub fn round_mut(&mut self, index: usize) -> RoundFlagsMut<'_> {
        let words = self.round(index).words_range();
        self.layout.split_round(&mut self.words[words])
    }

    /// Total LRCs applied over the run.
    #[must_use]
    pub fn total_lrcs(&self) -> usize {
        self.lrcs.len()
    }

    /// Total LRCs applied to data qubits only.
    #[must_use]
    pub fn total_data_lrcs(&self) -> usize {
        self.rounds().iter().map(|round| round.data_lrcs().len()).sum()
    }

    /// Average data-leakage population over the run (the paper's DLP metric).
    #[must_use]
    pub fn average_data_leak_fraction(&self) -> f64 {
        if self.num_rounds() == 0 {
            return 0.0;
        }
        self.rounds().iter().map(RoundView::data_leak_fraction).sum::<f64>()
            / self.num_rounds() as f64
    }

    /// Data-leakage population of the final round.
    #[must_use]
    pub fn final_data_leak_fraction(&self) -> f64 {
        self.rounds().last().map_or(0.0, RoundView::data_leak_fraction)
    }

    /// Total simulated wall-clock time in nanoseconds.
    #[must_use]
    pub fn total_time_ns(&self) -> f64 {
        self.cycle_times.iter().sum()
    }
}

impl fmt::Debug for RunRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunRecord")
            .field("rounds", &self.rounds())
            .field("final_data_x", &self.final_data_x())
            .field("final_data_z", &self.final_data_z())
            .field("final_perfect_measurements", &self.final_perfect_measurements())
            .finish()
    }
}

/// A borrowed run of consecutive rounds from round 0: a whole run
/// ([`RunRecord::rounds`]) or the history before some round
/// ([`Rounds::prefix`]).
#[derive(Clone, Copy)]
pub struct Rounds<'a> {
    run: &'a RunRecord,
    len: usize,
}

impl<'a> Rounds<'a> {
    /// Number of rounds.
    #[must_use]
    pub fn len(self) -> usize {
        self.len
    }

    /// `true` when there are no rounds.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Round `index`, if it is one of these rounds.
    #[must_use]
    pub fn get(self, index: usize) -> Option<RoundView<'a>> {
        (index < self.len).then_some(RoundView { run: self.run, index })
    }

    /// The most recent round, if any.
    #[must_use]
    pub fn last(self) -> Option<RoundView<'a>> {
        self.get(self.len.checked_sub(1)?)
    }

    /// The first `len` rounds.
    ///
    /// # Panics
    /// Panics if `len` exceeds the number of rounds.
    #[must_use]
    pub fn prefix(self, len: usize) -> Rounds<'a> {
        assert!(len <= self.len, "a {len}-round prefix of {} rounds", self.len);
        Rounds { run: self.run, len }
    }

    /// The rounds, oldest first.
    #[must_use]
    pub fn iter(self) -> RoundIter<'a> {
        RoundIter { run: self.run, indices: 0..self.len }
    }
}

impl<'a> IntoIterator for Rounds<'a> {
    type Item = RoundView<'a>;
    type IntoIter = RoundIter<'a>;

    fn into_iter(self) -> RoundIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Rounds<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over the rounds of a [`Rounds`].
#[derive(Debug, Clone)]
pub struct RoundIter<'a> {
    run: &'a RunRecord,
    indices: Range<usize>,
}

impl<'a> Iterator for RoundIter<'a> {
    type Item = RoundView<'a>;

    fn next(&mut self) -> Option<RoundView<'a>> {
        self.indices.next().map(|index| RoundView { run: self.run, index })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.indices.size_hint()
    }
}

impl ExactSizeIterator for RoundIter<'_> {}

/// A borrowed view of one round of a [`RunRecord`].
#[derive(Clone, Copy)]
pub struct RoundView<'a> {
    run: &'a RunRecord,
    index: usize,
}

impl<'a> RoundView<'a> {
    /// The round's words in the run's arena.
    fn words_range(self) -> Range<usize> {
        let layout = self.run.layout;
        let start = layout.head() + self.index * layout.stride();
        start..start + layout.stride()
    }

    fn words(self) -> &'a [u64] {
        &self.run.words[self.words_range()]
    }

    /// Check-indexed flag vector `k` of the round's stride.
    fn check_flags(self, k: usize) -> Bits<'a> {
        let layout = self.run.layout;
        let start = k * layout.check_words;
        Bits::new(&self.words()[start..start + layout.check_words], layout.num_checks)
    }

    /// Data-indexed flag vector `k` of the round's stride.
    fn data_flags(self, k: usize) -> Bits<'a> {
        let layout = self.run.layout;
        let start = 4 * layout.check_words + k * layout.data_words;
        Bits::new(&self.words()[start..start + layout.data_words], layout.num_data)
    }

    /// Round index (0-based).
    #[must_use]
    pub fn round(self) -> usize {
        self.index
    }

    /// Raw parity-qubit measurement outcomes, indexed by check id.
    #[must_use]
    pub fn measurements(self) -> Bits<'a> {
        self.check_flags(0)
    }

    /// Detection events: XOR of this round's measurement with the previous
    /// round's, indexed by check id.
    #[must_use]
    pub fn detectors(self) -> Bits<'a> {
        self.check_flags(1)
    }

    /// Multi-level-readout verdicts per check id (set = flagged as leaked).
    /// All clear when MLR is disabled.
    #[must_use]
    pub fn mlr_leak_flags(self) -> Bits<'a> {
        self.check_flags(2)
    }

    /// Ground truth: ancilla leak flags at the end of the round.
    #[must_use]
    pub fn ancilla_leak_after(self) -> Bits<'a> {
        self.check_flags(3)
    }

    /// Ground truth: data-qubit leak flags *before* this round's LRCs were
    /// applied.
    #[must_use]
    pub fn data_leak_before(self) -> Bits<'a> {
        self.data_flags(0)
    }

    /// Ground truth: data-qubit leak flags at the end of the round.
    #[must_use]
    pub fn data_leak_after(self) -> Bits<'a> {
        self.data_flags(1)
    }

    /// Data qubits that received an LRC at the start of this round.
    #[must_use]
    pub fn data_lrcs(self) -> &'a [DataQubitId] {
        let ends = &self.run.lrc_ends;
        let start = if self.index == 0 { 0 } else { ends[2 * self.index - 1] };
        &self.run.lrcs[start..ends[2 * self.index]]
    }

    /// Parity qubits that received an LRC (conditional reset) at the start of
    /// this round.
    #[must_use]
    pub fn ancilla_lrcs(self) -> &'a [CheckId] {
        let ends = &self.run.lrc_ends;
        &self.run.lrcs[ends[2 * self.index]..ends[2 * self.index + 1]]
    }

    /// Wall-clock duration of this round in nanoseconds under the cycle-time
    /// model.
    #[must_use]
    pub fn cycle_time_ns(self) -> f64 {
        self.run.cycle_times[self.index]
    }

    /// Number of data qubits leaked at the end of the round.
    #[must_use]
    pub fn leaked_data_count(self) -> usize {
        self.data_leak_after().count_ones()
    }

    /// Number of ancilla qubits leaked at the end of the round.
    #[must_use]
    pub fn leaked_ancilla_count(self) -> usize {
        self.ancilla_leak_after().count_ones()
    }

    /// Total number of LRC gadgets applied this round.
    #[must_use]
    pub fn lrc_count(self) -> usize {
        self.data_lrcs().len() + self.ancilla_lrcs().len()
    }

    /// Fraction of data qubits leaked at the end of the round (the paper's
    /// data-leakage-population sample for one round).
    #[must_use]
    pub fn data_leak_fraction(self) -> f64 {
        if self.run.layout.num_data == 0 {
            return 0.0;
        }
        self.leaked_data_count() as f64 / self.run.layout.num_data as f64
    }
}

/// Two rounds are equal when their index, flags, LRCs and cycle time are.
impl PartialEq for RoundView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.run.layout == other.run.layout
            && self.words() == other.words()
            && self.data_lrcs() == other.data_lrcs()
            && self.ancilla_lrcs() == other.ancilla_lrcs()
            && self.cycle_time_ns() == other.cycle_time_ns()
    }
}

impl fmt::Debug for RoundView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Round")
            .field("round", &self.index)
            .field("measurements", &self.measurements())
            .field("detectors", &self.detectors())
            .field("mlr_leak_flags", &self.mlr_leak_flags())
            .field("data_lrcs", &self.data_lrcs())
            .field("ancilla_lrcs", &self.ancilla_lrcs())
            .field("data_leak_before", &self.data_leak_before())
            .field("data_leak_after", &self.data_leak_after())
            .field("ancilla_leak_after", &self.ancilla_leak_after())
            .field("cycle_time_ns", &self.cycle_time_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends a round with `leaked` of its data qubits leaked at the end.
    fn push_sample_round(run: &mut RunRecord, leaked: usize) {
        let mut flags = run.push_round(&[0], &[], 600.0);
        for q in 0..leaked {
            flags.data_leak_before.set(q, true);
            flags.data_leak_after.set(q, true);
        }
    }

    #[test]
    fn round_record_counts() {
        let mut run = RunRecord::new(8, 4);
        push_sample_round(&mut run, 2);
        let r = run.round(0);
        assert_eq!(r.leaked_data_count(), 2);
        assert_eq!(r.lrc_count(), 1);
        assert!((r.data_leak_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn run_record_aggregates() {
        let mut run = RunRecord::new(4, 4);
        push_sample_round(&mut run, 0);
        push_sample_round(&mut run, 2);
        assert_eq!(run.num_rounds(), 2);
        assert_eq!(run.total_lrcs(), 2);
        assert!((run.average_data_leak_fraction() - 0.25).abs() < 1e-12);
        assert!((run.final_data_leak_fraction() - 0.5).abs() < 1e-12);
        assert!((run.total_time_ns() - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_has_zero_metrics() {
        let run = RunRecord::new(0, 0);
        assert_eq!(run.total_lrcs(), 0);
        assert!((run.average_data_leak_fraction()).abs() < 1e-12);
    }

    #[test]
    fn rounds_keep_their_flags_and_lrcs_apart_across_word_boundaries() {
        // 70 data qubits and 130 checks: two and three words per vector.
        let mut run = RunRecord::with_capacity(70, 130, 2);
        for round in 0..2 {
            let mut flags = run.push_round(&[round, 69], &[129 - round], 100.0 + round as f64);
            flags.measurements.set(129, true);
            flags.detectors.set(64 + round, true);
            flags.mlr_leak_flags.set(round, true);
            flags.ancilla_leak_after.set(128, true);
            flags.data_leak_before.set(69 - round, true);
            flags.data_leak_after.set(63, true);
        }
        for (index, round) in run.rounds().iter().enumerate() {
            assert_eq!(round.round(), index);
            assert_eq!(round.measurements().ones().collect::<Vec<_>>(), [129]);
            assert_eq!(round.detectors().ones().collect::<Vec<_>>(), [64 + index]);
            assert_eq!(round.mlr_leak_flags().ones().collect::<Vec<_>>(), [index]);
            assert_eq!(round.ancilla_leak_after().ones().collect::<Vec<_>>(), [128]);
            assert_eq!(round.data_leak_before().ones().collect::<Vec<_>>(), [69 - index]);
            assert_eq!(round.data_leak_after().ones().collect::<Vec<_>>(), [63]);
            assert_eq!(round.data_lrcs(), [index, 69]);
            assert_eq!(round.ancilla_lrcs(), [129 - index]);
            assert_eq!(round.cycle_time_ns(), 100.0 + index as f64);
        }
        assert!(!run.final_data_x().any() && !run.final_perfect_measurements().any());

        let prefix = RunRecord::from_prefix(run.rounds().prefix(1), 2);
        assert_eq!(prefix.num_rounds(), 1);
        assert_eq!(prefix.round(0), run.round(0));
        let mut whole = prefix.clone();
        let mut flags = whole.push_round(&[1, 69], &[128], 101.0);
        flags.measurements.copy_from(run.round(1).measurements());
        flags.detectors.copy_from(run.round(1).detectors());
        flags.mlr_leak_flags.copy_from(run.round(1).mlr_leak_flags());
        flags.ancilla_leak_after.copy_from(run.round(1).ancilla_leak_after());
        flags.data_leak_before.copy_from(run.round(1).data_leak_before());
        flags.data_leak_after.copy_from(run.round(1).data_leak_after());
        assert_eq!(whole, run);
        assert_ne!(prefix, run);
    }
}
