//! The closed-loop policy interface between the simulator and leakage speculation.
//!
//! Every leakage-mitigation strategy evaluated in the paper — open-loop
//! (Always-LRC, Staggered) as well as closed-loop (ERASER, GLADIATOR, MLR-only,
//! Ideal) — is expressed as a [`LeakagePolicy`]: before each QEC round the simulator
//! asks the policy which qubits should receive a leakage-reduction circuit, passing it
//! everything observed so far (never the hidden leak flags, unless the policy is the
//! oracle used for the "IDEAL" baseline, which receives them explicitly through
//! [`PolicyContext::ground_truth`]).

use qec_codes::{Code, DataQubitId};

use crate::bits::Bits;
use crate::record::{RoundView, Rounds};

/// Qubits scheduled to receive an LRC at the start of the upcoming round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LrcRequest {
    /// Data qubits to reset with an LRC gadget.
    pub data: Vec<DataQubitId>,
    /// Parity qubits (by check id) to reset with an LRC gadget.
    pub ancilla: Vec<usize>,
}

impl LrcRequest {
    /// A request that schedules nothing.
    #[must_use]
    pub fn none() -> Self {
        LrcRequest::default()
    }

    /// Request LRCs on all data and all ancilla qubits (the Always-LRC baseline).
    #[must_use]
    pub fn all(code: &Code) -> Self {
        LrcRequest {
            data: (0..code.num_data()).collect(),
            ancilla: (0..code.num_checks()).collect(),
        }
    }

    /// Total number of requested LRC gadgets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len() + self.ancilla.len()
    }

    /// `true` when nothing is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty() && self.ancilla.is_empty()
    }
}

/// Ground-truth information exposed only to oracle policies (the paper's "IDEAL"
/// speculation bound).
#[derive(Debug, Clone, Copy)]
pub struct GroundTruth<'a> {
    /// Current data-qubit leak flags.
    pub data_leaked: Bits<'a>,
    /// Current ancilla leak flags.
    pub ancilla_leaked: Bits<'a>,
}

/// The information a policy may consult when planning LRCs for the next round.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    /// Index of the upcoming round (0-based). When `round == 0` no observations exist yet.
    pub round: usize,
    /// The completed rounds, oldest first (never a round not yet planned).
    pub history: Rounds<'a>,
    /// Ground truth leak flags — only for oracle policies; honest policies must ignore it.
    pub ground_truth: GroundTruth<'a>,
}

impl<'a> PolicyContext<'a> {
    /// The most recent completed round, if any.
    #[must_use]
    pub fn last_round(&self) -> Option<RoundView<'a>> {
        self.history.last()
    }

    /// The record `k` rounds before the most recent one (`k = 0` is the most recent).
    #[must_use]
    pub fn round_back(&self, k: usize) -> Option<RoundView<'a>> {
        self.history.get(self.history.len().checked_sub(k + 1)?)
    }
}

/// A leakage-mitigation policy: decides which qubits receive an LRC each round.
///
/// # Reuse contract
///
/// One policy instance may serve many Monte-Carlo shots: the batch engine calls
/// [`LeakagePolicy::reset`] between shots instead of rebuilding the policy, so
/// code-derived artifacts (pattern tables, colorings, extractors) are paid for once
/// per experiment. Implementations must guarantee that `reset()` followed by a run
/// produces *bit-for-bit* the same decisions a freshly constructed instance would —
/// any cross-shot state (counters, caches keyed on history) must be cleared there.
/// Immutable code-derived state should be kept (that is the point of reuse).
pub trait LeakagePolicy {
    /// Short identifier used in experiment outputs (e.g. `"eraser+m"`).
    fn name(&self) -> &str;

    /// Plan the LRCs to apply at the start of the upcoming round.
    fn plan_lrcs(&mut self, ctx: &PolicyContext<'_>) -> LrcRequest;

    /// Reset any internal per-run state so the policy can be reused for a fresh run
    /// (see the trait-level reuse contract). The default is a no-op, which is only
    /// correct for policies that keep no mutable state across rounds of *different*
    /// runs.
    fn reset(&mut self) {}
}

/// Policy that never applies LRCs (the paper's NO-LRC baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverLrc;

impl LeakagePolicy for NeverLrc {
    fn name(&self) -> &str {
        "no-lrc"
    }

    fn plan_lrcs(&mut self, _ctx: &PolicyContext<'_>) -> LrcRequest {
        LrcRequest::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoiseParams, QubitFrames, RunRecord, Simulator};
    use qec_codes::Code;

    #[test]
    fn lrc_request_helpers() {
        let code = Code::rotated_surface(3);
        let all = LrcRequest::all(&code);
        assert_eq!(all.len(), code.num_data() + code.num_checks());
        assert!(!all.is_empty());
        assert!(LrcRequest::none().is_empty());
    }

    #[test]
    fn never_lrc_schedules_nothing() {
        let code = Code::rotated_surface(3);
        let run = RunRecord::new(code.num_data(), code.num_checks());
        let leaks = QubitFrames::new(code.num_data(), code.num_checks());
        let ctx = PolicyContext {
            round: 0,
            history: run.rounds(),
            ground_truth: GroundTruth {
                data_leaked: leaks.data_leaks(),
                ancilla_leaked: leaks.ancilla_leaks(),
            },
        };
        let mut policy = NeverLrc;
        assert!(policy.plan_lrcs(&ctx).is_empty());
        assert_eq!(policy.name(), "no-lrc");
    }

    #[test]
    fn round_back_indexes_from_most_recent() {
        let code = Code::rotated_surface(3);
        let run =
            Simulator::new(&code, NoiseParams::default(), 1).run_with_policy(&mut NeverLrc, 3);
        let leaks = QubitFrames::new(code.num_data(), code.num_checks());
        let ctx = PolicyContext {
            round: 3,
            history: run.rounds(),
            ground_truth: GroundTruth {
                data_leaked: leaks.data_leaks(),
                ancilla_leaked: leaks.ancilla_leaks(),
            },
        };
        assert_eq!(ctx.last_round().map(RoundView::round), Some(2));
        assert_eq!(ctx.round_back(0).map(RoundView::round), Some(2));
        assert_eq!(ctx.round_back(2).map(RoundView::round), Some(0));
        assert!(ctx.round_back(3).is_none());
    }
}
