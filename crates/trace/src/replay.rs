//! Trace-driven speculation replay: drive any [`LeakagePolicy`] against a
//! recorded execution, open-loop or closed-loop.
//!
//! **Open-loop** ([`ReplayContext::replay_shot`]) feeds the policy exactly the
//! [`PolicyContext`] it would have seen live — the reconstructed round history,
//! and the recorded ground-truth leak flags for oracle policies — and collects
//! the LRC schedule it *plans* each round. Because every policy in this
//! workspace is a deterministic function of its context, replaying the trace
//! with the **same** policy that recorded it reproduces the recorded schedule
//! exactly (checked per round as divergence detection), which is what pins
//! replayed metrics bit-for-bit to the live engine. Replaying a **different**
//! policy scores that policy's speculation open-loop against the recorded
//! observables, the evaluation style of ERASER (arXiv:2309.13143) and Varbanov
//! et al. (arXiv:2002.07119) — but every round after the first divergence is
//! counterfactual, so open-loop cross-policy DLP/LER describe the *recorded*
//! execution, not the candidate's.
//!
//! **Closed-loop** ([`ReplayContext::replay_shot_closed_loop`]) repairs that
//! divergence for a whole candidate set at once. Each candidate is driven
//! through the same per-round loop as open-loop replay until the first round
//! where its planned schedule differs from the recorded one. Then one forced
//! pass per shot reconstructs exact simulator state — reseed through the
//! recorded `seed + shot` contract ([`Simulator::reseed_for_shot`]), force-run
//! the recorded LRC schedule up to the deepest divergence round (verifying
//! each re-executed round against the trace bit-for-bit), snapshotting
//! ([`Simulator::checkpoint`]) at every distinct divergence round — and each
//! divergent candidate resumes live from its checkpoint
//! ([`Simulator::resume_with_policy`]). Every candidate's run is bit-for-bit
//! the run a from-scratch simulation of that policy on the same cell and seed
//! would produce — exact counterfactual LER/DLP/LRC metrics — while shots that
//! never diverge cost one replay, divergent shots skip all prefix policy
//! evaluation, and N candidates pay one forced prefix per shot, not N.
//!
//! [`Simulator::reseed_for_shot`]: leaky_sim::Simulator::reseed_for_shot
//! [`Simulator::checkpoint`]: leaky_sim::Simulator::checkpoint
//! [`Simulator::resume_with_policy`]: leaky_sim::Simulator::resume_with_policy

use std::collections::BTreeMap;

use leaky_sim::{
    GroundTruth, LeakagePolicy, LrcRequest, PolicyContext, RunRecord, Simulator,
    SimulatorCheckpoint,
};
use qec_codes::Code;
use serde::{Deserialize, Serialize};

use crate::format::{code_fingerprint, ShotTrace, TraceHeader};
use crate::wire::TraceError;

/// The outcome of replaying one shot against one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ShotReplay {
    /// The recorded run, reconstructed bit-for-bit ([`ShotTrace::to_run`]).
    pub run: RunRecord,
    /// The LRC schedule the replayed policy planned for each round.
    pub planned: Vec<LrcRequest>,
    /// First round where the planned schedule differs from the recorded one,
    /// if any. Always `None` when replaying the recording policy itself.
    pub divergence: Option<usize>,
}

impl ShotReplay {
    /// `true` when the policy reproduced the recorded schedule exactly.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.divergence.is_none()
    }
}

/// The outcome of closed-loop replaying one shot against one candidate: the
/// exact counterfactual run the candidate policy would have produced live.
/// Its replay cost follows from the divergence round `d` alone: rounds `0..d`
/// are force-re-executed from the trace and rounds `d..` run live.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopReplay {
    /// The candidate policy's run, **bit-for-bit** what a from-scratch live
    /// simulation of that policy on the recorded cell and shot seed returns.
    /// When the shot never diverged this is the recorded run itself.
    pub run: RunRecord,
    /// First round where the candidate's planned schedule differed from the
    /// recorded one; `None` when the whole shot was served from the trace.
    pub divergence: Option<usize>,
}

impl ClosedLoopReplay {
    /// `true` when the candidate reproduced the recorded schedule exactly and
    /// the run was served entirely from the trace.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Per-round divergence statistics of closed-loop replaying one policy against
/// one recorded cell: where shots first left the recorded schedule, and how
/// much re-simulation the repairs cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivergenceProfile {
    /// Shots replayed.
    pub shots: usize,
    /// Rounds per shot.
    pub rounds: usize,
    /// Shots whose planned schedule left the recorded one at some round.
    pub divergent_shots: usize,
    /// `first_divergence[r]` = number of shots whose *first* divergence was
    /// round `r` (length [`DivergenceProfile::rounds`]; sums to
    /// [`DivergenceProfile::divergent_shots`]).
    pub first_divergence: Vec<usize>,
    /// Total rounds re-simulated under candidate schedules across all shots
    /// (post-divergence suffixes: the counterfactual rounds).
    pub resimulated_rounds: u64,
    /// Total pre-divergence rounds force-re-executed to rebuild simulator
    /// state across all shots. Full simulation cost, no policy planning;
    /// `restored_rounds + resimulated_rounds == divergent_shots · rounds`.
    pub restored_rounds: u64,
}

impl DivergenceProfile {
    /// An empty profile for `rounds`-round shots.
    #[must_use]
    pub fn new(rounds: usize) -> Self {
        DivergenceProfile {
            shots: 0,
            rounds,
            divergent_shots: 0,
            first_divergence: vec![0; rounds],
            resimulated_rounds: 0,
            restored_rounds: 0,
        }
    }

    /// Folds one shot described by its first divergence round `d` (`None`
    /// for an exact shot): a divergent shot re-simulates its `rounds − d`
    /// suffix rounds and restores its `d` prefix rounds.
    ///
    /// # Panics
    /// Panics when the divergence round is outside the profile's round range.
    pub fn add(&mut self, divergence: Option<usize>) {
        self.shots += 1;
        if let Some(round) = divergence {
            self.divergent_shots += 1;
            self.first_divergence[round] += 1;
            self.resimulated_rounds += (self.rounds - round) as u64;
            self.restored_rounds += round as u64;
        }
    }

    /// Shots that never diverged (served entirely from the trace).
    #[must_use]
    pub fn exact_shots(&self) -> usize {
        self.shots - self.divergent_shots
    }

    /// Cumulative divergence counts by round: entry `r` is the number of shots
    /// that had diverged by the end of round `r`. Monotone non-decreasing,
    /// ending at [`DivergenceProfile::divergent_shots`].
    #[must_use]
    pub fn cumulative_divergent(&self) -> Vec<usize> {
        let mut total = 0usize;
        self.first_divergence
            .iter()
            .map(|&count| {
                total += count;
                total
            })
            .collect()
    }

    /// Fraction of all rounds whose outcomes are counterfactual (re-simulated
    /// under the candidate's own schedule, post-divergence). This measures
    /// *divergence depth*, not cost — forced prefix restoration is excluded.
    #[must_use]
    pub fn resimulated_fraction(&self) -> f64 {
        let total = (self.shots * self.rounds) as u64;
        if total == 0 {
            return 0.0;
        }
        self.resimulated_rounds as f64 / total as f64
    }

    /// Fraction of all rounds that touched the simulator during replay —
    /// forced prefix restoration plus the live suffix — i.e. the honest
    /// simulation-cost measure (`0.0` = pure replay, `1.0` = every round of
    /// every shot re-executed). Because each divergent shot pays its full
    /// round count (prefix + suffix), this equals the divergent-shot
    /// fraction.
    #[must_use]
    pub fn simulated_fraction(&self) -> f64 {
        let total = (self.shots * self.rounds) as u64;
        if total == 0 {
            return 0.0;
        }
        (self.resimulated_rounds + self.restored_rounds) as f64 / total as f64
    }
}

/// Which rounds of the single shared forced pass need a simulator snapshot,
/// computed from every candidate's first-divergence round: one checkpoint per
/// **distinct** divergence round, refcounted by how many candidates resume
/// from it. The checkpoint store is dropped-as-served, so memory stays
/// O(distinct divergence rounds), never O(candidates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPlan {
    /// divergence round → number of candidates resuming from that round.
    rounds: BTreeMap<usize, usize>,
}

impl CheckpointPlan {
    /// Builds the plan from each candidate's first-divergence round (`None` =
    /// the candidate reproduces the recorded schedule and needs no checkpoint).
    #[must_use]
    pub fn new(divergences: &[Option<usize>]) -> Self {
        let mut rounds = BTreeMap::new();
        for round in divergences.iter().flatten() {
            *rounds.entry(*round).or_insert(0usize) += 1;
        }
        CheckpointPlan { rounds }
    }

    /// Number of distinct divergence rounds — the number of snapshots the
    /// shared pass takes, and the peak size of the checkpoint store.
    #[must_use]
    pub fn distinct_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The deepest divergence round, i.e. how far the shared forced pass must
    /// run. `None` when no candidate diverges (no forced pass at all).
    #[must_use]
    pub fn max_round(&self) -> Option<usize> {
        self.rounds.keys().next_back().copied()
    }

    /// `true` when a snapshot must be taken at the start of `round`.
    #[must_use]
    pub fn needs(&self, round: usize) -> bool {
        self.rounds.contains_key(&round)
    }

    /// Records that one candidate resuming from `round` has been served;
    /// returns `true` when no candidate still needs that round's checkpoint
    /// (the caller can drop it).
    fn serve(&mut self, round: usize) -> bool {
        let count = self.rounds.get_mut(&round).expect("served round must be in the plan");
        *count -= 1;
        if *count == 0 {
            self.rounds.remove(&round);
            true
        } else {
            false
        }
    }
}

/// Prebuilt per-trace replay state: the code and the recording run's timing
/// inputs. Build once per trace, replay many shots/policies.
#[derive(Debug)]
pub struct ReplayContext {
    code: Code,
    header: TraceHeader,
}

impl ReplayContext {
    /// Validates that `code` is the code the trace was recorded on (structural
    /// fingerprint and sizes) and prepares the shared replay state.
    ///
    /// # Errors
    /// Fails when the code does not match the header.
    pub fn new(code: &Code, header: &TraceHeader) -> Result<Self, TraceError> {
        let fingerprint = code_fingerprint(code);
        if fingerprint != header.code_fingerprint
            || code.num_data() != header.num_data
            || code.num_checks() != header.num_checks
        {
            return Err(TraceError::corrupt(format!(
                "code `{}` (fingerprint {fingerprint:#018x}) does not match the trace's `{}` \
                 (fingerprint {:#018x})",
                code.name(),
                header.code_name,
                header.code_fingerprint
            )));
        }
        Ok(ReplayContext { code: code.clone(), header: header.clone() })
    }

    /// The trace header the context was built from.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The code under replay.
    #[must_use]
    pub fn code(&self) -> &Code {
        &self.code
    }

    /// Replays one recorded shot against `policy`.
    ///
    /// The caller owns the policy's lifecycle: call [`LeakagePolicy::reset`]
    /// before each shot, exactly as the live batch engine does.
    ///
    /// Round `r` hands the policy the history of rounds `0..r` (reconstructed
    /// records), and ground truth equal to the leak flags at planning time:
    /// `data_leak_before` of round `r` and the previous round's
    /// `ancilla_leak_after` (the initial flags for round 0).
    #[must_use]
    pub fn replay_shot(&self, trace: &ShotTrace, policy: &mut dyn LeakagePolicy) -> ShotReplay {
        let run = trace.to_run(&self.header.noise, self.header.cnot_layers);
        let (planned, divergence) = self.plan_rounds(trace, &run, policy, false);
        ShotReplay { run, planned, divergence }
    }

    /// Builds a simulator compatible with [`ReplayContext::replay_shot_closed_loop`]:
    /// the trace's code and bit-exact recorded noise model. The seed is
    /// irrelevant — closed-loop replay reseeds per shot through the recorded
    /// contract.
    #[must_use]
    pub fn make_simulator(&self) -> Simulator {
        Simulator::new(&self.code, self.header.noise, self.header.seed)
    }

    /// Replays one recorded shot against a candidate **set** closed-loop:
    /// each candidate runs open-loop until its planned schedule first leaves
    /// the recorded one, then the shot pays **one** forced pass of the
    /// recorded prefix to the deepest divergence round, snapshotting simulator
    /// state ([`Simulator::checkpoint`]) at each distinct divergence round the
    /// [`CheckpointPlan`] demands, and every divergent candidate resumes live
    /// from its checkpoint. A set of one is the single-candidate case.
    ///
    /// Every returned run is bit-for-bit what `Simulator::new(code, noise,
    /// seed + shot)` driven by that candidate from scratch would produce — the
    /// exact counterfactual, not an open-loop approximation. Reseeding through
    /// the recorded contract and force-running the recorded schedule consumes
    /// the identical RNG stream a live candidate run would have (its prefix
    /// schedule IS the recorded one), so the snapshot taken at the start of
    /// round *r* is exactly the state the candidate's live run reaches there,
    /// and [`Simulator::restore`] reproduces it for each candidate resuming
    /// from *r*. Sharing the pass across the set therefore cannot change any
    /// candidate's run.
    ///
    /// Candidates are served, and returned, in argument order. As with
    /// [`ReplayContext::replay_shot`], the caller owns each policy's
    /// lifecycle (call [`LeakagePolicy::reset`] before each shot). `sim` must
    /// come from [`ReplayContext::make_simulator`] (or be equivalent); its
    /// per-run state is overwritten, so one simulator serves arbitrarily many
    /// shots.
    ///
    /// # Errors
    /// Fails when `sim` disagrees with the trace header (wrong code shape or
    /// noise model), or when reseeding or a forced prefix round fails to
    /// reproduce the recorded shot — the recorded execution does not replay
    /// under this build's simulator, so exact counterfactuals are impossible
    /// (a stale corpus or a behavioral simulator change; re-record the
    /// corpus).
    pub fn replay_shot_closed_loop(
        &self,
        trace: &ShotTrace,
        policies: &mut [&mut dyn LeakagePolicy],
        sim: &mut Simulator,
    ) -> Result<Vec<ClosedLoopReplay>, TraceError> {
        self.check_simulator(sim)?;
        let recorded = trace.to_run(&self.header.noise, self.header.cnot_layers);
        let total_rounds = recorded.rounds.len();

        // Open-loop detection for every candidate against the recorded
        // observables (pure replay, no simulation). A divergent drive ends on
        // the divergent plan; the policy's state has advanced past it.
        let divergences: Vec<Option<(usize, LrcRequest)>> = policies
            .iter_mut()
            .map(|policy| {
                let (mut plans, divergence) = self.plan_rounds(trace, &recorded, *policy, true);
                divergence.map(|round| (round, plans.pop().expect("a divergent drive ends on it")))
            })
            .collect();
        let mut plan = CheckpointPlan::new(
            &divergences.iter().map(|d| d.as_ref().map(|(round, _)| *round)).collect::<Vec<_>>(),
        );

        // The one shared forced pass: re-execute the recorded schedule up to
        // the deepest divergence round, snapshotting at the start of each
        // round some candidate resumes from. No candidate diverged ⇒ no pass:
        // the whole set is served from the trace.
        let mut store: BTreeMap<usize, SimulatorCheckpoint> = BTreeMap::new();
        if let Some(max_round) = plan.max_round() {
            self.reseed_checked(trace, sim)?;
            for (round, record) in recorded.rounds[..max_round].iter().enumerate() {
                if plan.needs(round) {
                    store.insert(round, sim.checkpoint());
                }
                self.force_round(trace, record, sim)?;
            }
            store.insert(max_round, sim.checkpoint());
        }

        // Serve the divergent candidates in argument order. Forced rounds
        // reproduced the trace bit-for-bit (verified above), so each
        // candidate's resume history is the recorded prefix itself.
        let served: Vec<Option<ClosedLoopReplay>> = policies
            .iter_mut()
            .zip(divergences)
            .map(|(policy, divergence)| {
                let (div_round, div_plan) = divergence?;
                let checkpoint = store.get(&div_round).expect("planned checkpoint must exist");
                sim.restore(checkpoint);
                if plan.serve(div_round) {
                    store.remove(&div_round);
                }
                // The divergence round executes the plan the policy already
                // made, then the remaining rounds run fully closed-loop.
                let mut history = Vec::with_capacity(total_rounds);
                history.extend_from_slice(&recorded.rounds[..div_round]);
                history.push(sim.run_round(&div_plan));
                let run = sim.resume_with_policy(*policy, history, total_rounds);
                Some(ClosedLoopReplay { run, divergence: Some(div_round) })
            })
            .collect();
        // A candidate that reproduces the recorded schedule at every round
        // has, by induction, the recorded execution as its live run; the last
        // such candidate takes it without a copy.
        let mut exact_left = served.iter().filter(|replay| replay.is_none()).count();
        let mut recorded = Some(recorded);
        Ok(served
            .into_iter()
            .map(|replay| {
                replay.unwrap_or_else(|| {
                    exact_left -= 1;
                    let run = if exact_left == 0 { recorded.take() } else { recorded.clone() };
                    ClosedLoopReplay {
                        run: run.expect("the recorded run outlives every exact candidate"),
                        divergence: None,
                    }
                })
            })
            .collect())
    }

    /// The closed-loop precondition: `sim` must be shaped and parameterized
    /// exactly as the recording simulator, or the RNG stream cannot reproduce.
    fn check_simulator(&self, sim: &Simulator) -> Result<(), TraceError> {
        if sim.code().num_data() != self.header.num_data
            || sim.code().num_checks() != self.header.num_checks
            || *sim.noise() != self.header.noise
        {
            return Err(TraceError::corrupt(
                "closed-loop simulator does not match the trace's code/noise \
                 (build it with ReplayContext::make_simulator)",
            ));
        }
        Ok(())
    }

    /// The per-round drive both replay modes share: hands `policy` the
    /// [`PolicyContext`] it would have seen live at each recorded round and
    /// collects its plans, noting the first round whose plan leaves the
    /// recorded schedule. With `stop_at_divergence` the drive ends on that
    /// round, so the divergent plan is the last one returned.
    fn plan_rounds(
        &self,
        trace: &ShotTrace,
        recorded: &RunRecord,
        policy: &mut dyn LeakagePolicy,
        stop_at_divergence: bool,
    ) -> (Vec<LrcRequest>, Option<usize>) {
        let mut planned = Vec::with_capacity(recorded.rounds.len());
        let mut divergence = None;
        for (round, record) in recorded.rounds.iter().enumerate() {
            let ancilla_leaked = if round == 0 {
                &trace.initial_ancilla_leak
            } else {
                &recorded.rounds[round - 1].ancilla_leak_after
            };
            let ctx = PolicyContext {
                round,
                history: &recorded.rounds[..round],
                ground_truth: GroundTruth { data_leaked: &record.data_leak_before, ancilla_leaked },
            };
            let plan = policy.plan_lrcs(&ctx);
            let first_divergence = divergence.is_none()
                && (plan.data != record.data_lrcs || plan.ancilla != record.ancilla_lrcs);
            planned.push(plan);
            if first_divergence {
                divergence = Some(round);
                if stop_at_divergence {
                    break;
                }
            }
        }
        (planned, divergence)
    }

    /// Reseeds `sim` through the recorded `seed + shot` contract and verifies
    /// the recorded initial leak flags reproduce.
    fn reseed_checked(&self, trace: &ShotTrace, sim: &mut Simulator) -> Result<(), TraceError> {
        sim.reseed_for_shot(self.header.seed, trace.shot, self.header.leakage_sampling);
        if sim.frames().data_leaks() != trace.initial_data_leak.as_slice()
            || sim.frames().ancilla_leaks() != trace.initial_ancilla_leak.as_slice()
        {
            return Err(TraceError::corrupt(format!(
                "shot {}: reseeding does not reproduce the recorded initial leak flags — the \
                 trace was not recorded under this build's seeding contract",
                trace.shot
            )));
        }
        Ok(())
    }

    /// Force-executes one recorded round and verifies the simulator reproduces
    /// it bit-for-bit.
    fn force_round(
        &self,
        trace: &ShotTrace,
        record: &leaky_sim::RoundRecord,
        sim: &mut Simulator,
    ) -> Result<leaky_sim::RoundRecord, TraceError> {
        let request =
            LrcRequest { data: record.data_lrcs.clone(), ancilla: record.ancilla_lrcs.clone() };
        let executed = sim.run_round(&request);
        if &executed != record {
            return Err(TraceError::corrupt(format!(
                "shot {}: forced re-execution of round {} does not reproduce the recorded \
                 round — the corpus predates a simulator behavior change; re-record it",
                trace.shot, record.round
            )));
        }
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TRACE_SCHEMA_VERSION;
    use gladiator::GladiatorConfig;
    use leakage_speculation::{build_policy, PolicyKind};
    use leaky_sim::{NoiseParams, Simulator};

    fn record(code: &Code, kind: PolicyKind, seed: u64, rounds: usize) -> (TraceHeader, ShotTrace) {
        let noise = NoiseParams::default();
        let mut policy = build_policy(kind, code, &GladiatorConfig::default());
        let mut sim = Simulator::new(code, noise, seed);
        sim.seed_random_data_leakage(1);
        let trace = ShotTrace::record(0, &mut sim, policy.as_mut(), rounds);
        let header = TraceHeader {
            schema_version: TRACE_SCHEMA_VERSION,
            generator: "replay test".to_string(),
            git_describe: "unknown".to_string(),
            code_name: code.name().to_string(),
            code_fingerprint: code_fingerprint(code),
            num_data: code.num_data(),
            num_checks: code.num_checks(),
            cnot_layers: code.checks().iter().map(qec_codes::Check::weight).max().unwrap_or(0),
            rounds,
            shots: 1,
            seed,
            policy: kind.label().to_string(),
            leakage_sampling: true,
            noise,
        };
        assert_eq!(trace.to_run(&noise, header.cnot_layers), live_run(code, kind, &header, 0));
        (header, trace)
    }

    #[test]
    fn replaying_the_recording_policy_is_exact_for_every_kind() {
        let code = Code::rotated_surface(3);
        for kind in PolicyKind::ALL {
            let (header, trace) = record(&code, kind, 17, 10);
            let ctx = ReplayContext::new(&code, &header).unwrap();
            let mut policy = build_policy(kind, &code, &GladiatorConfig::default());
            let replay = ctx.replay_shot(&trace, policy.as_mut());
            assert!(replay.is_exact(), "{kind:?} diverged at round {:?}", replay.divergence);
            // The planned schedule is exactly the recorded one.
            for (plan, record) in replay.planned.iter().zip(&replay.run.rounds) {
                assert_eq!(plan.data, record.data_lrcs, "{kind:?}");
                assert_eq!(plan.ancilla, record.ancilla_lrcs, "{kind:?}");
            }
        }
    }

    #[test]
    fn replaying_a_different_policy_reports_divergence() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::NoLrc, 3, 12);
        let ctx = ReplayContext::new(&code, &header).unwrap();
        // Always-LRC plans a full schedule every round; the no-lrc trace recorded none.
        let mut policy = build_policy(PolicyKind::AlwaysLrc, &code, &GladiatorConfig::default());
        let replay = ctx.replay_shot(&trace, policy.as_mut());
        assert_eq!(replay.divergence, Some(0));
        assert_eq!(replay.planned[0].len(), code.num_data() + code.num_checks());
    }

    /// From-scratch live run of `kind` on the recorded cell/seed — the oracle
    /// closed-loop replay must match bit-for-bit.
    fn live_run(code: &Code, kind: PolicyKind, header: &TraceHeader, shot: u64) -> RunRecord {
        let mut policy = build_policy(kind, code, &GladiatorConfig::default());
        let mut sim = Simulator::new(code, header.noise, 0);
        sim.reseed_for_shot(header.seed, shot, header.leakage_sampling);
        sim.run_with_policy(policy.as_mut(), header.rounds)
    }

    /// Closed-loop replays `policy` as a set of one.
    fn replay_one(
        ctx: &ReplayContext,
        trace: &ShotTrace,
        policy: &mut dyn LeakagePolicy,
        sim: &mut Simulator,
    ) -> Result<ClosedLoopReplay, TraceError> {
        let mut set = ctx.replay_shot_closed_loop(trace, &mut [policy], sim)?;
        Ok(set.pop().expect("one candidate, one replay"))
    }

    #[test]
    fn closed_loop_replay_is_bit_identical_to_a_live_run_for_every_candidate() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::GladiatorM, 23, 12);
        let ctx = ReplayContext::new(&code, &header).unwrap();
        let mut sim = ctx.make_simulator();
        for kind in PolicyKind::ALL {
            let mut policy = build_policy(kind, &code, &GladiatorConfig::default());
            let replay = replay_one(&ctx, &trace, policy.as_mut(), &mut sim).unwrap();
            let live = live_run(&code, kind, &header, trace.shot);
            assert_eq!(replay.run, live, "{kind:?} counterfactual must be exact");
            if kind == PolicyKind::GladiatorM {
                assert!(replay.is_exact(), "recording policy must never diverge");
            }
        }
    }

    #[test]
    fn closed_loop_divergence_round_matches_open_loop_detection() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::NoLrc, 9, 10);
        let ctx = ReplayContext::new(&code, &header).unwrap();
        let mut sim = ctx.make_simulator();
        let mut open = build_policy(PolicyKind::AlwaysLrc, &code, &GladiatorConfig::default());
        let open_loop = ctx.replay_shot(&trace, open.as_mut());
        let mut closed = build_policy(PolicyKind::AlwaysLrc, &code, &GladiatorConfig::default());
        let replay = replay_one(&ctx, &trace, closed.as_mut(), &mut sim).unwrap();
        assert_eq!(replay.divergence, open_loop.divergence);
        assert_eq!(replay.divergence, Some(0));
        // Always-LRC diverges immediately: the whole shot is re-simulated,
        // and every executed round carries the full schedule.
        for round in &replay.run.rounds {
            assert_eq!(round.data_lrcs.len(), code.num_data());
        }
    }

    #[test]
    fn closed_loop_replay_rejects_a_mismatched_simulator() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::NoLrc, 5, 6);
        let ctx = ReplayContext::new(&code, &header).unwrap();
        let mut policy = build_policy(PolicyKind::AlwaysLrc, &code, &GladiatorConfig::default());
        // Wrong noise model: the RNG stream would not reproduce the recording.
        let mut sim =
            Simulator::new(&code, NoiseParams::builder().physical_error_rate(0.5).build(), 0);
        let err = replay_one(&ctx, &trace, policy.as_mut(), &mut sim).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    /// Test policy: schedules nothing until `fire_round`, then requests one LRC
    /// — so against a no-lrc trace the first divergence lands exactly there.
    struct DivergeAt {
        fire_round: usize,
    }

    impl LeakagePolicy for DivergeAt {
        fn name(&self) -> &str {
            "diverge-at"
        }
        fn plan_lrcs(&mut self, ctx: &PolicyContext<'_>) -> LrcRequest {
            if ctx.round >= self.fire_round {
                LrcRequest { data: vec![0], ancilla: vec![] }
            } else {
                LrcRequest::none()
            }
        }
    }

    #[test]
    fn closed_loop_replay_detects_a_trace_that_does_not_reproduce() {
        let code = Code::rotated_surface(3);
        let (header, mut trace) = record(&code, PolicyKind::NoLrc, 31, 8);
        // Corrupt a recorded mid-run measurement: when the candidate diverges
        // *after* that round, the forced prefix re-execution must notice the
        // recorded round no longer reproduces.
        trace.rounds[1].measurements[0] = !trace.rounds[1].measurements[0];
        let ctx = ReplayContext::new(&code, &header).unwrap();
        let mut sim = ctx.make_simulator();
        let err = replay_one(&ctx, &trace, &mut DivergeAt { fire_round: 3 }, &mut sim).unwrap_err();
        assert!(err.to_string().contains("does not reproduce"), "{err}");
    }

    #[test]
    fn closed_loop_replay_detects_corrupt_initial_leak_flags() {
        let code = Code::rotated_surface(3);
        let (header, mut trace) = record(&code, PolicyKind::NoLrc, 13, 6);
        // Flip an initial leak flag: reseeding through the contract can no
        // longer reproduce the recorded starting state.
        trace.initial_data_leak[0] = !trace.initial_data_leak[0];
        let ctx = ReplayContext::new(&code, &header).unwrap();
        let mut sim = ctx.make_simulator();
        let err = replay_one(&ctx, &trace, &mut DivergeAt { fire_round: 2 }, &mut sim).unwrap_err();
        assert!(err.to_string().contains("seeding contract"), "{err}");
    }

    #[test]
    fn shared_replay_matches_sets_of_one_for_every_kind() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::GladiatorM, 23, 12);
        let ctx = ReplayContext::new(&code, &header).unwrap();
        let mut sim = ctx.make_simulator();

        // Sets-of-one oracle results, one fresh policy per kind.
        let solo: Vec<ClosedLoopReplay> = PolicyKind::ALL
            .iter()
            .map(|&kind| {
                let mut policy = build_policy(kind, &code, &GladiatorConfig::default());
                replay_one(&ctx, &trace, policy.as_mut(), &mut sim).unwrap()
            })
            .collect();

        // The whole set served from shared checkpoints in one call.
        let mut candidates: Vec<_> = PolicyKind::ALL
            .iter()
            .map(|&kind| build_policy(kind, &code, &GladiatorConfig::default()))
            .collect();
        let mut refs: Vec<&mut dyn LeakagePolicy> =
            candidates.iter_mut().map(|p| p.as_mut() as &mut dyn LeakagePolicy).collect();
        let shared = ctx.replay_shot_closed_loop(&trace, &mut refs, &mut sim).unwrap();

        assert_eq!(shared.len(), solo.len());
        for ((replay, oracle), kind) in shared.iter().zip(&solo).zip(PolicyKind::ALL) {
            assert_eq!(replay, oracle, "{kind:?} must be bit-identical to its set of one");
        }
        assert!(shared.iter().any(|replay| !replay.is_exact()), "the set must share a pass");
    }

    #[test]
    fn shared_replay_of_exact_candidates_never_touches_the_simulator() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::NoLrc, 7, 8);
        let ctx = ReplayContext::new(&code, &header).unwrap();
        // A simulator with the wrong noise would be rejected only if the
        // validation runs; use a valid one and assert the stats instead.
        let mut sim = ctx.make_simulator();
        let mut a = build_policy(PolicyKind::NoLrc, &code, &GladiatorConfig::default());
        let mut b = build_policy(PolicyKind::NoLrc, &code, &GladiatorConfig::default());
        let mut refs: Vec<&mut dyn LeakagePolicy> = vec![a.as_mut(), b.as_mut()];
        let shared = ctx.replay_shot_closed_loop(&trace, &mut refs, &mut sim).unwrap();
        assert!(shared.iter().all(ClosedLoopReplay::is_exact));
        assert_eq!(sim.rounds_executed(), 0, "no simulation for an all-exact set");
    }

    #[test]
    fn shared_replay_dedups_checkpoints_by_divergence_round() {
        let code = Code::rotated_surface(3);
        let (header, trace) = record(&code, PolicyKind::NoLrc, 19, 10);
        let ctx = ReplayContext::new(&code, &header).unwrap();
        let mut sim = ctx.make_simulator();
        // Four candidates, three distinct divergence rounds (3, 3, 6, 0) plus
        // one exact candidate.
        let mut p0 = DivergeAt { fire_round: 3 };
        let mut p1 = DivergeAt { fire_round: 3 };
        let mut p2 = DivergeAt { fire_round: 6 };
        let mut p3 = DivergeAt { fire_round: 0 };
        let mut exact = build_policy(PolicyKind::NoLrc, &code, &GladiatorConfig::default());
        let mut refs: Vec<&mut dyn LeakagePolicy> =
            vec![&mut p0, &mut p1, &mut p2, &mut p3, exact.as_mut()];
        let shared = ctx.replay_shot_closed_loop(&trace, &mut refs, &mut sim).unwrap();
        let divergences: Vec<Option<usize>> = shared.iter().map(|r| r.divergence).collect();
        assert_eq!(divergences, vec![Some(3), Some(3), Some(6), Some(0), None]);
        // Same-round candidates must be bit-identical to their solo replays.
        for (index, fire_round) in [(0usize, 3usize), (1, 3), (2, 6), (3, 0)] {
            let solo = replay_one(&ctx, &trace, &mut DivergeAt { fire_round }, &mut sim).unwrap();
            assert_eq!(shared[index], solo, "candidate {index}");
        }
    }

    #[test]
    fn checkpoint_plan_counts_distinct_rounds_and_refcounts() {
        let mut plan = CheckpointPlan::new(&[Some(3), None, Some(3), Some(7), None, Some(0)]);
        assert_eq!(plan.distinct_rounds(), 3);
        assert_eq!(plan.max_round(), Some(7));
        assert!(plan.needs(3) && plan.needs(7) && plan.needs(0));
        assert!(!plan.needs(1));
        assert!(!plan.serve(3), "first of two round-3 candidates keeps the checkpoint");
        assert!(plan.serve(3), "second frees it");
        assert!(!plan.needs(3));
        assert!(plan.serve(7));
        assert!(plan.serve(0));
        assert_eq!(plan.distinct_rounds(), 0);
        assert_eq!(CheckpointPlan::new(&[None, None]).max_round(), None);
    }

    #[test]
    fn divergence_profile_invariants_hold() {
        let mut profile = DivergenceProfile::new(5);
        for divergence in [None, Some(2), Some(0), Some(2), None, Some(4)] {
            profile.add(divergence);
        }
        assert_eq!(profile.shots, 6);
        assert_eq!(profile.divergent_shots, 4);
        assert_eq!(profile.exact_shots(), 2);
        assert_eq!(profile.first_divergence, vec![1, 0, 2, 0, 1]);
        assert_eq!(profile.first_divergence.iter().sum::<usize>(), profile.divergent_shots);
        let cumulative = profile.cumulative_divergent();
        assert!(cumulative.windows(2).all(|w| w[0] <= w[1]), "cumulative must be monotone");
        assert_eq!(cumulative.last(), Some(&profile.divergent_shots));
        assert_eq!(profile.resimulated_rounds, (5 - 2) as u64 + 5 + 3 + 1);
        // Divergence rounds 2, 0, 2, 4 ⇒ restored prefixes of those lengths.
        assert_eq!(profile.restored_rounds, 8);
        // Every divergent shot pays its full round count on the simulator.
        assert_eq!(
            profile.resimulated_rounds + profile.restored_rounds,
            (profile.divergent_shots * profile.rounds) as u64
        );
        assert!((profile.resimulated_fraction() - 12.0 / 30.0).abs() < 1e-12);
        assert!((profile.simulated_fraction() - 20.0 / 30.0).abs() < 1e-12);
        assert!((DivergenceProfile::new(0).resimulated_fraction()).abs() < 1e-12);
        assert!((DivergenceProfile::new(0).simulated_fraction()).abs() < 1e-12);
    }

    #[test]
    fn replay_context_rejects_the_wrong_code() {
        let code = Code::rotated_surface(3);
        let (header, _) = record(&code, PolicyKind::NoLrc, 1, 4);
        let other = Code::rotated_surface(5);
        let err = ReplayContext::new(&other, &header).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }
}
