//! Heap allocations of the shot pipeline, counted: simulating a round and
//! planning its LRCs allocate at most once per round on average, and a
//! closed-loop replay of a recorded cell stays within its measured budget.
//!
//! The record of a shot is one arena reserved once per run, frames and the
//! round executor's scratch are packed words reused across rounds, and the
//! sparse planners allocate only the LRC request they return. The first test
//! runs the four cells of the sweep-live benchmark workload (surface d=5 and
//! d=7 × `gladiator+m` and `eraser+m`, p=1e-3, lr=0.1, 6·d rounds) shot by
//! shot through `reseed_for_shot` and `run_with_policy` on the test thread,
//! and counts every allocation that thread makes. The second counts one
//! closed-loop `evaluate_cell_set` call on a cell shaped like the
//! replay-closed workload's. This is its own test binary because it installs
//! a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use leakage_speculation::{PolicyFactory, PolicyKind};
use leaky_sim::Simulator;
use qec_experiments::replay::{
    calibration_for, evaluate_cell_set, record_cell, LoadedCell, ReplayMode,
};
use qec_experiments::scenario::{CodeFamily, Scenario};
use qec_experiments::sweep::SweepSpec;
use rayon::ThreadPool;

thread_local! {
    /// Allocations made by this thread; other test-harness threads keep their own.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation on the
/// calling thread.
struct Counting;

fn count_one() {
    // A const-initialised `Cell` has no destructor, so this neither allocates
    // nor fails while the thread is being torn down; `try_with` covers it anyway.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `layout` has a non-zero size, as
        // `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`, the caller guarantees a non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller passes a block `System` returned for `layout`
        // and a non-zero `new_size` that does not overflow when rounded up to
        // `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn simulating_and_planning_a_round_allocates_at_most_once_on_average() {
    let spec = SweepSpec {
        code: CodeFamily::Surface,
        distances: vec![5, 7],
        error_rates: vec![1e-3],
        leakage_ratios: vec![0.1],
        policies: vec![PolicyKind::GladiatorM, PolicyKind::EraserM],
        shots: 16,
        rounds_per_distance: 6,
        seed: 1,
        decode: false,
        decoders: None,
        adaptive: None,
    };
    let (mut rounds, mut counted) = (0u64, 0u64);
    for scenario in spec.expand().expect("the grid expands") {
        let spec = scenario.to_spec();
        let code = scenario.build_code();
        let factory = PolicyFactory::new(&code, &spec.gladiator);
        let mut policy = factory.build(spec.policy);
        let mut sim = Simulator::new(&code, spec.noise, spec.seed);
        let before = allocations();
        for shot in 0..spec.shots as u64 {
            sim.reseed_for_shot(spec.seed, shot, spec.leakage_sampling);
            policy.reset();
            let run = sim.run_with_policy(policy.as_mut(), spec.rounds);
            rounds += run.num_rounds() as u64;
        }
        counted += allocations() - before;
    }
    assert_eq!(rounds, 16 * 2 * (30 + 42));
    let per_round = counted as f64 / rounds as f64;
    assert!(
        per_round <= 1.0,
        "{counted} allocations over {rounds} rounds: {per_round:.3} per round"
    );
}

/// Allocations of the closed-loop evaluation below: 3,890 while the per-shot
/// replay engine lived in `qec-trace`, 3,663 once it moved next to
/// `evaluate_cell_set`, 3,615 once `CheckpointStats::add_shot` read each
/// shot's divergence rounds in place, and 3,564 since a `Simulator` keeps no
/// copy of the code (its round executor's flat schedule is the circuit). The
/// budget sits between the last two, so a per-shot allocation or a
/// per-simulator copy of the code coming back fails it.
const CLOSED_LOOP_BUDGET: u64 = 3_590;

#[test]
fn closed_loop_replay_of_a_recorded_cell_stays_within_its_allocation_budget() {
    let scenario = Scenario {
        code: CodeFamily::Surface,
        distance: 5,
        rounds: 30,
        p: 1e-3,
        leakage_ratio: 0.1,
        policy: PolicyKind::GladiatorM,
        shots: 48,
        seed: 1,
        decode: false,
        decoder: None,
    };
    let candidates =
        [PolicyKind::GladiatorM, PolicyKind::EraserM, PolicyKind::GladiatorDM, PolicyKind::MlrOnly];
    let (header, shots) = record_cell(&scenario, scenario.policy, "allocation budget");
    let cell = LoadedCell { header, shots, code: scenario.build_code() };
    let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
    // The factory builds its offline artifacts once, on first use: not per call.
    for kind in candidates {
        let _ = factory.build(kind);
    }
    // The only job of a one-worker pool: the evaluator runs inline on the
    // counted worker thread instead of fanning out.
    let job = move || {
        let before = allocations();
        let evaluated = evaluate_cell_set(
            &cell,
            &factory,
            &candidates,
            &[None; 4],
            ReplayMode::ClosedLoop,
            true,
        );
        (allocations() - before, evaluated)
    };
    let (counted, evaluated) = ThreadPool::new(1).execute_ordered(vec![job]).remove(0);
    let (_, stats) = evaluated.expect("the recorded cell replays");
    assert!(stats.forced_passes > 0, "the cell must exercise the forced pass: {stats:?}");
    assert!(
        counted <= CLOSED_LOOP_BUDGET,
        "{counted} allocations, over the budget of {CLOSED_LOOP_BUDGET}"
    );
}
