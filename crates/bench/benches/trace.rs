//! Benchmarks of the trace subsystem: recording overhead over plain
//! simulation, `.qtr` encode/decode throughput, and replay vs re-simulation —
//! the pair that quantifies the record-once/replay-many value proposition
//! (each additional policy evaluated against a corpus costs `replay`, not
//! `resim`).
//!
//! The single-policy lines time `evaluate_cell`; `closed_loop_multi` times
//! a four-candidate set through `evaluate_cell_set` — one forced pass per
//! shot serving four candidate suffixes.
//!
//! A snapshot of the replay-vs-resim numbers (produced by `repro snapshot`)
//! lives in `crates/bench/BENCH_trace_baseline.json` and gates CI.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

use leakage_speculation::{PolicyFactory, PolicyKind};
use qec_experiments::engine::BatchEngine;
use qec_experiments::replay::{
    calibration_for, evaluate_cell, evaluate_cell_set, record_cell, trace_snapshot_multi_cell,
    trace_snapshot_scenario, LoadedCell, ReplayMode, MULTI_SNAPSHOT_POLICIES,
};
use qec_trace::{TraceReader, TraceWriter};

fn bench_trace(c: &mut Criterion) {
    // The same pinned cell `repro snapshot` gates in CI — the bench and the
    // committed BENCH_trace_baseline.json always describe the same workload.
    let scenario = trace_snapshot_scenario();
    let policy = scenario.policy;
    let code = scenario.build_code();
    let spec = scenario.to_spec();
    let engine = BatchEngine::new(&code, &spec);
    let (header, traces) = record_cell(&scenario, policy, "bench");
    let mut encoded = Vec::new();
    {
        let mut writer = TraceWriter::new(&mut encoded, &header).expect("in-memory write");
        for trace in &traces {
            writer.write_shot(trace).expect("in-memory write");
        }
        let _ = writer.finish().expect("in-memory write");
    }
    let cell = LoadedCell { header: header.clone(), shots: traces.clone(), code: code.clone() };
    let factory = Arc::new(PolicyFactory::new(&code, &calibration_for(&header)));

    let mut group = c.benchmark_group("trace");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("record_16_shots", |b| {
        b.iter(|| engine.trace_records());
    });
    group.bench_function("encode_16_shots", |b| {
        b.iter(|| {
            let mut bytes = Vec::new();
            let mut writer = TraceWriter::new(&mut bytes, &header).expect("in-memory write");
            for trace in &traces {
                writer.write_shot(trace).expect("in-memory write");
            }
            let _ = writer.finish().expect("in-memory write");
            bytes
        });
    });
    group.bench_function("decode_16_shots", |b| {
        b.iter(|| {
            let mut reader = TraceReader::new(encoded.as_slice()).expect("in-memory read");
            reader.read_all().expect("in-memory read")
        });
    });
    group.bench_function("replay_16_shots", |b| {
        b.iter(|| {
            evaluate_cell(&cell, &factory, policy, None, ReplayMode::OpenLoop).expect("replay")
        });
    });
    group.bench_function("resim_16_shots", |b| {
        b.iter(|| engine.run());
    });
    // Closed-loop replay of the recording policy: zero divergence, so this is
    // the pure-replay fast path of exact counterfactual evaluation.
    group.bench_function("closed_loop_16_shots", |b| {
        b.iter(|| {
            evaluate_cell(&cell, &factory, policy, None, ReplayMode::ClosedLoop)
                .expect("closed-loop")
        });
    });
    // Closed-loop replay of a different policy: pays divergence repair
    // (forced prefix + live suffix) on every divergent shot.
    group.bench_function("closed_loop_cross_16_shots", |b| {
        b.iter(|| {
            evaluate_cell(&cell, &factory, PolicyKind::EraserM, None, ReplayMode::ClosedLoop)
                .expect("closed-loop cross")
        });
    });
    // Four candidate policies against one organically-leaking recorded cell:
    // one forced pass per divergent shot plus per-candidate suffixes, instead
    // of four full re-simulations. This is the headline cost model of
    // shared-checkpoint cross-policy replay.
    let (multi_cell, multi_factory) = trace_snapshot_multi_cell();
    let no_decoders = vec![None; MULTI_SNAPSHOT_POLICIES.len()];
    group.bench_function("closed_loop_multi_16_shots", |b| {
        b.iter(|| {
            evaluate_cell_set(
                &multi_cell,
                &multi_factory,
                &MULTI_SNAPSHOT_POLICIES,
                &no_decoders,
                ReplayMode::ClosedLoop,
                true,
            )
            .expect("closed-loop multi")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
