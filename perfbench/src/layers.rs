//! The traced run, and every call the benchmark makes into layer internals
//! (`evaluate_cell_set`, `load_entry`, the simulator and decoders), kept in
//! this one module so later refactors of those internals touch one file.
//!
//! Spans are recorded from outside: policies are wrapped in a timing
//! [`LeakagePolicy`] and decoders in a timing [`DecoderBackend`], and every
//! other layer call is timed around the call. Each span carries exact work
//! counters taken from public outputs only, and the traced pass is a fixed
//! amount of work derived from `--seed`, so two runs with the same seed give
//! identical counters — the pass runs twice in-process and checks that too.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use leakage_speculation::{PolicyFactory, PolicyKind};
use leaky_sim::policy::NeverLrc;
use leaky_sim::{LeakagePolicy, LrcRequest, PolicyContext, RunRecord, Simulator};
use qec_decoder::{logical_failure, Correction, DecoderBackend, DecoderKind, MemoryBasis};
use qec_experiments::engine::build_backend;
use qec_experiments::replay::{
    calibration_for, evaluate_cell, evaluate_cell_set, evaluation_row, load_entry, record_cell,
    spec_from_header,
};
use qec_experiments::{
    replay_corpus_with_stats, AggregateMetrics, BatchEngine, CheckpointStats, ReplayCellResult,
    ReplayMode, RunMetrics,
};
use qec_serve::{
    parse_request, parse_response, response_line, CachedCell, CellCache, EvalSpec, ServerStats,
};
use qec_trace::{Corpus, TraceWriter};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::workloads::{
    build_sweep, mix, record_corpus, replay_options, replay_scenarios, serve_scenarios,
    server_stats, stream, sweep_pass, ServeSetup, Stop, SweepCell, CANDIDATES, POOL_THREADS,
};
use crate::{median, Args, Report, WorkDir};

/// Timed repetitions of the traced pass; counters must agree between them.
const REPS: usize = 2;
/// `gen_bool` draws per RNG timing sample.
const RNG_DRAWS: u32 = 1 << 22;
/// Shots of the `NeverLrc` round-executor sample.
const ROUND_SHOTS: u64 = 128;
/// Sweep grid passes per repetition.
const SWEEP_PASSES: usize = 6;
/// Repetitions of the micro-timed serve stages per batch.
const PARSE_REPS: usize = 100;
const EVAL_REPS: usize = 4;
/// Batches per client connection in the traced serve streams.
const STREAM_OPS: usize = 1500;
/// Cells the direct serve evaluator keeps resident, as the daemon's default.
const SERVE_CACHE_CELLS: usize = 8;

/// Wall time, calls and a work counter of one layer, summed across threads.
#[derive(Debug, Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
    work: AtomicU64,
}

impl Span {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed(), 1, 0);
        out
    }

    fn record(&self, elapsed: Duration, calls: u64, work: u64) {
        self.ns.fetch_add(elapsed.as_nanos() as u64, Relaxed);
        self.calls.fetch_add(calls, Relaxed);
        self.work.fetch_add(work, Relaxed);
    }

    fn ns(&self) -> f64 {
        self.ns.load(Relaxed) as f64
    }

    fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    fn work(&self) -> u64 {
        self.work.load(Relaxed)
    }

    fn per_call(&self) -> f64 {
        self.ns() / self.calls().max(1) as f64
    }
}

/// A policy whose `plan_lrcs` calls are timed; work counts LRCs scheduled.
struct TimedPolicy<'s> {
    inner: Box<dyn LeakagePolicy + Send>,
    span: &'s Span,
}

impl LeakagePolicy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan_lrcs(&mut self, ctx: &PolicyContext<'_>) -> LrcRequest {
        let start = Instant::now();
        let request = self.inner.plan_lrcs(ctx);
        self.span.record(start.elapsed(), 1, request.len() as u64);
        request
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A decoder whose event extraction and decoding are timed; calls count
/// decodes.
#[derive(Debug)]
struct TimedDecoder {
    inner: Arc<dyn DecoderBackend>,
    span: Arc<Span>,
}

impl DecoderBackend for TimedDecoder {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn layers(&self) -> usize {
        self.inner.layers()
    }

    fn detection_events(&self, run: &RunRecord) -> Vec<usize> {
        let start = Instant::now();
        let events = self.inner.detection_events(run);
        self.span.record(start.elapsed(), 0, 0);
        events
    }

    fn decode(&self, detection_events: &[usize]) -> Correction {
        let start = Instant::now();
        let correction = self.inner.decode(detection_events);
        self.span.record(start.elapsed(), 1, 0);
        correction
    }
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let mut report = Report::default();
    rng_layer(args.seed, &mut report);
    round_layer(args.seed, &mut report);
    sweep_layers(args.seed, &mut report)?;
    replay_layers(args.seed, work.path(), &mut report)?;
    encode_layer(args.seed, work.path(), &mut report)?;
    serve_layers(args.seed, work.path(), &mut report)?;
    report.notes.push(
        "sim.rng draw counts wait for in-program tracing: the simulator's RNG is private, \
         so its draws cannot be counted from outside"
            .to_string(),
    );
    Ok(report)
}

/// Checks the counters of every repetition are identical.
fn counters_repeat<T: PartialEq + std::fmt::Debug>(
    report: &mut Report,
    counters: &[T],
    what: &str,
) {
    let same = counters.windows(2).all(|pair| pair[0] == pair[1]);
    if !same {
        eprintln!("perfbench: {what} counters differ between repetitions: {counters:?}");
    }
    report.tally.check(same, &format!("{what} work counters repeat exactly"));
}

// ---------------------------------------------------------------------------
// sim.rng, sim.round
// ---------------------------------------------------------------------------

/// The vendored ChaCha8 stream the simulator draws from, one Bernoulli draw
/// at a time as `sim::rounds` does.
fn rng_layer(seed: u64, report: &mut Report) {
    let per_draw: Vec<f64> = (0..5)
        .map(|rep| {
            let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 50 + rep));
            let start = Instant::now();
            let mut fired = 0u32;
            for _ in 0..RNG_DRAWS {
                fired += u32::from(rng.gen_bool(black_box(1e-3)));
            }
            black_box(fired);
            start.elapsed().as_nanos() as f64 / f64::from(RNG_DRAWS)
        })
        .collect();
    report.metric("sim.rng.ns_per_draw", median(&per_draw), "ns");
}

/// The round executor alone: `Simulator::run_with_policy` under `NeverLrc`
/// on the d=5, 30-round, p=1e-3 replay cell, one thread.
fn round_layer(seed: u64, report: &mut Report) {
    let scenario = replay_scenarios(seed)[0];
    let spec = scenario.to_spec();
    let code = scenario.build_code();
    let mut sim = Simulator::new(&code, spec.noise, spec.seed);
    let mut rounds = 0;
    let per_round: Vec<f64> = (0..3)
        .map(|_| {
            rounds = 0;
            let start = Instant::now();
            for shot in 0..ROUND_SHOTS {
                sim.reseed_for_shot(spec.seed, shot, spec.leakage_sampling);
                rounds += sim.run_with_policy(&mut NeverLrc, spec.rounds).num_rounds();
            }
            start.elapsed().as_nanos() as f64 / rounds as f64
        })
        .collect();
    report.metric("sim.round.ns_per_round", median(&per_round), "ns");
    report.metric("sim.round.rounds", rounds as f64, "count");
}

// ---------------------------------------------------------------------------
// sweep-live: sim, policy.plan, decode.uf, score
// ---------------------------------------------------------------------------

/// Spans of the re-driven sweep pipeline.
#[derive(Default)]
pub struct SweepSpans {
    sim: Span,
    plan: Span,
    decode: Arc<Span>,
    score: Span,
    shot: Span,
}

impl SweepSpans {
    fn counters(&self) -> [u64; 5] {
        [
            self.sim.calls(),
            self.plan.calls(),
            self.plan.work(),
            self.decode.calls(),
            self.score.calls(),
        ]
    }
}

/// Re-drives each sweep cell shot by shot through the public layer entry
/// points — the same per-shot ritual as `BatchEngine::run` (reseed, reset,
/// run, score, decode) on the same worker threads — with the policy and
/// decoder wrapped in timers. Returns each cell's aggregate metrics.
pub fn sweep_redrive(cells: &[SweepCell], spans: &SweepSpans) -> Vec<AggregateMetrics> {
    cells
        .iter()
        .map(|cell| {
            let spec = &cell.spec;
            let code = cell.factory.code();
            let decoder =
                TimedDecoder { inner: Arc::clone(&cell.decoder), span: Arc::clone(&spans.decode) };
            let runs: Vec<RunMetrics> = (0..spec.shots as u64)
                .into_par_iter()
                .map_init(
                    || {
                        let policy = TimedPolicy {
                            inner: cell.factory.build(spec.policy),
                            span: &spans.plan,
                        };
                        (Simulator::new(code, spec.noise, spec.seed), policy)
                    },
                    |(sim, policy), shot| {
                        let start = Instant::now();
                        sim.reseed_for_shot(spec.seed, shot, spec.leakage_sampling);
                        policy.reset();
                        let run = spans.sim.time(|| sim.run_with_policy(policy, spec.rounds));
                        let correction = decoder.decode_run(&run);
                        let metrics = spans.score.time(|| {
                            let mut metrics = RunMetrics::score(&run, spec.noise.lrc_time_ns);
                            metrics.logical_error =
                                Some(logical_failure(code, &run, &correction, MemoryBasis::Z));
                            metrics
                        });
                        spans.shot.record(start.elapsed(), 1, 0);
                        metrics
                    },
                )
                .collect();
            AggregateMetrics::from_runs(&runs)
        })
        .collect()
}

fn sweep_layers(seed: u64, report: &mut Report) -> Result<(), String> {
    let cells = build_sweep(seed)?;
    let live = sweep_pass(&cells);
    let untraced: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..SWEEP_PASSES {
                black_box(sweep_pass(&cells));
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    let mut traced = Vec::new();
    let mut counters = Vec::new();
    let mut spans = SweepSpans::default();
    for _ in 0..REPS {
        spans = SweepSpans::default();
        let start = Instant::now();
        for _ in 0..SWEEP_PASSES {
            let got = sweep_redrive(&cells, &spans);
            report
                .tally
                .check(got == live, "traced sweep-live metrics are bit-equal to BatchEngine::run");
        }
        traced.push(start.elapsed().as_secs_f64());
        counters.push(spans.counters());
    }
    counters_repeat(report, &counters, "sweep-live");
    // Shares are of the summed per-shot pipeline time across workers.
    let base = spans.shot.ns();
    let sim_self = spans.sim.ns() - spans.plan.ns();
    report.metric("sim.round.share", sim_self / base, "ratio");
    report.metric("policy.plan.ns_per_call", spans.plan.per_call(), "ns");
    report.metric("policy.plan.calls", spans.plan.calls() as f64, "count");
    report.metric("policy.plan.lrcs", spans.plan.work() as f64, "count");
    report.metric("policy.plan.share", spans.plan.ns() / base, "ratio");
    report.metric("decode.uf.ns_per_call", spans.decode.per_call(), "ns");
    report.metric("decode.uf.calls", spans.decode.calls() as f64, "count");
    report.metric("decode.uf.share", spans.decode.ns() / base, "ratio");
    report.metric("score.ns_per_shot", spans.score.per_call(), "ns");
    report.metric("score.share", spans.score.ns() / base, "ratio");
    report.metric(
        "bench.tracing_overhead.sweep-live",
        median(&traced) / median(&untraced),
        "ratio",
    );
    report.notes.push(format!(
        "sweep-live shares base: the summed per-shot pipeline time across workers ({:.0} ms over {} shots)",
        base / 1e6,
        spans.shot.calls()
    ));
    Ok(())
}

// ---------------------------------------------------------------------------
// replay-closed: trace.decode, policy.build, decode.build, replay.closed
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ReplaySpans {
    load: Span,
    build: Span,
    decoder_build: Span,
    closed: Span,
    decode: Arc<Span>,
    resim: Span,
}

/// What one traced replay pass produced.
struct ReplayPass {
    rows: Vec<ReplayCellResult>,
    stats: CheckpointStats,
    divergent_shots: u64,
    shots: u64,
    bytes: u64,
    decode_calls: u64,
}

/// `replay_corpus_with_stats`'s per-cell work, one layer call at a time:
/// load the shard, build the calibrated factory (offline model) and the uf
/// decoder, then evaluate the closed-loop candidate set with decoding.
fn replay_pipeline(dir: &Path, spans: &ReplaySpans) -> Result<ReplayPass, String> {
    let corpus = Corpus::open_existing(dir).map_err(|e| e.to_string())?;
    let mut pass = ReplayPass {
        rows: Vec::new(),
        stats: CheckpointStats::default(),
        divergent_shots: 0,
        shots: 0,
        bytes: 0,
        decode_calls: 0,
    };
    let decode_calls_before = spans.decode.calls();
    for entry in corpus.entries() {
        let path = corpus.trace_path(entry);
        pass.bytes +=
            std::fs::metadata(&path).map_err(|e| format!("{}: {e}", path.display()))?.len();
        let cell = spans.load.time(|| load_entry(&corpus, entry))?;
        pass.shots += cell.shots.len() as u64;
        let factory = spans.build.time(|| {
            let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
            for kind in CANDIDATES {
                drop(factory.build(kind));
            }
            factory
        });
        let decoder =
            spans.decoder_build.time(|| build_backend(None, &cell.code, cell.header.rounds))?;
        let timed = TimedDecoder { inner: decoder, span: Arc::clone(&spans.decode) };
        let decoders: Vec<Option<&dyn DecoderBackend>> = vec![Some(&timed); CANDIDATES.len()];
        let (replays, stats) = spans.closed.time(|| {
            evaluate_cell_set(&cell, &factory, &CANDIDATES, &decoders, ReplayMode::ClosedLoop, true)
        })?;
        pass.stats.absorb(&stats);
        for (kind, replay) in CANDIDATES.into_iter().zip(&replays) {
            pass.divergent_shots += replay.divergent_shots as u64;
            pass.rows.push(evaluation_row(&entry.key, &cell, kind, None, replay));
        }
    }
    pass.decode_calls = spans.decode.calls() - decode_calls_before;
    Ok(pass)
}

/// Live re-simulation of every (cell, candidate) pairing with decoding, the
/// base of `replay.closed.vs_resim`; returns each pairing's metrics.
fn live_resim(
    dir: &Path,
    span: &Span,
) -> Result<Vec<(String, PolicyKind, AggregateMetrics)>, String> {
    let corpus = Corpus::open_existing(dir).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for entry in corpus.entries() {
        let cell = load_entry(&corpus, entry)?;
        let factory = Arc::new(PolicyFactory::new(&cell.code, &calibration_for(&cell.header)));
        for kind in CANDIDATES {
            drop(factory.build(kind));
        }
        let decoder = build_backend(None, &cell.code, cell.header.rounds)?;
        for kind in CANDIDATES {
            let spec = spec_from_header(&cell.header, kind, true);
            let engine =
                BatchEngine::with_shared(&spec, Arc::clone(&factory), Some(Arc::clone(&decoder)));
            let live = span.time(|| engine.run());
            out.push((entry.key.clone(), kind, live.metrics));
        }
    }
    Ok(out)
}

fn replay_layers(seed: u64, work: &Path, report: &mut Report) -> Result<(), String> {
    let dir = work.join("trace-replay");
    record_corpus(&dir, &replay_scenarios(seed))?;
    let options = replay_options();
    let (reference, _) = replay_corpus_with_stats(&dir, &options)?;
    let mut untraced = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        let (again, _) = replay_corpus_with_stats(&dir, &options)?;
        untraced.push(start.elapsed().as_secs_f64());
        report.tally.check(again == reference, "a replay report repeats the first report");
    }
    let mut traced = Vec::new();
    let mut passes = Vec::new();
    let mut spans = ReplaySpans::default();
    for _ in 0..REPS {
        spans = ReplaySpans::default();
        let start = Instant::now();
        let pass = replay_pipeline(&dir, &spans)?;
        traced.push(start.elapsed().as_secs_f64());
        report
            .tally
            .check(pass.rows == reference.results, "traced replay rows equal the replay report");
        passes.push(pass);
    }
    let counters: Vec<_> = passes
        .iter()
        .map(|p| (p.stats, p.divergent_shots, p.shots, p.bytes, p.decode_calls))
        .collect();
    counters_repeat(report, &counters, "replay-closed");
    for (key, kind, live) in live_resim(&dir, &spans.resim)? {
        let row = reference.results.iter().find(|row| row.key == key && row.policy == kind.label());
        report.tally.check(
            row.is_some_and(|row| row.metrics == live),
            &format!("closed-loop {kind} on `{key}` equals a live BatchEngine run"),
        );
    }
    let pass = &passes[0];
    let evals = (pass.shots * CANDIDATES.len() as u64) as f64;
    let wall = traced.last().copied().unwrap_or(0.0) * 1e9;
    let cells = pass.rows.len() as f64 / CANDIDATES.len() as f64;
    report.metric("policy.build.ms", spans.build.ns() / cells / 1e6, "ms");
    report.metric("policy.build.share", spans.build.ns() / wall, "ratio");
    report.metric("decode.build.ms", spans.decoder_build.ns() / cells / 1e6, "ms");
    report.metric("decode.build.share", spans.decoder_build.ns() / wall, "ratio");
    report.metric("trace.decode.ns_per_shot", spans.load.ns() / pass.shots as f64, "ns");
    report.metric("trace.decode.bytes", pass.bytes as f64, "bytes");
    report.metric("trace.decode.share", spans.load.ns() / wall, "ratio");
    report.metric("replay.closed.ns_per_eval", spans.closed.ns() / evals, "ns");
    report.metric("replay.closed.forced_passes", pass.stats.forced_passes as f64, "count");
    report.metric("replay.closed.forced_rounds", pass.stats.forced_rounds as f64, "count");
    report.metric("replay.closed.suffixes", pass.stats.suffixes as f64, "count");
    report.metric("replay.closed.peak_checkpoints", pass.stats.peak_checkpoints as f64, "count");
    report.metric("replay.closed.divergent_shots", pass.divergent_shots as f64, "count");
    report.metric("replay.closed.decode_calls", pass.decode_calls as f64, "count");
    report.metric("replay.closed.vs_resim", spans.closed.ns() / spans.resim.ns(), "ratio");
    report.metric("replay.closed.share", spans.closed.ns() / wall, "ratio");
    report.metric(
        "bench.tracing_overhead.replay-closed",
        median(&traced) / median(&untraced),
        "ratio",
    );
    report.notes.push(format!(
        "replay-closed shares base: the traced pipeline's wall time ({:.1} ms; replay.closed includes the \
         simulation and decoding it drives)",
        wall / 1e6
    ));
    report.notes.push(format!(
        "replay.closed.vs_resim base: live BatchEngine re-simulation of the same {} shots for each of {} candidates, decoding on",
        pass.shots,
        CANDIDATES.len()
    ));
    Ok(())
}

// ---------------------------------------------------------------------------
// trace.encode
// ---------------------------------------------------------------------------

/// `.qtr` encoding of every recorded cell (the replay and serve corpora),
/// checked against the bytes recording wrote to disk.
fn encode_layer(seed: u64, work: &Path, report: &mut Report) -> Result<(), String> {
    let mut scenarios = replay_scenarios(seed).to_vec();
    scenarios.extend(serve_scenarios(seed)?);
    let dir = work.join("trace-encode");
    record_corpus(&dir, &scenarios)?;
    let corpus = Corpus::open_existing(&dir).map_err(|e| e.to_string())?;
    let span = Span::default();
    let (mut shots, mut bytes) = (0u64, 0u64);
    for (scenario, entry) in scenarios.iter().zip(corpus.entries()) {
        let (header, traces) = record_cell(scenario, scenario.policy, "perfbench");
        let on_disk = std::fs::read(corpus.trace_path(entry)).map_err(|e| e.to_string())?;
        for rep in 0..5 {
            let encoded = span.time(|| -> Result<Vec<u8>, String> {
                let mut writer =
                    TraceWriter::new(Vec::new(), &header).map_err(|e| e.to_string())?;
                for trace in &traces {
                    writer.write_shot(trace).map_err(|e| e.to_string())?;
                }
                writer.finish().map_err(|e| e.to_string())
            })?;
            if rep == 0 {
                report.tally.check(
                    encoded == on_disk,
                    &format!("encoded `{}` equals its recorded shard", entry.key),
                );
                shots += traces.len() as u64;
                bytes += encoded.len() as u64;
            }
        }
    }
    report.metric("trace.encode.ns_per_shot", span.ns() / (5 * shots) as f64, "ns");
    report.metric("trace.encode.bytes_per_shot", bytes as f64 / shots as f64, "bytes");
    Ok(())
}

// ---------------------------------------------------------------------------
// serve: parse, eval, serialize, wire; route.hop
// ---------------------------------------------------------------------------

/// Decoder and open-loop spans of the direct serve evaluation.
#[derive(Clone, Default)]
struct ServeSpans {
    uf: Arc<Span>,
    lookup: Arc<Span>,
    open: Arc<Span>,
}

impl ServeSpans {
    fn wrap(&self, decoder: Arc<dyn DecoderBackend>) -> Arc<dyn DecoderBackend> {
        let span =
            if decoder.label() == DecoderKind::Lookup.label() { &self.lookup } else { &self.uf };
        Arc::new(TimedDecoder { inner: decoder, span: Arc::clone(span) })
    }
}

/// One resolved batch member.
struct Member {
    cached: Arc<CachedCell>,
    policy: PolicyKind,
    mode: ReplayMode,
    decoder: Option<DecoderKind>,
    decode: bool,
}

type Job = Box<dyn FnOnce() -> Result<Vec<(usize, ReplayCellResult)>, String> + Send>;
/// Members keyed by cell for closed-loop sharing (`None`: evaluated solo).
type Group = (Option<String>, Vec<(usize, Member)>);

/// The evaluation a daemon runs for a `batch-eval`, run directly over the
/// same corpus through the serve crate's own cell cache.
pub struct ServeEval {
    corpus: Corpus,
    cache: CellCache,
    pool: rayon::ThreadPool,
}

impl ServeEval {
    pub fn open(dir: &Path) -> Result<ServeEval, String> {
        Ok(ServeEval {
            corpus: Corpus::open_existing(dir).map_err(|e| e.to_string())?,
            cache: CellCache::new(SERVE_CACHE_CELLS),
            pool: rayon::ThreadPool::new(POOL_THREADS),
        })
    }

    fn member(&self, spec: &EvalSpec) -> Result<Member, String> {
        let entry =
            self.corpus.lookup(&spec.key).ok_or_else(|| format!("no cell `{}`", spec.key))?;
        let (cached, _) = self.cache.get_or_load(&self.corpus, entry)?;
        let policy = PolicyKind::from_label(&spec.policy)
            .ok_or_else(|| format!("no policy `{}`", spec.policy))?;
        let mode = match spec.mode.as_deref() {
            Some("closed-loop") => ReplayMode::ClosedLoop,
            _ => ReplayMode::OpenLoop,
        };
        let decoder = match spec.decoder.as_deref() {
            None => None,
            Some(label) => Some(
                DecoderKind::from_label(label).ok_or_else(|| format!("no decoder `{label}`"))?,
            ),
        };
        Ok(Member { cached, policy, mode, decoder, decode: spec.decode.unwrap_or(false) })
    }

    /// Every member on its own through `evaluate_cell` — the reference served
    /// rows are checked against.
    pub fn solo_rows(&self, evals: &[EvalSpec]) -> Result<Vec<ReplayCellResult>, String> {
        evals.iter().map(|spec| eval_solo(&self.member(spec)?, None)).collect()
    }

    /// The daemon's batch evaluation: same-cell closed-loop members share one
    /// candidate-set evaluation, the rest evaluate solo, and the jobs fan out
    /// on a 2-thread pool. Rows come back in request order.
    fn batch_rows(
        &self,
        evals: &[EvalSpec],
        spans: Option<&ServeSpans>,
    ) -> Result<Vec<ReplayCellResult>, String> {
        let mut groups: Vec<Group> = Vec::new();
        for (index, spec) in evals.iter().enumerate() {
            let member = self.member(spec)?;
            let key = (member.mode == ReplayMode::ClosedLoop).then(|| member.cached.key.clone());
            match key
                .as_ref()
                .and_then(|key| groups.iter_mut().find(|(k, _)| k.as_ref() == Some(key)))
            {
                Some((_, members)) => members.push((index, member)),
                None => groups.push((key, vec![(index, member)])),
            }
        }
        let jobs: Vec<Job> = groups
            .into_iter()
            .map(|(_, members)| -> Job {
                let spans = spans.cloned();
                if members.len() == 1 {
                    Box::new(move || {
                        let (index, member) = &members[0];
                        Ok(vec![(*index, eval_solo(member, spans.as_ref())?)])
                    })
                } else {
                    Box::new(move || eval_group(&members, spans.as_ref()))
                }
            })
            .collect();
        let mut rows: Vec<Option<ReplayCellResult>> = evals.iter().map(|_| None).collect();
        for job_rows in self.pool.execute_ordered(jobs) {
            for (index, row) in job_rows? {
                rows[index] = Some(row);
            }
        }
        Ok(rows.into_iter().map(|row| row.expect("every member evaluated")).collect())
    }
}

fn eval_solo(member: &Member, spans: Option<&ServeSpans>) -> Result<ReplayCellResult, String> {
    let closed = member.mode == ReplayMode::ClosedLoop;
    let cached = &member.cached;
    // Open-loop decoding applies to the recording policy only, as in the daemon.
    let decoder = (member.decode && (closed || member.policy == cached.recorded))
        .then(|| cached.backend(member.decoder))
        .transpose()?
        .map(|decoder| match spans {
            Some(spans) => spans.wrap(decoder),
            None => decoder,
        });
    let evaluate = || {
        evaluate_cell(&cached.cell, &cached.factory, member.policy, decoder.as_deref(), member.mode)
    };
    let replay = match spans {
        Some(spans) if !closed => spans.open.time(evaluate),
        _ => evaluate(),
    }?;
    Ok(evaluation_row(&cached.key, &cached.cell, member.policy, member.decoder, &replay))
}

fn eval_group(
    members: &[(usize, Member)],
    spans: Option<&ServeSpans>,
) -> Result<Vec<(usize, ReplayCellResult)>, String> {
    let cached = &members[0].1.cached;
    let kinds: Vec<PolicyKind> = members.iter().map(|(_, m)| m.policy).collect();
    let decoders: Vec<Option<Arc<dyn DecoderBackend>>> = members
        .iter()
        .map(|(_, m)| {
            let decoder = m.decode.then(|| m.cached.backend(m.decoder)).transpose()?;
            Ok(decoder.map(|d| match spans {
                Some(spans) => spans.wrap(d),
                None => d,
            }))
        })
        .collect::<Result<_, String>>()?;
    let refs: Vec<Option<&dyn DecoderBackend>> = decoders.iter().map(Option::as_deref).collect();
    let (replays, _) = evaluate_cell_set(
        &cached.cell,
        &cached.factory,
        &kinds,
        &refs,
        ReplayMode::ClosedLoop,
        true,
    )?;
    Ok(members
        .iter()
        .zip(&replays)
        .map(|((index, m), replay)| {
            (*index, evaluation_row(&cached.key, &cached.cell, m.policy, m.decoder, replay))
        })
        .collect())
}

/// Deltas of the counters a stream moves, from `stats` before and after.
fn stats_delta(before: &ServerStats, after: &ServerStats) -> [u64; 9] {
    [
        after.evals - before.evals,
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
        after.shared_passes - before.shared_passes,
        after.suffixes_served - before.suffixes_served,
        after.shed_requests - before.shed_requests,
        // The router counts the `stats` request after the stream itself.
        after.routed_requests.saturating_sub(before.routed_requests + 1),
        after.fanout_hwm,
        after.replica_errors - before.replica_errors,
    ]
}

/// A fixed-size stream against `target` with `stats` deltas around it.
fn measured_stream(
    setup: &ServeSetup,
    target: SocketAddr,
    seed: u64,
) -> Result<(f64, [u64; 9]), String> {
    let before = server_stats(target)?;
    let run = stream(&setup.batches, target, &setup.warm_mono, Stop::Ops(STREAM_OPS), seed)?;
    let after = server_stats(target)?;
    if run.failed > 0 || run.latencies.is_empty() {
        return Err(format!(
            "{} of {} traced batches to {target} failed",
            run.failed,
            run.ok + run.failed
        ));
    }
    Ok((median(&run.latencies) * 1e9, stats_delta(&before, &after)))
}

fn serve_layers(seed: u64, work: &Path, report: &mut Report) -> Result<(), String> {
    let setup = ServeSetup::build(seed, &work.join("trace-serve"))?;
    setup.verify(&mut report.tally)?;
    let batches = &setup.batches;

    let parse = Span::default();
    for _ in 0..PARSE_REPS {
        for batch in batches {
            parse.time(|| parse_request(&batch.line)).map_err(|e| e.to_string())?;
        }
    }
    let serialize = Span::default();
    let mut bytes = 0usize;
    for line in &setup.warm_mono {
        let response = parse_response(line).map_err(|e| e.to_string())?;
        let mut out = String::new();
        for _ in 0..PARSE_REPS {
            out = serialize.time(|| response_line(&response));
        }
        report.tally.check(out == *line, "a served response re-serializes to its own bytes");
        bytes += line.len();
    }

    let evaluator = ServeEval::open(&setup.corpus_dir)?;
    let mut expected = Vec::new();
    for batch in batches {
        expected.push(evaluator.solo_rows(&batch.evals)?);
    }
    let mut spans = ServeSpans::default();
    let (mut untraced, mut traced) = (Span::default(), Span::default());
    let mut counters = Vec::new();
    for _ in 0..REPS {
        spans = ServeSpans::default();
        (untraced, traced) = (Span::default(), Span::default());
        for _ in 0..EVAL_REPS {
            for (batch, rows) in batches.iter().zip(&expected) {
                let plain = untraced.time(|| evaluator.batch_rows(&batch.evals, None))?;
                let timed = traced.time(|| evaluator.batch_rows(&batch.evals, Some(&spans)))?;
                report.tally.check(
                    plain == *rows && timed == *rows,
                    "the daemon's batch evaluation equals solo evaluation",
                );
            }
        }
        counters.push([spans.uf.calls(), spans.lookup.calls(), spans.open.calls()]);
    }

    let (mono_p50, mono_counts) = measured_stream(&setup, setup.mono, seed)?;
    let (routed_p50, routed_counts) = measured_stream(&setup, setup.router, seed)?;
    let (_, mono_again) = measured_stream(&setup, setup.mono, seed)?;
    counters_repeat(report, &counters, "serve-batch evaluation");
    counters_repeat(report, &[mono_counts, mono_again], "serve-batch daemon");

    let parse_ns = parse.per_call();
    let eval_ns = traced.per_call();
    let serialize_ns = serialize.per_call();
    let wire_ns = mono_p50 - parse_ns - eval_ns - serialize_ns;
    report.metric("decode.lookup.ns_per_call", spans.lookup.per_call(), "ns");
    report.metric("decode.lookup.calls", spans.lookup.calls() as f64, "count");
    report.metric("replay.open.ns_per_eval", spans.open.per_call(), "ns");
    report.metric("serve.parse.ns_per_request", parse_ns, "ns");
    report.metric("serve.parse.share", parse_ns / mono_p50, "ratio");
    report.metric("serve.eval.ns_per_batch", eval_ns, "ns");
    report.metric("serve.eval.share", eval_ns / mono_p50, "ratio");
    report.metric("serve.serialize.ns_per_response", serialize_ns, "ns");
    report.metric(
        "serve.serialize.bytes_per_response",
        bytes as f64 / batches.len() as f64,
        "bytes",
    );
    report.metric("serve.serialize.share", serialize_ns / mono_p50, "ratio");
    report.metric("serve.wire.ns_per_batch", wire_ns, "ns");
    report.metric("serve.wire.share", wire_ns / mono_p50, "ratio");
    let names = [
        "evals",
        "cache_hits",
        "cache_misses",
        "shared_passes",
        "suffixes_served",
        "shed_requests",
    ];
    for (name, value) in names.iter().zip(mono_counts) {
        report.metric(format!("serve.{name}"), value as f64, "count");
    }
    let hop = routed_p50 - mono_p50;
    report.metric("route.hop.ns_per_batch", hop, "ns");
    report.metric("route.hop.share", hop / routed_p50, "ratio");
    report.metric("route.tax_ratio", routed_p50 / mono_p50, "ratio");
    report.metric("route.routed_requests", routed_counts[6] as f64, "count");
    report.metric("route.fanout_hwm", routed_counts[7] as f64, "count");
    report.metric("route.replica_errors", routed_counts[8] as f64, "count");
    report.metric("bench.tracing_overhead.serve-batch", traced.ns() / untraced.ns(), "ratio");
    report.notes.push(format!(
        "serve shares are of the monolithic p50 ({:.0} ns, {} batches); route.tax_ratio base: monolithic p50; \
         route.hop.share base: routed p50 ({:.0} ns)",
        mono_p50,
        2 * STREAM_OPS,
        routed_p50
    ));
    Ok(())
}
