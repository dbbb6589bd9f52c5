//! The untraced end-to-end runs. Each workload builds its set-up several
//! times (reporting the median), then runs a closed loop of timed ops for
//! `--seconds` through the stable entry points `repro` itself calls:
//! `SweepSpec` + `BatchEngine::with_shared(..).run()`,
//! `replay_corpus_with_stats`, and the frozen NDJSON protocol. Outputs are
//! checked on every op; the heavier cross-checks run outside the timed loop.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use leakage_speculation::{PolicyFactory, PolicyKind};
use qec_cluster::{shard_corpus, Router, RouterConfig, ShardOptions};
use qec_decoder::DecoderBackend;
use qec_experiments::engine::build_backend;
use qec_experiments::harness::ExperimentSpec;
use qec_experiments::replay::{cell_key, record_into_corpus};
use qec_experiments::{
    replay_corpus_with_stats, AggregateMetrics, BatchEngine, CodeFamily, ReplayMode, ReplayOptions,
    Scenario, SweepSpec,
};
use qec_serve::client::ClientConfig;
use qec_serve::{
    parse_response, request_line, Client, EvalSpec, Request, RequestKind, ResponseKind,
    ServeConfig, Server, ServerStats,
};
use qec_trace::cluster::{ClusterMap, CLUSTER_FILE};
use qec_trace::Corpus;

use crate::{layers, median, peak_rss_mib, percentile, Args, Report, Tally, WorkDir, Workload};

/// Set-ups built per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Shots per sweep cell per pass: 4 cells make one pass of ~35-60 ms on a
/// 2-vCPU x86-64 VM, so a 20 s run holds several hundred passes.
const SWEEP_SHOTS: usize = 64;
/// Shots per recorded replay cell: enough that the seed's draw of
/// divergence points averages out (~40 ms per corpus replay).
const REPLAY_SHOTS: usize = 48;
/// Shots per served cell: small d=3 cells, as a serving corpus holds.
const SERVE_SHOTS: usize = 8;
const SERVE_REPLICAS: usize = 2;
/// Physical error rates of the served cells; each replica owns one cell of each.
const SERVE_RATES: [f64; 3] = [1e-3, 2e-3, 3e-3];
/// Distinct seeded batches; the clients draw from them at random.
const SERVE_BATCHES: usize = 64;
const BATCH_ITEMS: usize = 4;
/// Closed-loop client connections.
const CLIENTS: u64 = 2;
/// Evaluation pool threads of every in-process daemon.
pub const POOL_THREADS: usize = 2;

/// The speed kernels' nominal times, a little under their times on a 2-vCPU
/// x86-64 VM while it runs fast. Only units: end-to-end timings are reported
/// at this machine speed.
const NOMINAL_KERNEL_S: f64 = 2.0e-3;
const NOMINAL_ROUND_TRIPS_S: f64 = 8.0e-3;
/// Loopback round trips timed by the serve workloads' speed kernel.
const ROUND_TRIPS: usize = 400;
/// How often a run samples the machine's speed between timed ops.
const SPEED_PERIOD: Duration = Duration::from_millis(250);
/// One serve stream segment; the machine's speed is sampled between them.
const SERVE_SEGMENT: Duration = Duration::from_secs(1);

/// The candidate policies of closed-loop replay and of served batches.
pub const CANDIDATES: [PolicyKind; 4] =
    [PolicyKind::GladiatorM, PolicyKind::EraserM, PolicyKind::GladiatorDM, PolicyKind::MlrOnly];

/// A seed derived from the workload seed for one purpose (`salt`), so every
/// input is a function of `--seed` alone.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 32
}

/// Small deterministic generator for batch composition and client order.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(1);
        (mix(self.0, 0x5eed) % n as u64) as usize
    }
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let mut report = Report::default();
    match args.workload {
        Workload::SweepLive => sweep_live(args, &mut report)?,
        Workload::ReplayClosed => replay_closed(args, work, &mut report)?,
        Workload::ServeBatch | Workload::RouteBatch => serve_batch(args, work, &mut report)?,
    }
    report.metric("peak_rss_mb", peak_rss_mib()?, "MiB");
    let tally = &report.tally;
    report.notes.push(format!(
        "error_rate = {} ratio ({} failed of {} attempted ops and checks)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    Ok(report)
}

/// The machine's speed during a run. A shared VM runs the same build up to
/// ~40% slower for minutes at a time, so a fixed kernel that shares no code
/// with the workspace is timed between ops, and the end-to-end timings are
/// scaled to the speed at which the kernel takes its nominal time. A change
/// to the workspace cannot move the kernel, so a slower program still shows
/// in full.
struct Speed {
    kernel: fn() -> f64,
    nominal_s: f64,
    kernel_s: Vec<f64>,
    last: Option<Instant>,
}

impl Speed {
    /// For the compute-bound workloads: [`speed_kernel`].
    fn compute() -> Speed {
        Speed {
            kernel: speed_kernel,
            nominal_s: NOMINAL_KERNEL_S,
            kernel_s: Vec::new(),
            last: None,
        }
    }

    /// For the serve workloads, whose time goes to thread wake-ups and
    /// loopback sockets more than to compute: [`round_trip_kernel`].
    fn round_trips() -> Speed {
        Speed {
            kernel: round_trip_kernel,
            nominal_s: NOMINAL_ROUND_TRIPS_S,
            kernel_s: Vec::new(),
            last: None,
        }
    }

    fn sample(&mut self) {
        self.kernel_s.push((self.kernel)());
        self.last = Some(Instant::now());
    }

    fn sample_if_due(&mut self) {
        if self.last.is_none_or(|at| at.elapsed() >= SPEED_PERIOD) {
            self.sample();
        }
    }

    /// The latest kernel time over nominal: the slowdown of an op timed
    /// right after the sample.
    fn current(&self) -> f64 {
        self.kernel_s.last().expect("speed sampled before timing") / self.nominal_s
    }

    /// Median kernel time over nominal: above 1 while the machine runs slow.
    fn slowdown(&self) -> f64 {
        median(&self.kernel_s) / self.nominal_s
    }
}

/// A frozen stand-in for simulation work, run on `POOL_THREADS` threads:
/// branchy random updates of a bit frame plus per-round `Vec<bool>`
/// allocations, the mix the simulator spends its time on. Returns its wall
/// time in seconds.
fn speed_kernel() -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..POOL_THREADS as u64 {
            scope.spawn(move || {
                let mut x = 0x9E37_79B9_7F4A_7C15 ^ thread;
                let mut frame = vec![false; 4096];
                let mut flipped = 0usize;
                for _ in 0..1200 {
                    let mut measured = Vec::with_capacity(512);
                    for qubit in 0..512 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let site = (x as usize) & 4095;
                        if x % 1000 < 3 {
                            frame[site] = !frame[site];
                        }
                        measured.push(frame[(qubit * 8 + (x as usize & 7)) & 4095] ^ frame[site]);
                    }
                    let inverted: Vec<bool> = measured.iter().map(|bit| !bit).collect();
                    flipped += inverted.iter().filter(|&&bit| bit).count();
                }
                std::hint::black_box(flipped);
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// A frozen stand-in for a served request's transport: `ROUND_TRIPS` 64-byte
/// echoes between two threads over a loopback TCP connection. Returns its
/// wall time in seconds.
fn round_trip_kernel() -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
    let addr = listener.local_addr().expect("loopback listener address");
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept on loopback");
            conn.set_nodelay(true).expect("set TCP_NODELAY");
            let mut message = [0u8; 64];
            for _ in 0..ROUND_TRIPS {
                conn.read_exact(&mut message).expect("loopback read");
                conn.write_all(&message).expect("loopback write");
            }
        });
        let mut conn = TcpStream::connect(addr).expect("connect on loopback");
        conn.set_nodelay(true).expect("set TCP_NODELAY");
        let mut message = [7u8; 64];
        for _ in 0..ROUND_TRIPS {
            conn.write_all(&message).expect("loopback write");
            conn.read_exact(&mut message).expect("loopback read");
        }
    });
    start.elapsed().as_secs_f64()
}

/// Builds a set-up `SETUP_REPEATS` times, dropping each but the last before
/// the next is built, and returns the last with the median build time at
/// nominal speed.
fn repeated_setup<T>(
    speed: &mut Speed,
    mut build: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for round in 0..SETUP_REPEATS {
        drop(kept.take());
        speed.sample();
        let start = Instant::now();
        let built = build(round)?;
        times.push(start.elapsed().as_secs_f64() / speed.current());
        kept = Some(built);
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// Runs `op` back to back until `budget` is spent and returns each op's time
/// in seconds at nominal speed: its wall time over the slowdown of the speed
/// sample taken at most `SPEED_PERIOD` before it. The machine's speed drifts
/// within a run, so a nearby sample tracks it better than the run's median.
/// `ok` checks every output, and the speed is sampled, outside the timed
/// spans.
fn timed_loop<T>(
    budget: Duration,
    speed: &mut Speed,
    mut op: impl FnMut() -> T,
    mut ok: impl FnMut(&T) -> bool,
    tally: &mut Tally,
    what: &str,
) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while start.elapsed() < budget {
        speed.sample_if_due();
        let began = Instant::now();
        let output = op();
        samples.push(began.elapsed().as_secs_f64() / speed.current());
        tally.check(ok(&output), what);
    }
    samples
}

/// What one workload measured, at nominal machine speed.
struct Timings {
    /// Work per second, and the summary's name and unit for it.
    throughput: (f64, &'static str, &'static str),
    /// Op times in seconds and the summary's op name.
    ops: (Vec<f64>, &'static str),
    /// The tail latency in seconds, and how it was taken.
    tail: (f64, String),
    setup_s: f64,
}

/// The p90 of op times: sweep and replay runs hold a few hundred ops.
fn p90(samples: &[f64]) -> (f64, String) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let value = percentile(&sorted, 0.9);
    let beyond = sorted.iter().filter(|&&s| s > value).count();
    (value, format!("p90 of {} ops, {beyond} beyond it", sorted.len()))
}

/// Reports `throughput_per_s`, `latency_p50_ms`, `latency_tail_ms` and
/// `setup_s`, and the same values under the workload's own names with their
/// sample counts in the summary.
fn report_timings(report: &mut Report, speed: &Speed, timings: Timings) {
    let Timings { throughput: (per_s, name, unit), ops: (samples, op), tail: (tail, how), setup_s } =
        timings;
    let p50 = median(&samples) * 1e3;
    let pt = tail * 1e3;
    report.metric("throughput_per_s", per_s, "1/s");
    report.metric("latency_p50_ms", p50, "ms");
    report.metric("latency_tail_ms", pt, "ms");
    report.metric("setup_s", setup_s, "s");
    report.notes.push(format!(
        "machine slowdown = {:.4} (median of {} speed-kernel samples over its nominal {} ms); \
         every timing below is at nominal speed",
        speed.slowdown(),
        speed.kernel_s.len(),
        speed.nominal_s * 1e3
    ));
    report.notes.push(format!("{name} = {per_s:.1} {unit} (throughput_per_s)"));
    let n = samples.len();
    report.notes.push(format!("{op}_p50_ms = {p50:.4} ms (latency_p50_ms; {n} samples)"));
    report.notes.push(format!("{op} tail = {pt:.4} ms (latency_tail_ms; {how})"));
    report.notes.push(format!("setup_s = {setup_s:.4} s (median of {SETUP_REPEATS} set-ups)"));
}

// ---------------------------------------------------------------------------
// sweep-live
// ---------------------------------------------------------------------------

/// One sweep grid cell with the artifacts it shares with its distance.
pub struct SweepCell {
    pub spec: ExperimentSpec,
    pub factory: Arc<PolicyFactory>,
    pub decoder: Arc<dyn DecoderBackend>,
}

/// The paper's head-to-head at the operating point: surface d ∈ {5, 7},
/// rounds = 6·d, p = 1e-3, lr = 0.1, GLADIATOR+M vs ERASER+M, uf decoding.
fn sweep_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        code: CodeFamily::Surface,
        distances: vec![5, 7],
        error_rates: vec![1e-3],
        leakage_ratios: vec![0.1],
        policies: vec![PolicyKind::GladiatorM, PolicyKind::EraserM],
        shots: SWEEP_SHOTS,
        rounds_per_distance: 6,
        seed: mix(seed, 1),
        decode: true,
        decoders: None,
        adaptive: None,
    }
}

/// Expands the grid and builds, once per distance, the code, the calibrated
/// policy factory (offline GLADIATOR model included) and the uf decoder.
pub fn build_sweep(seed: u64) -> Result<Vec<SweepCell>, String> {
    let mut shared: Vec<(usize, Arc<PolicyFactory>, Arc<dyn DecoderBackend>)> = Vec::new();
    let mut cells = Vec::new();
    for scenario in sweep_spec(seed).expand()? {
        let spec = scenario.to_spec();
        if !shared.iter().any(|(d, ..)| *d == scenario.distance) {
            let code = scenario.build_code();
            let factory = Arc::new(PolicyFactory::new(&code, &spec.gladiator));
            let decoder = build_backend(None, &code, spec.rounds)?;
            shared.push((scenario.distance, factory, decoder));
        }
        let (_, factory, decoder) =
            shared.iter().find(|(d, ..)| *d == scenario.distance).expect("built above");
        drop(factory.build(spec.policy));
        cells.push(SweepCell { spec, factory: Arc::clone(factory), decoder: Arc::clone(decoder) });
    }
    Ok(cells)
}

/// One timed op: every grid cell through `BatchEngine::with_shared(..).run()`.
pub fn sweep_pass(cells: &[SweepCell]) -> Vec<AggregateMetrics> {
    cells
        .iter()
        .map(|cell| {
            let decoder = Some(Arc::clone(&cell.decoder));
            BatchEngine::with_shared(&cell.spec, Arc::clone(&cell.factory), decoder).run().metrics
        })
        .collect()
}

fn sweep_live(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut speed = Speed::compute();
    let ((cells, reference), setup_s) = repeated_setup(&mut speed, |_| {
        let cells = build_sweep(args.seed)?;
        let reference = sweep_pass(&cells);
        Ok((cells, reference))
    })?;
    let samples = timed_loop(
        args.seconds,
        &mut speed,
        || sweep_pass(&cells),
        |metrics| *metrics == reference,
        &mut report.tally,
        "a sweep pass repeats the first pass bit for bit",
    );
    // The externally re-driven pipeline (the traced run's code path) must
    // reproduce BatchEngine::run bit for bit.
    let redriven = layers::sweep_redrive(&cells, &layers::SweepSpans::default());
    for (cell, (live, outside)) in cells.iter().zip(reference.iter().zip(&redriven)) {
        let what = format!(
            "re-driven d={} {} equals BatchEngine::run",
            cell.factory.code().distance(),
            cell.spec.policy
        );
        report.tally.check(live == outside, &what);
    }
    let shots_per_pass: usize = cells.iter().map(|cell| cell.spec.shots).sum();
    report.notes.push(format!(
        "sweep-live op: one pass over {} cells x {SWEEP_SHOTS} shots; throughput is shots per \
         pass over the median pass time",
        cells.len()
    ));
    let shots_per_s = shots_per_pass as f64 / median(&samples);
    report_timings(
        report,
        &speed,
        Timings {
            throughput: (shots_per_s, "sweep_shots_per_s", "shots/s"),
            tail: p90(&samples),
            ops: (samples, "sweep_pass"),
            setup_s,
        },
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// replay-closed
// ---------------------------------------------------------------------------

/// The recorded corpus: surface d=5, 30 rounds, recorded under GLADIATOR+M,
/// at p = 1e-3 and p = 3e-4. `record_into_corpus` seeds a leak in every
/// shot, so both cells diverge under most candidates; the summary prints
/// the split.
pub fn replay_scenarios(seed: u64) -> [Scenario; 2] {
    let cell = |p: f64, salt: u64| Scenario {
        code: CodeFamily::Surface,
        distance: 5,
        rounds: 30,
        p,
        leakage_ratio: 0.1,
        policy: PolicyKind::GladiatorM,
        shots: REPLAY_SHOTS,
        seed: mix(seed, salt),
        decode: false,
        decoder: None,
    };
    [cell(1e-3, 2), cell(3e-4, 3)]
}

/// Records `scenarios` under their own policy into a corpus at `dir`.
pub fn record_corpus(dir: &Path, scenarios: &[Scenario]) -> Result<(), String> {
    let mut corpus = Corpus::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for scenario in scenarios {
        record_into_corpus(&mut corpus, scenario, scenario.policy, "perfbench")?;
    }
    corpus.save().map_err(|e| format!("{}: {e}", dir.display()))
}

/// Closed-loop replay of every candidate with decoding on — every other
/// option at its default.
pub fn replay_options() -> ReplayOptions {
    ReplayOptions {
        policies: CANDIDATES.to_vec(),
        decode: true,
        mode: ReplayMode::ClosedLoop,
        ..Default::default()
    }
}

fn replay_closed(args: &Args, work: &WorkDir, report: &mut Report) -> Result<(), String> {
    let scenarios = replay_scenarios(args.seed);
    let options = replay_options();
    let mut speed = Speed::compute();
    let ((dir, reference), setup_s) = repeated_setup(&mut speed, |round| {
        let dir = work.path().join(format!("replay-{round}"));
        record_corpus(&dir, &scenarios)?;
        let (reference, _) = replay_corpus_with_stats(&dir, &options)?;
        Ok((dir, reference))
    })?;
    let samples = timed_loop(
        args.seconds,
        &mut speed,
        || replay_corpus_with_stats(&dir, &options),
        |outcome| matches!(outcome, Ok((got, _)) if *got == reference),
        &mut report.tally,
        "a replay report repeats the first report",
    );
    for (index, scenario) in scenarios.iter().enumerate() {
        let key = cell_key(scenario);
        let rows: Vec<_> = reference.results.iter().filter(|row| row.key == key).collect();
        let split: Vec<String> = rows
            .iter()
            .map(|row| {
                let suffix = row.divergence_profile.as_ref().map_or(0, |p| p.resimulated_rounds);
                format!("{}={} ({suffix} suffix rounds)", row.policy, row.divergent_shots)
            })
            .collect();
        report.notes.push(format!(
            "replay cell `{key}`: divergent shots of {} per candidate: {}",
            scenario.shots,
            split.join(", ")
        ));
        // One pairing per cell, chosen by the seed, against a live run.
        let candidate = CANDIDATES[(mix(args.seed, 10 + index as u64) % 4) as usize];
        let live_spec = Scenario { policy: candidate, decode: true, ..*scenario }.to_spec();
        let live = BatchEngine::new(&scenario.build_code(), &live_spec).run().metrics;
        let row = rows.iter().find(|row| row.policy == candidate.label());
        let what = format!("closed-loop {candidate} on `{key}` equals a live BatchEngine run");
        report.tally.check(row.is_some_and(|row| row.metrics == live), &what);
    }
    let evals_per_op: usize = reference.results.iter().map(|row| row.shots).sum();
    report.notes.push(format!(
        "replay-closed op: one corpus replay of {evals_per_op} shot x candidate evaluations; \
         throughput is evaluations per replay over the median replay time"
    ));
    let evals_per_s = evals_per_op as f64 / median(&samples);
    report_timings(
        report,
        &speed,
        Timings {
            throughput: (evals_per_s, "replay_evals_per_s", "evals/s"),
            tail: p90(&samples),
            ops: (samples, "replay_corpus"),
            setup_s,
        },
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// serve-batch / route-batch
// ---------------------------------------------------------------------------

/// One seeded `batch-eval` request.
pub struct Batch {
    pub evals: Vec<EvalSpec>,
    pub line: String,
}

/// Daemons run on in-process threads; dropping this shuts them down newest
/// first (the router before the replicas it calls) and joins them.
struct Daemons(Vec<(SocketAddr, JoinHandle<()>)>);

impl Daemons {
    fn spawn(&mut self, addr: SocketAddr, run: impl FnOnce() + Send + 'static) {
        self.0.push((addr, std::thread::spawn(run)));
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        while let Some((addr, handle)) = self.0.pop() {
            let config = ClientConfig::with_timeout(Duration::from_secs(10));
            let stopped = Client::connect_with(addr, config)
                .and_then(|mut client| client.request(RequestKind::Shutdown))
                .is_ok_and(|answer| matches!(answer, ResponseKind::ShuttingDown));
            if stopped {
                let _ = handle.join();
            } else {
                eprintln!("perfbench: daemon at {addr} did not acknowledge shutdown");
            }
        }
    }
}

/// The serving set-up shared by `serve-batch` and `route-batch`: a small
/// corpus of d=3, 9-round cells, sharded 2 ways, one monolithic daemon over
/// the whole corpus, two replica daemons and a router over the shard, every
/// cache warmed by the seeded batch stream.
pub struct ServeSetup {
    pub corpus_dir: PathBuf,
    pub batches: Vec<Batch>,
    pub mono: SocketAddr,
    pub router: SocketAddr,
    /// Monolithic response bytes per batch, once every cache is warm.
    pub warm_mono: Vec<String>,
    /// Routed response bytes per batch, once every cache is warm.
    pub warm_routed: Vec<String>,
    _daemons: Daemons,
}

/// Cells for the serving corpus: one per rate in `SERVE_RATES` owned by each
/// replica under the shard map's assignment rule, so every seed serves the
/// same mix of rates.
pub fn serve_scenarios(seed: u64) -> Result<Vec<Scenario>, String> {
    let mut owned = [[false; SERVE_RATES.len()]; SERVE_REPLICAS];
    let mut scenarios = Vec::new();
    for k in 0..10_000u64 {
        let rate = (k % SERVE_RATES.len() as u64) as usize;
        let scenario = Scenario {
            code: CodeFamily::Surface,
            distance: 3,
            rounds: 9,
            p: SERVE_RATES[rate],
            leakage_ratio: 0.1,
            policy: PolicyKind::GladiatorM,
            shots: SERVE_SHOTS,
            seed: mix(seed, 1000 + k),
            decode: false,
            decoder: None,
        };
        let owner = ClusterMap::assign(Corpus::cell_hash(&cell_key(&scenario)), SERVE_REPLICAS);
        if !owned[owner][rate] {
            owned[owner][rate] = true;
            scenarios.push(scenario);
        }
        if owned.iter().flatten().all(|&taken| taken) {
            return Ok(scenarios);
        }
    }
    Err("no cell assignment fills both replicas".to_string())
}

/// Seeded 4-item per-item batches. Each spans both replicas, mixes
/// open-loop and closed-loop members, and decodes with both uf and lookup.
fn make_batches(seed: u64, scenarios: &[Scenario]) -> Vec<Batch> {
    let keys: Vec<(String, usize)> = scenarios
        .iter()
        .map(|scenario| {
            let key = cell_key(scenario);
            let owner = ClusterMap::assign(Corpus::cell_hash(&key), SERVE_REPLICAS);
            (key, owner)
        })
        .collect();
    let owned_by = |owner: usize| -> Vec<&String> {
        keys.iter().filter(|(_, o)| *o == owner).map(|(key, _)| key).collect()
    };
    let by_owner = [owned_by(0), owned_by(1)];
    (0..SERVE_BATCHES)
        .map(|b| {
            let mut draws = Draws(mix(seed, 2000 + b as u64));
            let mut evals: Vec<EvalSpec> = (0..BATCH_ITEMS)
                .map(|item| {
                    let (key, closed, decoder) = match item {
                        0 | 1 => {
                            let own = &by_owner[item];
                            (own[draws.below(own.len())].clone(), item == 1, ["uf", "lookup"][item])
                        }
                        _ => (
                            keys[draws.below(keys.len())].0.clone(),
                            draws.below(2) == 1,
                            ["uf", "lookup"][draws.below(2)],
                        ),
                    };
                    EvalSpec {
                        key,
                        policy: CANDIDATES[draws.below(CANDIDATES.len())].label().to_string(),
                        mode: Some(if closed { "closed-loop" } else { "open-loop" }.to_string()),
                        decode: Some(true),
                        decoder: Some(decoder.to_string()),
                    }
                })
                .collect();
            for i in (1..evals.len()).rev() {
                evals.swap(i, draws.below(i + 1));
            }
            let request = RequestKind::BatchEval { evals: evals.clone(), per_item: Some(true) };
            let line = request_line(&Request { id: Some(b as u64), request });
            Batch { evals, line }
        })
        .collect()
}

/// Sends every batch twice on one connection and keeps the second answers,
/// which every cache already serves.
fn warm_up(addr: SocketAddr, batches: &[Batch]) -> Result<Vec<String>, String> {
    let mut client = Client::connect(addr)?;
    batches
        .iter()
        .map(|batch| {
            client.send_raw(&batch.line)?;
            client.send_raw(&batch.line)
        })
        .collect()
}

impl ServeSetup {
    pub fn build(seed: u64, dir: &Path) -> Result<ServeSetup, String> {
        let scenarios = serve_scenarios(seed)?;
        let corpus_dir = dir.join("corpus");
        record_corpus(&corpus_dir, &scenarios)?;
        let sharded = dir.join("sharded");
        let map = shard_corpus(&corpus_dir, &sharded, SERVE_REPLICAS, &ShardOptions::default())?;
        let config = ServeConfig { pool_threads: POOL_THREADS, ..ServeConfig::default() };
        let mut daemons = Daemons(Vec::new());
        let mut overrides = Vec::new();
        for replica in &map.replicas {
            let server = Server::bind(&sharded.join(&replica.dir), &config)?;
            overrides.push((replica.index, server.local_addr().to_string()));
            daemons.spawn(server.local_addr(), move || server.run());
        }
        let server = Server::bind(&corpus_dir, &config)?;
        let mono = server.local_addr();
        daemons.spawn(mono, move || server.run());
        let router =
            Router::bind(&sharded.join(CLUSTER_FILE), &overrides, &RouterConfig::default())?;
        let router_addr = router.local_addr();
        daemons.spawn(router_addr, move || router.run());
        let batches = make_batches(seed, &scenarios);
        let warm_mono = warm_up(mono, &batches)?;
        let warm_routed = warm_up(router_addr, &batches)?;
        Ok(ServeSetup {
            corpus_dir,
            batches,
            mono,
            router: router_addr,
            warm_mono,
            warm_routed,
            _daemons: daemons,
        })
    }

    /// Served rows equal `evaluation_row` of a direct evaluation of each
    /// member, and routed bytes equal monolithic bytes.
    pub fn verify(&self, tally: &mut Tally) -> Result<(), String> {
        let evaluator = layers::ServeEval::open(&self.corpus_dir)?;
        for (index, batch) in self.batches.iter().enumerate() {
            let expected = evaluator.solo_rows(&batch.evals)?;
            let served = match parse_response(&self.warm_mono[index]).map(|r| r.response) {
                Ok(ResponseKind::BatchItems(items)) => items
                    .into_iter()
                    .map(|item| item.into_result().map(|result| result.result).ok())
                    .collect::<Option<Vec<_>>>(),
                _ => None,
            };
            tally.check(
                served.is_some_and(|rows| rows == expected),
                &format!("served rows of batch {index} equal a direct evaluation"),
            );
            tally.check(
                self.warm_routed[index] == self.warm_mono[index],
                &format!("routed bytes of batch {index} equal monolithic bytes"),
            );
        }
        Ok(())
    }
}

/// When a client stream stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Ops(usize),
}

/// The outcome of a closed-loop client stream.
pub struct Stream {
    /// Round-trip times in seconds of the answers that matched.
    pub latencies: Vec<f64>,
    pub elapsed: f64,
    pub ok: u64,
    pub failed: u64,
}

/// `CLIENTS` connections to `target`, each sending its next seeded batch only
/// after the previous answer arrived, every answer compared with `expected`.
pub fn stream(
    batches: &[Batch],
    target: SocketAddr,
    expected: &[String],
    stop: Stop,
    seed: u64,
) -> Result<Stream, String> {
    let start = Instant::now();
    let outcomes: Vec<Result<(Vec<f64>, u64), String>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(target)?;
                    let mut draws = Draws(mix(seed, 3000 + c));
                    let (mut latencies, mut failed) = (Vec::new(), 0u64);
                    loop {
                        let done = latencies.len() + failed as usize;
                        match stop {
                            Stop::After(budget) if start.elapsed() >= budget => break,
                            Stop::Ops(ops) if done >= ops => break,
                            _ => {}
                        }
                        let index = draws.below(batches.len());
                        let began = Instant::now();
                        let answer = client.send_raw(&batches[index].line);
                        let took = began.elapsed().as_secs_f64();
                        match answer {
                            Ok(line) if line == expected[index] => latencies.push(took),
                            Ok(line) => {
                                failed += 1;
                                let head: String = line.chars().take(200).collect();
                                eprintln!("perfbench: batch {index} answered unexpectedly: {head}");
                            }
                            Err(message) => {
                                eprintln!("perfbench: client {c}: {message}");
                                return Ok((latencies, failed + 1));
                            }
                        }
                    }
                    Ok((latencies, failed))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().unwrap_or_else(|_| Err("client panicked".to_string())))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut all = Stream { latencies: Vec::new(), elapsed, ok: 0, failed: 0 };
    for outcome in outcomes {
        let (latencies, failed) = outcome?;
        all.ok += latencies.len() as u64;
        all.failed += failed;
        all.latencies.extend(latencies);
    }
    Ok(all)
}

/// A daemon's or router's `stats` counters.
pub fn server_stats(addr: SocketAddr) -> Result<ServerStats, String> {
    match Client::connect(addr)?.request(RequestKind::Stats)? {
        ResponseKind::Stats(stats) => Ok(stats),
        other => Err(format!("unexpected stats answer: {other:?}")),
    }
}

fn serve_batch(args: &Args, work: &WorkDir, report: &mut Report) -> Result<(), String> {
    let routed = args.workload == Workload::RouteBatch;
    let mut speed = Speed::round_trips();
    let (setup, setup_s) = repeated_setup(&mut speed, |round| {
        ServeSetup::build(args.seed, &work.path().join(format!("serve-{round}")))
    })?;
    setup.verify(&mut report.tally)?;
    let target = if routed { setup.router } else { setup.mono };
    // Routed answers must be the monolithic daemon's bytes. The stream runs
    // in segments, with the machine's speed sampled between them.
    let mut run = Stream { latencies: Vec::new(), elapsed: 0.0, ok: 0, failed: 0 };
    let mut segment_p90s = Vec::new();
    let start = Instant::now();
    for segment in 0.. {
        let left = args.seconds.saturating_sub(start.elapsed());
        if left.is_zero() {
            break;
        }
        speed.sample();
        let stop = Stop::After(left.min(SERVE_SEGMENT));
        let part = stream(&setup.batches, target, &setup.warm_mono, stop, mix(args.seed, segment))?;
        if !part.latencies.is_empty() {
            let mut sorted = part.latencies.clone();
            sorted.sort_by(f64::total_cmp);
            segment_p90s.push(percentile(&sorted, 0.9));
        }
        run.latencies.extend(part.latencies);
        run.elapsed += part.elapsed;
        run.ok += part.ok;
        run.failed += part.failed;
    }
    report.tally.attempted += run.ok + run.failed;
    report.tally.failed += run.failed;
    if run.ok == 0 {
        return Err("no batch was answered".to_string());
    }
    let (name, op) = if routed {
        ("routed_batches_per_s", "routed_batch")
    } else {
        ("served_batches_per_s", "served_batch")
    };
    report.notes.push(format!(
        "{} op: one per-item batch-eval of {BATCH_ITEMS} members; {} batches answered over \
         {CLIENTS} closed-loop connections",
        args.workload.label(),
        run.ok
    ));
    // The stream is scaled to nominal speed by the run's median slowdown: one
    // echo sample is noisier than the 1 s segment after it. A burst of host
    // load moves a whole-run percentile; the median over segments of their
    // p90 rides it out. The p99 is printed beside it.
    let slowdown = speed.slowdown();
    let latencies: Vec<f64> = run.latencies.iter().map(|took| took / slowdown).collect();
    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let p99 = percentile(&sorted, 0.99);
    let beyond = sorted.iter().filter(|&&s| s > p99).count();
    report.notes.push(format!(
        "{op}_p99_ms = {:.4} ms (p99 of {} batches, {beyond} beyond it)",
        p99 * 1e3,
        sorted.len()
    ));
    let tail = (
        median(&segment_p90s) / slowdown,
        format!("median p90 of {} segments of {SERVE_SEGMENT:?}", segment_p90s.len()),
    );
    report_timings(
        report,
        &speed,
        Timings {
            throughput: (run.ok as f64 / run.elapsed * slowdown, name, "batches/s"),
            ops: (latencies, op),
            tail,
            setup_s,
        },
    );
    Ok(())
}
