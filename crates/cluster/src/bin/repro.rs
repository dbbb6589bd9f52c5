//! `repro` — regenerate the paper's experiments, run declarative sweeps,
//! manage record-once/replay-many trace corpora, and serve them hot.
//!
//! ```text
//! repro run      [--scale smoke|quick|paper] [--out DIR] [EXPERIMENT ...]
//! repro sweep    [--spec FILE | --grid KEY=V,V ...] [options] [--out FILE]
//!                [--corpus DIR [--record-policy LABEL] [--closed-loop]]
//!                [--adaptive --target-ci R --checkpoint DIR | --resume DIR]
//! repro record   [--spec FILE | --grid KEY=V,V ...] [options] --corpus DIR
//! repro replay   --corpus DIR [--policy L1,L2] [--decode] [--closed-loop]
//!                [--verify-live]
//! repro corpus   DIR [--verify]
//! repro corpus shard SRC --out DIR --replicas N [--replica-addr HOST:PORT ...]
//! repro serve    --corpus DIR [--addr HOST:PORT] [--cache-cells N]
//!                [--max-connections N] [--queue-limit N]
//! repro route    --cluster FILE [--addr HOST:PORT] [--replica-addr I=HOST:PORT ...]
//!                [--timeout-ms N] [--retries N] [--max-connections N]
//! repro query    --addr HOST:PORT ACTION [--key KEY] [--policy L1,L2]
//!                [--closed-loop] [--decode] [--timeout-ms N] [--retries N]
//! repro list
//! repro version | repro --version
//! ```
//!
//! Argument parsing is strict: unknown subcommands, flags or experiment names
//! print usage to stderr and exit with status 2. `replay --verify-live` and
//! `corpus --verify` exit 1 on a mismatch/corruption; `query` exits 1 on an
//! error response. Everything else exits 0.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use leakage_speculation::PolicyKind;
use qec_cluster::{shard_corpus, Router, RouterConfig, ShardOptions};
use qec_decoder::DecoderKind;
use qec_experiments::adaptive::{
    resume_adaptive, run_adaptive, AdaptiveOutcome, AdaptiveSpec, ADAPTIVE_SCHEMA_VERSION,
};
use qec_experiments::replay::{
    cell_key, extend_into_corpus, load_entry, record_into_corpus, replay_corpus_with_stats,
    CellCheckpointStats, ExtendDisposition, ReplayMode, ReplayOptions, ReplayReport,
    REPLAY_SCHEMA_VERSION,
};
use qec_experiments::report::{fmt_float, text_table, to_json};
use qec_experiments::runners::{self, Scale};
use qec_experiments::scenario::CodeFamily;
use qec_experiments::sweep::{
    git_describe, run_sweep, run_sweep_with_corpus, SweepReport, SweepSpec, SWEEP_SCHEMA_VERSION,
};
use qec_serve::client::ClientConfig;
use qec_serve::{
    parse_response, request_line, Client, ErrorCode, EvalSpec, Request, RequestKind, Response,
    ResponseKind, ServeConfig, Server, PROTOCOL_VERSION,
};
use qec_trace::Corpus;

const EXPERIMENTS: &[&str] = &[
    "fig1", "fig3", "fig4b", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "table2", "table3", "table4", "table5", "table6",
];

const USAGE: &str = "\
usage: repro <COMMAND> [OPTIONS]

commands:
  run       rerun paper experiments: repro run [--scale smoke|quick|paper]
            [--out DIR] [EXPERIMENT ...]   (no names = all experiments)
  sweep     run a declarative scenario grid and write one JSON report:
            repro sweep [--spec FILE.json | --grid KEY=V[,V...] ...]
            [--scale smoke|quick|paper] [--shots N] [--rounds-per-distance N]
            [--seed N] [--no-decode] [--decoder uf,lookup] [--no-timing]
            [--out FILE] [--corpus DIR [--record-policy LABEL] [--closed-loop]]
            [--adaptive --target-ci R --checkpoint DIR [--confidence C]
            [--initial-batch N] [--max-shots N] [--stop-after-rounds N]]
            or resume a checkpointed adaptive sweep:
            repro sweep --resume DIR [--stop-after-rounds N] [--out FILE]
            [--corpus DIR [--record-policy LABEL]]
            grid keys: d=3,5,7  p=1e-3,2e-3  lr=0.1  policy=eraser+m,...
            code=surface|color|hgp|bpc  decoder=uf,lookup
            a decoder axis replays every cell once per listed backend and
            labels each report row with its decoder (lookup is exact at d=3
            only; an unsupported pairing is a usage error)
            with --corpus, each policy-free cell is simulated once (recorded
            into DIR as a .qtr trace) and every grid policy is replayed;
            --closed-loop re-simulates each shot from its first schedule
            divergence, making every cell an exact counterfactual; each cell's
            policy group shares one forced prefix pass per divergent shot
            --adaptive allocates shots per cell in deterministic rounds until
            the Wilson interval on the cell's failure rate reaches --target-ci
            relative half-width at --confidence (default 0.95), or the cell
            hits the shot ceiling (--max-shots overrides the spec's shots);
            batches start at --initial-batch (default 64) and double per
            round; the tally is checkpointed to --checkpoint DIR at every
            round boundary (kill -9 safe), --stop-after-rounds N pauses there
            (exit 0), and --resume continues a checkpointed run — the final
            report is byte-identical to the uninterrupted run's wherever it
            was stopped; with --corpus each finished cell is recorded into
            DIR under --record-policy (default: the spec's first policy),
            appending only the new shots when a shorter recording of the
            cell already exists (see docs/ADAPTIVE.md)
  record    record the grid's policy-free cells into a trace corpus:
            repro record [--spec FILE.json | --grid ...] [--scale ...]
            [--shots N] [--rounds-per-distance N] [--seed N]
            [--record-policy LABEL] --corpus DIR
  replay    replay policies against a recorded corpus without re-simulating:
            repro replay --corpus DIR [--policy L1,L2,...] [--decode]
            [--decoder uf,lookup] [--closed-loop] [--verify-live] [--out FILE]
            --decoder replays each cell once per listed backend (implies
            --decode) and adds a decoder column to the summary and a
            `decoder` field to each report row
            --closed-loop repairs divergences by re-simulating from the first
            divergent round (exact counterfactual metrics + divergence
            profiles); the policy set shares one forced prefix pass per
            divergent shot (the summary's resim column shows the cell's forced
            passes `Nf` and served suffixes `Ns`); with --verify-live every
            policy is checked bit-for-bit against a fresh live simulation
            (exit 1 on any mismatch)
  corpus    inspect a corpus manifest: repro corpus DIR [--verify]
            (--verify re-reads every trace, checking CRCs and code identity)
            or shard one for cluster serving:
            repro corpus shard SRC --out DIR --replicas N
            [--replica-addr HOST:PORT ...]
            partitions SRC by the policy-free cell hash into N sub-corpora
            (DIR/replica-<i>, each servable by an unmodified `repro serve`)
            plus a DIR/cluster.json shard map recording the assignment and
            optional replica addresses (one --replica-addr per replica, in
            index order; see docs/CLUSTER.md)
  serve     run the speculation-evaluation daemon over a recorded corpus:
            repro serve --corpus DIR [--addr HOST:PORT] [--cache-cells N]
            [--max-connections N] [--queue-limit N]
            binds --addr (default 127.0.0.1:0 = ephemeral; the bound address
            is printed on startup), holds an LRU cache of N cells (default 8)
            hot in memory, and answers the newline-delimited JSON protocol of
            docs/SERVE_PROTOCOL.md until a shutdown request arrives; at most
            --max-connections clients (default 32) are served concurrently
            (extras get one `overloaded` error line) and at most --queue-limit
            evaluations (default 256, batches weigh their length) are admitted
            at once — over-limit requests are shed with `overloaded` instead
            of stalling the daemon; edits to the corpus manifest.json are
            picked up on the next request without dropping connections
  route     run the cluster router over replica daemons:
            repro route --cluster FILE [--addr HOST:PORT]
            [--replica-addr INDEX=HOST:PORT ...] [--timeout-ms N]
            [--retries N] [--max-connections N]
            speaks the daemon's exact protocol on --addr (default 127.0.0.1:0;
            the bound address is printed on startup), resolving each cell
            request to its owning replica from the FILE shard map and fanning
            split batches out concurrently; responses are byte-identical to a
            monolithic daemon serving the unsharded corpus; every replica call
            is bounded by --timeout-ms (default 5000, 0 = no deadline) with
            --retries reconnect attempts (default 1), after which that replica's
            answers are typed `unavailable` errors — never a hang, never a torn
            batch; --replica-addr overrides the shard map's recorded addresses
  query     send one request to a running daemon and print the raw response:
            repro query --addr HOST:PORT ACTION [flags]
            actions: ping | version | stats | cells | shutdown
                     stat --key KEY | verify --key KEY
                     eval --key KEY --policy LABEL [--closed-loop] [--decode]
                          [--decoder uf|lookup]
                     batch-eval [--key KEY ...] --policy L1,L2,...
                                [--closed-loop] [--decode] [--decoder uf|lookup]
            --decoder selects the serving backend (implies --decode; the
            daemon answers a typed bad-request for a backend that cannot
            serve the cell)
            batch-eval with no --key pairs every corpus cell with every
            policy and asks for per-item results: each pairing succeeds or
            fails on its own (exit 1 when any item failed); stdout carries
            the server's response line verbatim; --timeout-ms N bounds the
            connect and every read/write (default 10000, 0 = block forever);
            --retries N (default 0) re-sends a request the server shed with
            a typed `overloaded` error, after a short growing backoff
  list      print known experiments, policies and code families
  version   print version, git provenance and schema versions (also --version)

exit status: 0 ok; 1 gate failure (replay --verify-live, corpus --verify);
2 usage error
";

/// A usage error: the message is printed to stderr followed by the usage text.
struct UsageError(String);

impl UsageError {
    fn new(message: impl Into<String>) -> Self {
        UsageError(message.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None => Err(UsageError::new("missing command")),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("--version" | "-V" | "version") => cmd_version(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some(other) => Err(UsageError::new(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(code) => code,
        Err(UsageError(message)) => {
            // Tolerate a closed stderr so the exit code survives `2>&1 | head`.
            use std::io::Write as _;
            let _ = writeln!(std::io::stderr(), "repro: {message}");
            let _ = write!(std::io::stderr(), "{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Borrowing cursor over the argument list with one token of lookahead.
struct Args<'a> {
    items: &'a [String],
    pos: usize,
}

impl<'a> Args<'a> {
    fn new(items: &'a [String]) -> Self {
        Args { items, pos: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let arg = self.items.get(self.pos)?;
        self.pos += 1;
        Some(arg)
    }

    fn peek(&self) -> Option<&'a str> {
        self.items.get(self.pos).map(String::as_str)
    }

    /// Pulls the value of a `--flag VALUE` pair. A following flag token does
    /// not count as a value, so `--out --no-timing` is a usage error rather
    /// than a file named `--no-timing`.
    fn value(&mut self, flag: &str) -> Result<&'a str, UsageError> {
        match self.peek() {
            Some(value) if !value.starts_with("--") => {
                self.pos += 1;
                Ok(value)
            }
            _ => Err(UsageError::new(format!("{flag} requires a value"))),
        }
    }
}

fn parse_scale(value: &str) -> Result<Scale, UsageError> {
    match value {
        "smoke" => Ok(Scale::smoke()),
        "quick" => Ok(Scale::quick()),
        "paper" => Ok(Scale::paper()),
        other => Err(UsageError::new(format!("unknown scale `{other}` (smoke|quick|paper)"))),
    }
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, UsageError> {
    value.parse().map_err(|_| UsageError::new(format!("{flag}: invalid value `{value}`")))
}

// ---------------------------------------------------------------------------------
// repro run
// ---------------------------------------------------------------------------------

fn cmd_run(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut scale = Scale::quick();
    let mut out_dir = PathBuf::from("repro-results");
    let mut selected: Vec<String> = Vec::new();
    let mut iter = Args::new(args);
    while let Some(arg) = iter.next() {
        match arg {
            "--scale" => scale = parse_scale(iter.value("--scale")?)?,
            "--out" => out_dir = PathBuf::from(iter.value("--out")?),
            flag if flag.starts_with('-') => {
                return Err(UsageError::new(format!("unknown flag `{flag}` for `run`")));
            }
            name => selected.push(name.to_string()),
        }
    }
    if let Some(unknown) = selected.iter().find(|n| !EXPERIMENTS.contains(&n.as_str())) {
        return Err(UsageError::new(format!(
            "unknown experiment `{unknown}`; known: {}",
            EXPERIMENTS.join(", ")
        )));
    }
    if selected.is_empty() {
        selected = EXPERIMENTS.iter().map(|s| (*s).to_string()).collect();
    }
    fs::create_dir_all(&out_dir).expect("create output directory");
    for name in &selected {
        println!("=== {name} ===");
        let payload = run_one(name, &scale).expect("experiment names were validated above");
        let path = out_dir.join(format!("{name}.json"));
        fs::write(&path, payload).expect("write result file");
        println!("(saved {})\n", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------------
// repro sweep
// ---------------------------------------------------------------------------------

/// The spec-building flags shared by `sweep` and `record`: a grid (or spec
/// file) plus scalar overrides.
#[derive(Default)]
struct SpecFlags {
    scale: Option<Scale>,
    spec_file: Option<PathBuf>,
    grid: Vec<(String, String)>,
    shots: Option<usize>,
    rounds_per_distance: Option<usize>,
    seed: Option<u64>,
    no_decode: bool,
}

impl SpecFlags {
    /// Consumes `arg` when it is a spec flag, returning whether it was one.
    fn try_consume(&mut self, arg: &str, iter: &mut Args<'_>) -> Result<bool, UsageError> {
        match arg {
            "--spec" => self.spec_file = Some(PathBuf::from(iter.value("--spec")?)),
            "--grid" => {
                self.grid.push(split_grid_entry(iter.value("--grid")?)?);
                // Consume every following KEY=VALUES token.
                while iter.peek().is_some_and(|a| !a.starts_with("--") && a.contains('=')) {
                    let entry = iter.next().expect("peeked above");
                    self.grid.push(split_grid_entry(entry)?);
                }
            }
            "--scale" => self.scale = Some(parse_scale(iter.value("--scale")?)?),
            "--shots" => self.shots = Some(parse_number("--shots", iter.value("--shots")?)?),
            "--rounds-per-distance" => {
                let value = iter.value("--rounds-per-distance")?;
                self.rounds_per_distance = Some(parse_number("--rounds-per-distance", value)?);
            }
            "--seed" => self.seed = Some(parse_number("--seed", iter.value("--seed")?)?),
            "--no-decode" => self.no_decode = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Lowers the collected flags to a concrete [`SweepSpec`].
    fn build(self) -> Result<SweepSpec, UsageError> {
        let mut spec = match (&self.spec_file, self.grid.is_empty()) {
            (Some(_), false) => {
                return Err(UsageError::new("--spec and --grid are mutually exclusive"));
            }
            (Some(path), true) => {
                // A spec file is complete on its own; --scale only shapes the
                // grid-path defaults, so combining them would be silently ignored.
                if self.scale.is_some() {
                    return Err(UsageError::new("--scale applies only without --spec"));
                }
                let text = fs::read_to_string(path)
                    .map_err(|e| UsageError::new(format!("--spec {}: {e}", path.display())))?;
                serde_json::from_str::<SweepSpec>(&text)
                    .map_err(|e| UsageError::new(format!("--spec {}: {e}", path.display())))?
            }
            (None, _) => {
                let mut spec = SweepSpec::for_scale(&self.scale.unwrap_or_else(Scale::quick));
                apply_grid(&mut spec, &self.grid)?;
                spec
            }
        };
        // Scalar flags override whatever produced the spec (grid defaults or file).
        if let Some(shots) = self.shots {
            spec.shots = shots;
        }
        if let Some(k) = self.rounds_per_distance {
            spec.rounds_per_distance = k;
        }
        if let Some(seed) = self.seed {
            spec.seed = seed;
        }
        if self.no_decode {
            spec.decode = false;
        }
        Ok(spec)
    }
}

fn parse_decoder_label(label: &str) -> Result<DecoderKind, UsageError> {
    DecoderKind::from_label(label.trim()).ok_or_else(|| {
        UsageError::new(format!(
            "unknown decoder `{label}`; known: {}",
            DecoderKind::known_labels()
        ))
    })
}

fn parse_policy_label(label: &str) -> Result<PolicyKind, UsageError> {
    PolicyKind::from_label(label.trim()).ok_or_else(|| {
        UsageError::new(format!(
            "unknown policy `{label}`; known: {}",
            PolicyKind::ALL.map(PolicyKind::label).join(", ")
        ))
    })
}

fn cmd_sweep(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut flags = SpecFlags::default();
    let mut timing = true;
    let mut out: Option<PathBuf> = None;
    let mut corpus_dir: Option<PathBuf> = None;
    let mut record_policy: Option<PolicyKind> = None;
    let mut mode = ReplayMode::OpenLoop;
    let mut decoders: Vec<DecoderKind> = Vec::new();
    let mut adaptive = false;
    let mut target_ci: Option<f64> = None;
    let mut confidence = 0.95f64;
    let mut initial_batch = 64usize;
    let mut max_shots: Option<usize> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut stop_after_rounds: Option<u64> = None;
    let mut resume_dir: Option<PathBuf> = None;
    let mut spec_flags_used = false;
    let mut iter = Args::new(args);
    while let Some(arg) = iter.next() {
        if flags.try_consume(arg, &mut iter)? {
            spec_flags_used = true;
            continue;
        }
        match arg {
            "--no-timing" => timing = false,
            "--out" => out = Some(PathBuf::from(iter.value("--out")?)),
            "--corpus" => corpus_dir = Some(PathBuf::from(iter.value("--corpus")?)),
            "--record-policy" => {
                record_policy = Some(parse_policy_label(iter.value("--record-policy")?)?);
            }
            "--closed-loop" => mode = ReplayMode::ClosedLoop,
            "--decoder" => {
                for label in iter.value("--decoder")?.split(',') {
                    decoders.push(parse_decoder_label(label)?);
                }
            }
            "--adaptive" => adaptive = true,
            "--target-ci" => {
                target_ci = Some(parse_number("--target-ci", iter.value("--target-ci")?)?);
            }
            "--confidence" => {
                confidence = parse_number("--confidence", iter.value("--confidence")?)?;
            }
            "--initial-batch" => {
                initial_batch = parse_number("--initial-batch", iter.value("--initial-batch")?)?;
            }
            "--max-shots" => {
                max_shots = Some(parse_number("--max-shots", iter.value("--max-shots")?)?);
            }
            "--checkpoint" => checkpoint_dir = Some(PathBuf::from(iter.value("--checkpoint")?)),
            "--stop-after-rounds" => {
                stop_after_rounds =
                    Some(parse_number("--stop-after-rounds", iter.value("--stop-after-rounds")?)?);
            }
            "--resume" => resume_dir = Some(PathBuf::from(iter.value("--resume")?)),
            other => {
                return Err(UsageError::new(format!("unknown argument `{other}` for `sweep`")));
            }
        }
    }
    if record_policy.is_some() && corpus_dir.is_none() {
        return Err(UsageError::new("--record-policy requires --corpus"));
    }
    if let Some(dir) = resume_dir {
        // Resume takes its whole spec from the checkpoint: flags that would
        // redefine the run contradict the byte-identity contract.
        if spec_flags_used || adaptive || !decoders.is_empty() || mode == ReplayMode::ClosedLoop {
            return Err(UsageError::new(
                "--resume takes the spec from the checkpoint; it only accepts \
                 --stop-after-rounds, --out, --corpus and --record-policy",
            ));
        }
        if target_ci.is_some() || max_shots.is_some() || checkpoint_dir.is_some() {
            return Err(UsageError::new(
                "--resume reads --target-ci/--max-shots/--checkpoint from the checkpoint \
                 directory; do not pass them",
            ));
        }
        let outcome = resume_adaptive(&dir, stop_after_rounds).map_err(UsageError::new)?;
        return finish_adaptive(outcome, &dir, out, corpus_dir, record_policy);
    }
    if adaptive {
        if mode == ReplayMode::ClosedLoop {
            return Err(UsageError::new("--adaptive runs live; it cannot combine --closed-loop"));
        }
        let checkpoint = checkpoint_dir
            .ok_or_else(|| UsageError::new("--adaptive requires --checkpoint DIR"))?;
        let target = target_ci
            .ok_or_else(|| UsageError::new("--adaptive requires --target-ci R (e.g. 0.1)"))?;
        let mut spec = flags.build()?;
        if !decoders.is_empty() {
            spec.decoders = Some(decoders);
        }
        if let Some(ceiling) = max_shots {
            spec.shots = ceiling;
        }
        spec.adaptive =
            Some(AdaptiveSpec { target_rel_halfwidth: target, confidence, initial_batch });
        // Adaptive/decoder/family violations surface here as typed usage
        // errors (exit 2) rather than mid-sweep failures.
        spec.expand().map_err(UsageError::new)?;
        let outcome =
            run_adaptive(&spec, &checkpoint, stop_after_rounds).map_err(UsageError::new)?;
        return finish_adaptive(outcome, &checkpoint, out, corpus_dir, record_policy);
    }
    if target_ci.is_some()
        || max_shots.is_some()
        || checkpoint_dir.is_some()
        || stop_after_rounds.is_some()
    {
        return Err(UsageError::new(
            "--target-ci/--max-shots/--checkpoint/--stop-after-rounds require --adaptive",
        ));
    }
    if mode == ReplayMode::ClosedLoop && corpus_dir.is_none() {
        return Err(UsageError::new("--closed-loop requires --corpus"));
    }
    let mut spec = flags.build()?;
    if !decoders.is_empty() {
        spec.decoders = Some(decoders);
    }
    // Decoder/family mismatches surface here, at expansion time, as typed
    // usage errors (exit 2) rather than mid-sweep failures.
    spec.expand().map_err(UsageError::new)?;
    let report = match &corpus_dir {
        Some(dir) => run_sweep_with_corpus(&spec, dir, record_policy, timing, mode)
            .map_err(UsageError::new)?,
        None => run_sweep(&spec, timing).map_err(UsageError::new)?,
    };
    let json = to_json(&report);
    // Persist the artifact before any (interruptible) console output, so a
    // consumer that closes our stdout early still gets the report on disk.
    let out = out.unwrap_or_else(|| PathBuf::from("repro-results/sweep.json"));
    let to_stdout = out.as_os_str() == "-";
    if !to_stdout {
        if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent).expect("create output directory");
        }
        fs::write(&out, json.as_bytes()).expect("write sweep report");
    }
    if to_stdout {
        // Keep stdout machine-readable: the summary table goes to stderr so
        // `repro sweep --out - | jq .` sees nothing but the JSON report.
        eprint!("{}", sweep_summary(&report));
        emit(&json);
    } else {
        emit(&sweep_summary(&report));
        emit(&format!("(saved {} cells to {})", report.cells.len(), out.display()));
    }
    Ok(ExitCode::SUCCESS)
}

/// Lands an adaptive sweep outcome: `None` is a pause at a round boundary
/// (checkpointed, exit 0 with a resume hint); `Some` persists the report
/// exactly like the fixed-shot path, optionally records the finished cells
/// into a corpus (appending only new shots to cells already recorded), and
/// prints the allocation provenance that deliberately lives outside the
/// report bytes.
fn finish_adaptive(
    outcome: Option<AdaptiveOutcome>,
    checkpoint: &std::path::Path,
    out: Option<PathBuf>,
    corpus_dir: Option<PathBuf>,
    record_policy: Option<PolicyKind>,
) -> Result<ExitCode, UsageError> {
    let Some(outcome) = outcome else {
        emit(&format!(
            "adaptive sweep paused at a round boundary (state checkpointed); continue with \
             `repro sweep --resume {}`",
            checkpoint.display()
        ));
        return Ok(ExitCode::SUCCESS);
    };
    if let Some(dir) = &corpus_dir {
        let recording = record_policy
            .or_else(|| outcome.report.cells.first().map(|cell| cell.scenario.policy))
            .ok_or_else(|| UsageError::new("adaptive sweep expanded to no cells"))?;
        let mut corpus = Corpus::open(dir).map_err(|e| UsageError::new(e.to_string()))?;
        let generator = format!("repro sweep {}", env!("CARGO_PKG_VERSION"));
        // Ascending shot order maximizes append reuse: a cell's shorter
        // recording is grown before a longer allocation of the same cell
        // asks for it.
        let mut scenarios: Vec<_> = outcome.report.cells.iter().map(|c| c.scenario).collect();
        scenarios.sort_by_key(|s| s.shots);
        let mut seen: Vec<String> = Vec::new();
        let (mut recorded, mut extended, mut appended, mut cached) =
            (0usize, 0usize, 0usize, 0usize);
        for scenario in &scenarios {
            let key = cell_key(scenario);
            if seen.contains(&key) {
                continue; // several policies share one policy-free cell
            }
            seen.push(key);
            let (_, disposition) = extend_into_corpus(&mut corpus, scenario, recording, &generator)
                .map_err(UsageError::new)?;
            match disposition {
                ExtendDisposition::Cached => cached += 1,
                ExtendDisposition::Extended { appended: shots } => {
                    extended += 1;
                    appended += shots;
                }
                ExtendDisposition::Recorded => recorded += 1,
            }
        }
        corpus.save().map_err(|e| UsageError::new(e.to_string()))?;
        emit(&format!(
            "corpus {}: {recorded} cells recorded, {extended} extended (+{appended} shots), \
             {cached} already current",
            dir.display()
        ));
    }
    let json = to_json(&outcome.report);
    let out = out.unwrap_or_else(|| PathBuf::from("repro-results/sweep.json"));
    let to_stdout = out.as_os_str() == "-";
    if !to_stdout {
        if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent).expect("create output directory");
        }
        fs::write(&out, json.as_bytes()).expect("write sweep report");
    }
    // Allocation provenance goes to the console (stderr when stdout carries
    // the report), never into the report bytes — an adaptive run at its
    // ceiling must stay byte-identical to the legacy fixed-shot report.
    let provenance = format!(
        "adaptive: {} rounds, {} shots allocated ({} cells converged, {} at ceiling)",
        outcome.rounds, outcome.shots_allocated, outcome.converged, outcome.ceilinged
    );
    if to_stdout {
        eprint!("{}", sweep_summary(&outcome.report));
        eprintln!("{provenance}");
        emit(&json);
    } else {
        emit(&sweep_summary(&outcome.report));
        emit(&provenance);
        emit(&format!("(saved {} cells to {})", outcome.report.cells.len(), out.display()));
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints a line to stdout, ignoring a closed pipe (`repro sweep | head` must
/// not abort after the report is already on disk).
fn emit(line: &str) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "{line}");
}

/// Splits one `KEY=V[,V...]` grid token.
fn split_grid_entry(entry: &str) -> Result<(String, String), UsageError> {
    entry
        .split_once('=')
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .ok_or_else(|| UsageError::new(format!("--grid expects KEY=VALUES, got `{entry}`")))
}

/// Applies `KEY=V,V` grid entries onto the scale-derived default spec.
fn apply_grid(spec: &mut SweepSpec, grid: &[(String, String)]) -> Result<(), UsageError> {
    fn values<T: std::str::FromStr>(key: &str, list: &str) -> Result<Vec<T>, UsageError> {
        list.split(',')
            .map(|item| {
                item.trim()
                    .parse()
                    .map_err(|_| UsageError::new(format!("grid {key}: invalid value `{item}`")))
            })
            .collect()
    }
    for (key, list) in grid {
        match key.as_str() {
            "d" | "distance" => spec.distances = values(key, list)?,
            "p" | "error-rate" => spec.error_rates = values(key, list)?,
            "lr" | "leakage-ratio" => spec.leakage_ratios = values(key, list)?,
            "policy" => {
                spec.policies = list
                    .split(',')
                    .map(|label| {
                        PolicyKind::from_label(label.trim()).ok_or_else(|| {
                            UsageError::new(format!(
                                "grid policy: unknown policy `{label}`; known: {}",
                                PolicyKind::ALL.map(PolicyKind::label).join(", ")
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            "code" | "family" => {
                spec.code = CodeFamily::from_label(list.trim()).ok_or_else(|| {
                    UsageError::new(format!(
                        "grid code: unknown family `{list}`; known: {}",
                        CodeFamily::ALL.map(CodeFamily::label).join(", ")
                    ))
                })?;
            }
            "decoder" => {
                spec.decoders =
                    Some(list.split(',').map(parse_decoder_label).collect::<Result<_, _>>()?);
            }
            other => {
                return Err(UsageError::new(format!(
                    "unknown grid key `{other}` (d, p, lr, policy, code, decoder)"
                )));
            }
        }
    }
    Ok(())
}

fn sweep_summary(report: &SweepReport) -> String {
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|cell| {
            vec![
                cell.code.clone(),
                fmt_float(cell.scenario.p),
                fmt_float(cell.scenario.leakage_ratio),
                cell.scenario.policy.label().to_string(),
                cell.metrics.logical_error_rate.map_or("-".to_string(), fmt_float),
                fmt_float(cell.metrics.lrcs_per_round),
                fmt_float(cell.metrics.inaccuracy_per_round),
                if report.timing { format!("{:.1}", cell.wall_time_ms) } else { "-".to_string() },
            ]
        })
        .collect();
    text_table(&["code", "p", "lr", "policy", "LER", "LRC/round", "inacc/round", "ms"], &rows)
}

// ---------------------------------------------------------------------------------
// repro record
// ---------------------------------------------------------------------------------

fn cmd_record(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut flags = SpecFlags::default();
    let mut corpus_dir: Option<PathBuf> = None;
    let mut record_policy: Option<PolicyKind> = None;
    let mut iter = Args::new(args);
    while let Some(arg) = iter.next() {
        if flags.try_consume(arg, &mut iter)? {
            continue;
        }
        match arg {
            "--corpus" => corpus_dir = Some(PathBuf::from(iter.value("--corpus")?)),
            "--record-policy" => {
                record_policy = Some(parse_policy_label(iter.value("--record-policy")?)?);
            }
            other => {
                return Err(UsageError::new(format!("unknown argument `{other}` for `record`")));
            }
        }
    }
    let corpus_dir = corpus_dir.ok_or_else(|| UsageError::new("record requires --corpus DIR"))?;
    let spec = flags.build()?;
    let scenarios = spec.expand().map_err(UsageError::new)?;
    let recording = record_policy
        .or_else(|| scenarios.first().map(|s| s.policy))
        .expect("expansion yields at least one scenario");
    let mut corpus = Corpus::open(&corpus_dir).map_err(|e| UsageError::new(e.to_string()))?;
    let generator = format!("repro record {}", env!("CARGO_PKG_VERSION"));
    let mut seen: Vec<String> = Vec::new();
    let (mut recorded, mut cached) = (0usize, 0usize);
    for scenario in &scenarios {
        let key = cell_key(scenario);
        if seen.contains(&key) {
            continue; // several policies share one policy-free cell
        }
        seen.push(key.clone());
        if let Some(entry) = corpus.lookup(&key) {
            // A hit recorded under a different policy is not the corpus the
            // user asked for — mirroring `sweep --corpus` strictness.
            if entry.policy != recording.label() {
                return Err(UsageError::new(format!(
                    "cell {key}: corpus already holds a trace recorded with policy \
                     `{}`, but this run records with `{}` — pass --record-policy {} or use a \
                     fresh corpus directory",
                    entry.policy,
                    recording.label(),
                    entry.policy
                )));
            }
            cached += 1;
            emit(&format!("cached   {key}"));
            continue;
        }
        let entry = record_into_corpus(&mut corpus, scenario, recording, &generator)
            .map_err(UsageError::new)?;
        recorded += 1;
        emit(&format!("recorded {key} -> {}", entry.file));
    }
    corpus.save().map_err(|e| UsageError::new(e.to_string()))?;
    emit(&format!(
        "({recorded} cell(s) recorded with policy {}, {cached} cached, corpus {})",
        recording.label(),
        corpus_dir.display()
    ));
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------------
// repro replay
// ---------------------------------------------------------------------------------

fn cmd_replay(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut corpus_dir: Option<PathBuf> = None;
    let mut options = ReplayOptions::default();
    let mut out: Option<PathBuf> = None;
    let mut iter = Args::new(args);
    while let Some(arg) = iter.next() {
        match arg {
            "--corpus" => corpus_dir = Some(PathBuf::from(iter.value("--corpus")?)),
            "--policy" => {
                for label in iter.value("--policy")?.split(',') {
                    options.policies.push(parse_policy_label(label)?);
                }
            }
            "--decode" => options.decode = true,
            "--decoder" => {
                for label in iter.value("--decoder")?.split(',') {
                    options.decoders.push(parse_decoder_label(label)?);
                }
            }
            "--closed-loop" => options.mode = ReplayMode::ClosedLoop,
            "--verify-live" => options.verify_live = true,
            "--out" => out = Some(PathBuf::from(iter.value("--out")?)),
            other => {
                return Err(UsageError::new(format!("unknown argument `{other}` for `replay`")));
            }
        }
    }
    let corpus_dir = corpus_dir.ok_or_else(|| UsageError::new("replay requires --corpus DIR"))?;
    // Selecting a decoder is asking for decoded metrics.
    if !options.decoders.is_empty() {
        options.decode = true;
    }
    let (report, checkpoint_stats) =
        replay_corpus_with_stats(&corpus_dir, &options).map_err(UsageError::new)?;
    let json = to_json(&report);
    let summary = replay_summary(&report, &checkpoint_stats);
    match &out {
        Some(path) if path.as_os_str() == "-" => {
            // Keep stdout machine-readable, as `sweep --out -` does.
            eprint!("{summary}");
            emit(&json);
        }
        Some(path) => {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                fs::create_dir_all(parent).expect("create output directory");
            }
            fs::write(path, json.as_bytes()).expect("write replay report");
            emit(&summary);
            emit(&format!("(saved {} rows to {})", report.results.len(), path.display()));
        }
        None => emit(&summary),
    }
    let mismatches: Vec<&str> = report
        .results
        .iter()
        .filter(|row| row.live_match == Some(false))
        .map(|row| row.key.as_str())
        .collect();
    if options.verify_live {
        let verified = report.results.iter().filter(|row| row.live_match.is_some()).count();
        if verified == 0 {
            // Nothing was verified — passing here would green-light a gate
            // that checked nothing. (Open-loop verification only covers exact
            // pairings; closed-loop verifies every pairing.)
            eprintln!(
                "verify-live FAILED: nothing was verified (in open-loop mode include the \
                 recording policy in --policy, or pass --closed-loop to verify every policy)"
            );
            return Ok(ExitCode::FAILURE);
        }
        if mismatches.is_empty() {
            let message = format!(
                "verify-live OK: {verified} {} replay(s) matched the live engine bit-for-bit",
                report.replay_mode
            );
            if out.as_ref().is_some_and(|path| path.as_os_str() == "-") {
                // `--out -` promises pure JSON on stdout; status goes to stderr.
                eprintln!("{message}");
            } else {
                emit(&message);
            }
        } else {
            eprintln!(
                "verify-live FAILED for {} cell(s): {}",
                mismatches.len(),
                mismatches.join(", ")
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn replay_summary(report: &ReplayReport, checkpoint_stats: &[CellCheckpointStats]) -> String {
    // The decoder column appears only when some row carries a selected
    // backend, so legacy (no `--decoder`) summaries are unchanged.
    let with_decoder = report.results.iter().any(|row| row.decoder.is_some());
    let rows: Vec<Vec<String>> = report
        .results
        .iter()
        .map(|row| {
            let mut columns = vec![
                row.code.clone(),
                row.recorded_policy.clone(),
                row.policy.clone(),
                if row.exact { "yes".to_string() } else { format!("no ({})", row.divergent_shots) },
                fmt_float(row.metrics.false_negatives),
                fmt_float(row.metrics.false_positives),
                fmt_float(row.metrics.lrcs_per_round),
                row.metrics.logical_error_rate.map_or("-".to_string(), fmt_float),
                // The honest cost measure: divergent shots re-execute their
                // full round count (forced prefix + live suffix), annotated
                // with the cell's amortized bill — forced prefix passes `Nf`
                // vs candidate suffixes served `Ns` (shared checkpoints make
                // one forced pass serve the whole policy set).
                row.divergence_profile.as_ref().map_or("-".to_string(), |profile| {
                    let cell = checkpoint_stats.iter().find(|stats| stats.key == row.key);
                    cell.map_or_else(
                        || format!("{:.0}%", profile.simulated_fraction() * 100.0),
                        |cell| {
                            format!(
                                "{:.0}% {}f/{}s",
                                profile.simulated_fraction() * 100.0,
                                cell.stats.forced_passes,
                                cell.stats.suffixes,
                            )
                        },
                    )
                }),
                row.live_match.map_or("-".to_string(), |ok| {
                    if ok {
                        "match".to_string()
                    } else {
                        "MISMATCH".to_string()
                    }
                }),
            ];
            if with_decoder {
                columns.insert(3, row.decoder.clone().unwrap_or_else(|| "uf".to_string()));
            }
            columns
        })
        .collect();
    let mut headers = vec![
        "code",
        "recorded",
        "policy",
        "exact",
        "FN",
        "FP",
        "LRC/round",
        "LER",
        "resim",
        "live",
    ];
    if with_decoder {
        headers.insert(3, "decoder");
    }
    format!("replay mode: {}\n{}", report.replay_mode, text_table(&headers, &rows))
}

// ---------------------------------------------------------------------------------
// repro corpus
// ---------------------------------------------------------------------------------

fn cmd_corpus(args: &[String]) -> Result<ExitCode, UsageError> {
    // `corpus shard` is a sub-subcommand; a corpus directory literally named
    // `shard` is still reachable as `./shard`.
    if args.first().map(String::as_str) == Some("shard") {
        return cmd_corpus_shard(&args[1..]);
    }
    let mut dir: Option<PathBuf> = None;
    let mut verify = false;
    let mut iter = Args::new(args);
    while let Some(arg) = iter.next() {
        match arg {
            "--verify" => verify = true,
            flag if flag.starts_with('-') => {
                return Err(UsageError::new(format!("unknown flag `{flag}` for `corpus`")));
            }
            path if dir.is_none() => dir = Some(PathBuf::from(path)),
            extra => {
                return Err(UsageError::new(format!("unexpected argument `{extra}` for `corpus`")));
            }
        }
    }
    let dir = dir.ok_or_else(|| UsageError::new("corpus requires a directory"))?;
    let corpus = Corpus::open_existing(&dir).map_err(|e| UsageError::new(e.to_string()))?;
    let rows: Vec<Vec<String>> = corpus
        .entries()
        .iter()
        .map(|entry| {
            vec![
                entry.code.clone(),
                entry.policy.clone(),
                entry.rounds.to_string(),
                entry.shots.to_string(),
                entry.seed.to_string(),
                entry.file.clone(),
            ]
        })
        .collect();
    emit(&format!("corpus {} ({} cell(s))", dir.display(), corpus.entries().len()));
    if !rows.is_empty() {
        emit(&text_table(&["code", "policy", "rounds", "shots", "seed", "file"], &rows));
    }
    if !verify {
        return Ok(ExitCode::SUCCESS);
    }
    let mut corrupt = 0usize;
    for entry in corpus.entries() {
        match load_entry(&corpus, entry) {
            Ok(_) => emit(&format!("verified {}", entry.file)),
            Err(e) => {
                corrupt += 1;
                eprintln!("CORRUPT  {}: {e}", entry.file);
            }
        }
    }
    if corrupt > 0 {
        eprintln!("corpus verify FAILED: {corrupt} corrupt trace(s)");
        return Ok(ExitCode::FAILURE);
    }
    emit("corpus verify OK: every trace decoded with valid CRCs and matching code identity");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------------
// repro corpus shard
// ---------------------------------------------------------------------------------

fn cmd_corpus_shard(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut source: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut replicas: Option<usize> = None;
    let mut addrs: Vec<String> = Vec::new();
    let mut iter = Args::new(args);
    while let Some(arg) = iter.next() {
        match arg {
            "--out" => out = Some(PathBuf::from(iter.value("--out")?)),
            "--replicas" => {
                replicas = Some(parse_number("--replicas", iter.value("--replicas")?)?);
            }
            "--replica-addr" => addrs.push(iter.value("--replica-addr")?.to_string()),
            flag if flag.starts_with('-') => {
                return Err(UsageError::new(format!("unknown flag `{flag}` for `corpus shard`")));
            }
            path if source.is_none() => source = Some(PathBuf::from(path)),
            extra => {
                return Err(UsageError::new(format!(
                    "unexpected argument `{extra}` for `corpus shard`"
                )));
            }
        }
    }
    let source =
        source.ok_or_else(|| UsageError::new("corpus shard requires a source directory"))?;
    let out = out.ok_or_else(|| UsageError::new("corpus shard requires --out DIR"))?;
    let replicas = replicas.ok_or_else(|| UsageError::new("corpus shard requires --replicas N"))?;
    if replicas == 0 {
        return Err(UsageError::new("--replicas must be at least 1"));
    }
    if !addrs.is_empty() && addrs.len() != replicas {
        return Err(UsageError::new(format!(
            "--replica-addr given {} time(s) for {replicas} replica(s) — pass one per \
             replica in index order, or none",
            addrs.len()
        )));
    }
    let options = ShardOptions {
        addrs,
        created_by: format!("repro corpus shard {}", env!("CARGO_PKG_VERSION")),
        git_describe: git_describe(),
    };
    // Shard failures are runtime errors (exit 1): the flags were fine.
    let map = match shard_corpus(&source, &out, replicas, &options) {
        Ok(map) => map,
        Err(message) => {
            eprintln!("repro corpus shard: {message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    emit(&format!(
        "sharded {} ({} cell(s)) across {} replica(s) under {}",
        source.display(),
        map.cells(),
        map.replicas.len(),
        out.display()
    ));
    let rows: Vec<Vec<String>> = map
        .replicas
        .iter()
        .map(|replica| {
            vec![
                replica.index.to_string(),
                replica.dir.clone(),
                replica.cells.to_string(),
                if replica.addr.is_empty() { "-".to_string() } else { replica.addr.clone() },
            ]
        })
        .collect();
    emit(&text_table(&["replica", "dir", "cells", "addr"], &rows));
    emit(&format!("shard map: {}", out.join(qec_trace::cluster::CLUSTER_FILE).display()));
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------------
// repro route
// ---------------------------------------------------------------------------------

fn cmd_route(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut cluster: Option<PathBuf> = None;
    let mut overrides: Vec<(usize, String)> = Vec::new();
    let mut config = RouterConfig::default();
    let mut iter = Args::new(args);
    while let Some(arg) = iter.next() {
        match arg {
            "--cluster" => cluster = Some(PathBuf::from(iter.value("--cluster")?)),
            "--addr" => config.addr = iter.value("--addr")?.to_string(),
            "--replica-addr" => {
                let value = iter.value("--replica-addr")?;
                let (index, addr) = value.split_once('=').ok_or_else(|| {
                    UsageError::new(format!("--replica-addr `{value}`: expected INDEX=HOST:PORT"))
                })?;
                overrides.push((parse_number("--replica-addr", index)?, addr.to_string()));
            }
            "--timeout-ms" => {
                let ms: u64 = parse_number("--timeout-ms", iter.value("--timeout-ms")?)?;
                config.replica_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--retries" => {
                config.replica_retries = parse_number("--retries", iter.value("--retries")?)?;
            }
            "--max-connections" => {
                config.max_connections =
                    parse_number("--max-connections", iter.value("--max-connections")?)?;
                if config.max_connections == 0 {
                    return Err(UsageError::new("--max-connections must be at least 1"));
                }
            }
            other => {
                return Err(UsageError::new(format!("unknown argument `{other}` for `route`")));
            }
        }
    }
    let cluster = cluster.ok_or_else(|| UsageError::new("route requires --cluster FILE"))?;
    let router = match Router::bind(&cluster, &overrides, &config) {
        Ok(router) => router,
        Err(message) => {
            eprintln!("repro route: {message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // Same announce-line contract as `repro serve`: scripts parse the bound
    // (possibly ephemeral) address from the first line.
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        let _ = writeln!(
            stdout,
            "qec-cluster routing on {} (cluster {}, {} replica(s), {} cell(s), \
             {} connection(s))",
            router.local_addr(),
            cluster.display(),
            router.replica_count(),
            router.cluster_cells(),
            config.max_connections
        );
        let _ = stdout.flush();
    }
    router.run();
    emit("qec-cluster: clean shutdown");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------------
// repro serve
// ---------------------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut corpus_dir: Option<PathBuf> = None;
    let mut config = ServeConfig::default();
    let mut iter = Args::new(args);
    while let Some(arg) = iter.next() {
        match arg {
            "--corpus" => corpus_dir = Some(PathBuf::from(iter.value("--corpus")?)),
            "--addr" => config.addr = iter.value("--addr")?.to_string(),
            "--cache-cells" => {
                config.cache_cells = parse_number("--cache-cells", iter.value("--cache-cells")?)?;
                if config.cache_cells == 0 {
                    return Err(UsageError::new("--cache-cells must be at least 1"));
                }
            }
            "--max-connections" => {
                config.max_connections =
                    parse_number("--max-connections", iter.value("--max-connections")?)?;
                if config.max_connections == 0 {
                    return Err(UsageError::new("--max-connections must be at least 1"));
                }
            }
            "--queue-limit" => {
                config.queue_limit = parse_number("--queue-limit", iter.value("--queue-limit")?)?;
                if config.queue_limit == 0 {
                    return Err(UsageError::new("--queue-limit must be at least 1"));
                }
            }
            other => {
                return Err(UsageError::new(format!("unknown argument `{other}` for `serve`")));
            }
        }
    }
    let corpus_dir = corpus_dir.ok_or_else(|| UsageError::new("serve requires --corpus DIR"))?;
    // Corpus/bind failures are runtime errors (exit 1), not usage errors: the
    // flags were fine, the environment was not.
    let server = match Server::bind(&corpus_dir, &config) {
        Ok(server) => server,
        Err(message) => {
            eprintln!("repro serve: {message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // The announce line is the startup handshake scripts parse for the bound
    // (possibly ephemeral) address — flush it through any pipe buffering.
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        let _ = writeln!(
            stdout,
            "qec-serve listening on {} (corpus {}, {} cell(s), cache {} cell(s), \
             {} connection(s), queue {})",
            server.local_addr(),
            corpus_dir.display(),
            server.corpus_cells(),
            config.cache_cells,
            config.max_connections,
            config.queue_limit
        );
        let _ = stdout.flush();
    }
    server.run();
    emit("qec-serve: clean shutdown");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------------
// repro query
// ---------------------------------------------------------------------------------

fn cmd_query(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut addr: Option<String> = None;
    let mut action: Option<String> = None;
    let mut keys: Vec<String> = Vec::new();
    let mut policies: Vec<String> = Vec::new();
    let mut mode: Option<String> = None;
    let mut decode = false;
    let mut decoder: Option<String> = None;
    // Deadlines default on: `query` talks to a daemon it does not control,
    // so a hung or partitioned server must yield a typed failure, not a
    // wedged invocation.
    let mut timeout_ms: u64 = 10_000;
    let mut retries: u32 = 0;
    let mut iter = Args::new(args);
    while let Some(arg) = iter.next() {
        match arg {
            "--addr" => addr = Some(iter.value("--addr")?.to_string()),
            "--key" => keys.push(iter.value("--key")?.to_string()),
            "--timeout-ms" => {
                timeout_ms = parse_number("--timeout-ms", iter.value("--timeout-ms")?)?;
            }
            "--retries" => retries = parse_number("--retries", iter.value("--retries")?)?,
            "--policy" => {
                for label in iter.value("--policy")?.split(',') {
                    // Validated client-side for a friendly exit-2; the server
                    // re-validates and answers unknown-policy for raw clients.
                    parse_policy_label(label)?;
                    policies.push(label.trim().to_string());
                }
            }
            "--closed-loop" => mode = Some(ReplayMode::ClosedLoop.label().to_string()),
            "--decode" => decode = true,
            "--decoder" => {
                // Validated client-side for a friendly exit-2; the server
                // re-validates and answers bad-request for raw clients.
                let label = parse_decoder_label(iter.value("--decoder")?)?;
                decoder = Some(label.label().to_string());
            }
            flag if flag.starts_with('-') => {
                return Err(UsageError::new(format!("unknown flag `{flag}` for `query`")));
            }
            name if action.is_none() => action = Some(name.to_string()),
            extra => {
                return Err(UsageError::new(format!("unexpected argument `{extra}` for `query`")));
            }
        }
    }
    let addr = addr.ok_or_else(|| UsageError::new("query requires --addr HOST:PORT"))?;
    let action = action.ok_or_else(|| UsageError::new("query requires an action"))?;
    // Strict parsing, like every other subcommand: a flag the chosen action
    // cannot consume is a usage error, not silently ignored.
    let takes_key = matches!(action.as_str(), "stat" | "verify" | "eval" | "batch-eval");
    let takes_eval_flags = matches!(action.as_str(), "eval" | "batch-eval");
    if !takes_key && !keys.is_empty() {
        return Err(UsageError::new(format!("query {action} does not take --key")));
    }
    if !takes_eval_flags {
        if !policies.is_empty() {
            return Err(UsageError::new(format!("query {action} does not take --policy")));
        }
        if mode.is_some() {
            return Err(UsageError::new(format!("query {action} does not take --closed-loop")));
        }
        if decode {
            return Err(UsageError::new(format!("query {action} does not take --decode")));
        }
        if decoder.is_some() {
            return Err(UsageError::new(format!("query {action} does not take --decoder")));
        }
    }
    // Selecting a decoder is asking for decoded metrics (mirrors `replay`).
    if decoder.is_some() {
        decode = true;
    }
    let eval_spec = |key: &str, policy: &str| EvalSpec {
        key: key.to_string(),
        policy: policy.to_string(),
        mode: mode.clone(),
        decode: decode.then_some(true),
        decoder: decoder.clone(),
    };
    let one_key = || -> Result<&String, UsageError> {
        match keys.as_slice() {
            [key] => Ok(key),
            [] => Err(UsageError::new(format!("query {action} requires --key KEY"))),
            _ => Err(UsageError::new(format!("query {action} takes exactly one --key"))),
        }
    };
    let request = match action.as_str() {
        "ping" => RequestKind::Ping,
        "version" => RequestKind::Version,
        "stats" => RequestKind::Stats,
        "cells" => RequestKind::ListCells,
        "shutdown" => RequestKind::Shutdown,
        "stat" => RequestKind::StatCell { key: one_key()?.clone() },
        "verify" => RequestKind::VerifyCell { key: one_key()?.clone() },
        "eval" => match policies.as_slice() {
            [policy] => RequestKind::Eval(eval_spec(one_key()?, policy)),
            _ => return Err(UsageError::new("query eval requires exactly one --policy LABEL")),
        },
        "batch-eval" => {
            if policies.is_empty() {
                return Err(UsageError::new("query batch-eval requires --policy L1[,L2...]"));
            }
            // Keys (all cells when no --key) are resolved after connecting,
            // over the same connection the batch request goes out on.
            RequestKind::BatchEval { evals: Vec::new(), per_item: Some(true) }
        }
        other => {
            return Err(UsageError::new(format!("unknown query action `{other}`")));
        }
    };
    let client_config = ClientConfig {
        connect_timeout: (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)),
        io_timeout: (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)),
    };
    let mut client = match Client::connect_with(addr.as_str(), client_config) {
        Ok(client) => client,
        Err(message) => {
            eprintln!("repro query: {message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let request = match request {
        RequestKind::BatchEval { .. } => {
            // No --key = every corpus cell, in manifest order.
            let keys = if keys.is_empty() {
                match fetch_all_keys(&mut client) {
                    Ok(keys) => keys,
                    Err(message) => {
                        eprintln!("repro query: {message}");
                        return Ok(ExitCode::FAILURE);
                    }
                }
            } else {
                keys.clone()
            };
            let evals: Vec<EvalSpec> = keys
                .iter()
                .flat_map(|key| policies.iter().map(move |policy| eval_spec(key, policy)))
                .collect();
            RequestKind::BatchEval { evals, per_item: Some(true) }
        }
        other => other,
    };
    let out_line = request_line(&Request { id: None, request });
    // `--retries N`: an `overloaded` shed is the server's explicit "retry
    // later" (nothing was evaluated), so it is the one error worth re-sending
    // after a short growing backoff. Every request is a read-only query, so a
    // re-send can never double-apply anything. Anything else — transport
    // failures included — fails fast with the server's (or OS's) message.
    let mut attempt = 0u32;
    let line = loop {
        match client.send_raw(&out_line) {
            Ok(line) => {
                let shed = matches!(
                    parse_response(&line),
                    Ok(Response {
                        response: ResponseKind::Error(ref error),
                        ..
                    }) if error.code == ErrorCode::Overloaded
                );
                if !(shed && attempt < retries) {
                    break line;
                }
            }
            Err(message) => {
                eprintln!("repro query: {message}");
                return Ok(ExitCode::FAILURE);
            }
        }
        attempt += 1;
        std::thread::sleep(std::time::Duration::from_millis(50 << (attempt - 1).min(4)));
    };
    // stdout carries the server's response bytes verbatim (machine-readable,
    // byte-comparable across runs); status classification goes by the parsed
    // payload.
    emit(&line);
    match parse_response(&line) {
        Ok(response) => match response.response {
            ResponseKind::Error(error) => {
                eprintln!("repro query: server error {error}");
                Ok(ExitCode::FAILURE)
            }
            // Per-item batches succeed or fail pairing by pairing; the exit
            // code reflects the whole batch so scripts need not parse JSON.
            ResponseKind::BatchItems(items) => {
                let failed = items.iter().filter(|item| item.as_result().is_err()).count();
                if failed > 0 {
                    eprintln!("repro query: {failed} of {} batch item(s) failed", items.len());
                    return Ok(ExitCode::FAILURE);
                }
                Ok(ExitCode::SUCCESS)
            }
            _ => Ok(ExitCode::SUCCESS),
        },
        Err(error) => {
            eprintln!("repro query: unparsable response: {error}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Asks the daemon for its cell list over the already-open connection (used
/// by `batch-eval` with no `--key`).
fn fetch_all_keys(client: &mut Client) -> Result<Vec<String>, String> {
    match client.request(RequestKind::ListCells) {
        Ok(ResponseKind::Cells(cells)) => Ok(cells.into_iter().map(|cell| cell.key).collect()),
        Ok(other) => Err(format!("batch-eval: unexpected list-cells answer {other:?}")),
        Err(message) => Err(format!("batch-eval: {message}")),
    }
}

// ---------------------------------------------------------------------------------
// repro version
// ---------------------------------------------------------------------------------

fn cmd_version(args: &[String]) -> Result<ExitCode, UsageError> {
    if let Some(extra) = args.first() {
        return Err(UsageError::new(format!("unexpected argument `{extra}` for `version`")));
    }
    println!("repro {} ({})", env!("CARGO_PKG_VERSION"), git_describe());
    println!("sweep report schema:    {SWEEP_SCHEMA_VERSION}");
    println!("adaptive checkpoint:    {ADAPTIVE_SCHEMA_VERSION}");
    println!("replay report schema:   {REPLAY_SCHEMA_VERSION}");
    println!("trace (.qtr) schema:    {}", qec_trace::TRACE_SCHEMA_VERSION);
    println!("corpus manifest schema: {}", qec_trace::MANIFEST_SCHEMA_VERSION);
    println!("serve protocol:         {PROTOCOL_VERSION}");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------------
// repro list
// ---------------------------------------------------------------------------------

fn cmd_list(args: &[String]) -> Result<ExitCode, UsageError> {
    if let Some(extra) = args.first() {
        return Err(UsageError::new(format!("unexpected argument `{extra}` for `list`")));
    }
    println!("experiments: {}", EXPERIMENTS.join(", "));
    println!("policies:    {}", PolicyKind::ALL.map(PolicyKind::label).join(", "));
    println!("codes:       {}", CodeFamily::ALL.map(CodeFamily::label).join(", "));
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------------
// experiment dispatch (repro run)
// ---------------------------------------------------------------------------------

fn policy_table(results: &[qec_experiments::PolicyExperimentResult]) -> String {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                fmt_float(r.metrics.false_negatives),
                fmt_float(r.metrics.false_positives),
                fmt_float(r.metrics.data_lrcs),
                fmt_float(r.metrics.lrcs_per_round),
                fmt_float(r.metrics.average_dlp),
                fmt_float(r.metrics.final_dlp),
                r.metrics.logical_error_rate.map_or("-".to_string(), fmt_float),
            ]
        })
        .collect();
    text_table(
        &["policy", "FN", "FP", "data LRCs", "LRC/round", "avg DLP", "final DLP", "LER"],
        &rows,
    )
}

fn run_one(name: &str, scale: &Scale) -> Option<String> {
    match name {
        "fig1" => {
            let results = runners::fig1_headline(scale);
            println!("{}", policy_table(&results));
            Some(to_json(&results))
        }
        "fig3" => {
            let result = runners::fig3_device_characterization(scale);
            println!("leaked-CNOT bit-flip probability: {}", fmt_float(result.leaked_cnot_bitflip));
            println!(
                "leakage population after 40 CNOTs: with injection {}, without {}",
                fmt_float(*result.accumulation_with_injection.last().unwrap_or(&0.0)),
                fmt_float(*result.accumulation_without_injection.last().unwrap_or(&0.0)),
            );
            Some(to_json(&result))
        }
        "fig4b" => {
            let rows = runners::fig4b_open_loop_ler(scale);
            print_ler(&rows);
            Some(to_json(&rows))
        }
        "fig5" => {
            let rows = runners::fig5_surface_pattern_usage(scale);
            print_patterns(&rows);
            Some(to_json(&rows))
        }
        "fig8" => {
            let (counts, usage) = runners::fig8_color_code(scale);
            let rows: Vec<Vec<String>> = counts
                .iter()
                .map(|c| {
                    vec![
                        c.policy.clone(),
                        c.width.to_string(),
                        format!("{}/{}", c.flagged, c.space),
                    ]
                })
                .collect();
            println!("{}", text_table(&["policy", "width", "flagged"], &rows));
            print_patterns(&usage);
            Some(to_json(&(counts, usage)))
        }
        "fig9" => {
            let results = runners::fig9_speculation_accuracy(scale);
            println!("{}", policy_table(&results));
            Some(to_json(&results))
        }
        "fig10" => {
            let rows = runners::fig10_surface_dlp(scale);
            print_dlp(&rows);
            Some(to_json(&rows))
        }
        "fig11" => {
            let rows = runners::fig11_color_dlp(scale);
            print_dlp(&rows);
            Some(to_json(&rows))
        }
        "fig12" => {
            let rows = runners::fig12_ler_vs_distance(scale);
            print_ler(&rows);
            for policy in ["eraser+m", "gladiator+m"] {
                let lambda = runners::suppression_factor(&rows, policy);
                println!("suppression factor {policy}: {lambda:?}");
            }
            Some(to_json(&rows))
        }
        "fig13" => {
            let rows = runners::fig13_error_rate_sensitivity(scale);
            print_ler(&rows);
            Some(to_json(&rows))
        }
        "fig14" => {
            let rows = runners::fig14_distance_scaling(scale);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.distance.to_string(),
                        r.policy.clone(),
                        fmt_float(r.average_dlp),
                        fmt_float(r.data_lrcs),
                    ]
                })
                .collect();
            println!("{}", text_table(&["d", "policy", "avg DLP", "data LRCs"], &table));
            Some(to_json(&rows))
        }
        "table2" => {
            let results = runners::table2_efficacy(scale);
            println!("{}", policy_table(&results));
            Some(to_json(&results))
        }
        "table3" => {
            let reports = runners::table3_lut_usage();
            let rows: Vec<Vec<String>> = reports
                .iter()
                .map(|r| {
                    vec![
                        r.distance.to_string(),
                        r.gladiator.to_string(),
                        r.eraser.to_string(),
                        format!("{:.1}x", r.reduction_factor()),
                    ]
                })
                .collect();
            println!("{}", text_table(&["d", "GLADIATOR LUTs", "ERASER LUTs", "reduction"], &rows));
            Some(to_json(&reports))
        }
        "table4" => {
            let rows = runners::table4_equilibrium(scale);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.policy.clone(),
                        fmt_float(r.leakage_ratio),
                        fmt_float(r.p),
                        fmt_float(r.leakage_equilibrium),
                        fmt_float(r.inaccuracy_per_round),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(&["policy", "lr", "p", "equilibrium DLP", "inaccuracy/round"], &table)
            );
            Some(to_json(&rows))
        }
        "table5" => {
            let rows = runners::table5_code_families(scale);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.code.clone(),
                        format!("{:.2}x", r.lrc_reduction),
                        format!("{:.2}x", r.dlp_reduction),
                        format!("{:.2}x", r.cycle_time_reduction),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(&["code", "LRC red.", "DLP red.", "cycle-time red."], &table)
            );
            Some(to_json(&rows))
        }
        "table6" => {
            let rows = runners::table6_mobility(scale);
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        format!("{:.1}%", r.mobility_percent),
                        r.true_regime.clone(),
                        format!("{:.0}%", r.accuracy * 100.0),
                        fmt_float(r.estimated_conditional),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(&["mobility", "true regime", "accuracy", "estimate"], &table)
            );
            Some(to_json(&rows))
        }
        _ => None,
    }
}

fn print_ler(rows: &[runners::LerRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.distance.to_string(),
                fmt_float(r.p),
                fmt_float(r.logical_error_rate),
                fmt_float(r.lrcs_per_round),
            ]
        })
        .collect();
    println!("{}", text_table(&["policy", "d", "p", "LER", "LRC/round"], &table));
}

fn print_dlp(rows: &[runners::DlpSeriesRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let final_dlp = r.dlp_series.last().copied().unwrap_or(0.0);
            vec![
                r.code.clone(),
                r.policy.clone(),
                fmt_float(r.leakage_ratio),
                fmt_float(final_dlp),
                fmt_float(r.lrcs_per_round),
            ]
        })
        .collect();
    println!("{}", text_table(&["code", "policy", "lr", "final DLP", "LRC/round"], &table));
}

fn print_patterns(rows: &[runners::PatternUsageRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .filter(|r| r.lrcs_with_leak + r.lrcs_without_leak > 0)
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:0width$b}", r.pattern, width = r.width),
                r.lrcs_with_leak.to_string(),
                r.lrcs_without_leak.to_string(),
            ]
        })
        .collect();
    println!("{}", text_table(&["policy", "pattern", "LRCs (leaked)", "LRCs (healthy)"], &table));
}
