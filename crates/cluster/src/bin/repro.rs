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
//! print usage to stderr and exit with status 2. Exit status 1 is a failure
//! at run time: a `replay --verify-live` mismatch or `corpus --verify`
//! corruption; a `query` error response, failed batch item or unreachable
//! daemon; an output file that cannot be written (one `repro: cannot write`
//! line); a corpus cell that `replay` or `sweep --corpus` cannot load (one
//! `repro <command>:` line); or a `serve`, `route` or `corpus shard` runtime
//! failure (a corpus, shard map or bind error). Everything else exits 0.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use leakage_speculation::PolicyKind;
use qec_cluster::{shard_corpus, Router, RouterConfig, ShardOptions};
use qec_codes::CodeFamily;
use qec_decoder::DecoderKind;
use qec_experiments::adaptive::{
    resume_adaptive, run_adaptive, AdaptiveOutcome, AdaptiveSpec, ADAPTIVE_SCHEMA_VERSION,
};
use qec_experiments::replay::{
    cell_key, extend_into_corpus, load_entry, record_into_corpus, replay_corpus_with_stats,
    CellCheckpointStats, CorpusRunError, ExtendDisposition, ReplayMode, ReplayOptions,
    ReplayReport, REPLAY_SCHEMA_VERSION,
};
use qec_experiments::report::{fmt_float, text_table, to_json};
use qec_experiments::runners::{self, Scale};
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

exit status: 0 ok; 1 gate failure (replay --verify-live, corpus --verify), query
error response or failed batch item, unwritable output file, a corpus cell that
replay or sweep --corpus cannot load (tampered manifest entry, corrupt or stale
shard), or serve, route or corpus shard runtime failure; 2 usage error
";

/// A usage error: the message is printed to stderr followed by the usage text.
#[derive(Debug)]
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
            let _ = std::io::stdout().write_all(USAGE.as_bytes());
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
            let _ = writeln!(std::io::stderr(), "repro: {message}");
            let _ = write!(std::io::stderr(), "{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One subcommand's arguments, consumed as the command asks for them: every
/// read marks the flags (and values) it takes as used, and [`Args::finish`]
/// rejects any flag no read asked for. Flags may come in any order and
/// repeat; a scalar flag keeps its last value, a list flag accumulates.
struct Args<'a> {
    command: &'static str,
    items: &'a [String],
    used: Vec<bool>,
}

impl<'a> Args<'a> {
    fn new(command: &'static str, items: &'a [String]) -> Self {
        Args { command, items, used: vec![false; items.len()] }
    }

    /// Whether the switch `flag` was given.
    fn switch(&mut self, flag: &str) -> bool {
        let mut given = false;
        for (item, used) in self.items.iter().zip(&mut self.used) {
            if item == flag {
                *used = true;
                given = true;
            }
        }
        given
    }

    /// The value of every `flag VALUE` pair, in order. A value never starts
    /// with `--`, so `--out --no-timing` is a usage error rather than a file
    /// named `--no-timing`.
    fn values(&mut self, flag: &str) -> Result<Vec<&'a str>, UsageError> {
        let items = self.items;
        let mut values = Vec::new();
        for at in (0..items.len()).filter(|&at| items[at] == flag) {
            match items.get(at + 1) {
                Some(value) if !value.starts_with("--") => values.push(value.as_str()),
                _ => return Err(UsageError::new(format!("{flag} requires a value"))),
            }
            self.used[at] = true;
            self.used[at + 1] = true;
        }
        Ok(values)
    }

    /// The last value of `flag`.
    fn value(&mut self, flag: &str) -> Result<Option<&'a str>, UsageError> {
        Ok(self.values(flag)?.pop())
    }

    fn path(&mut self, flag: &str) -> Result<Option<PathBuf>, UsageError> {
        Ok(self.value(flag)?.map(PathBuf::from))
    }

    /// Every value of `flag` through `parse`.
    fn each<T>(
        &mut self,
        flag: &str,
        parse: impl Fn(&'a str) -> Result<T, UsageError>,
    ) -> Result<Vec<T>, UsageError> {
        self.values(flag)?.into_iter().map(parse).collect()
    }

    /// The last value of `flag` through `parse`; every occurrence must parse.
    fn parsed<T>(
        &mut self,
        flag: &str,
        parse: impl Fn(&'a str) -> Result<T, UsageError>,
    ) -> Result<Option<T>, UsageError> {
        Ok(self.each(flag, parse)?.pop())
    }

    fn number<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, UsageError> {
        self.parsed(flag, |value| parse_number(flag, value))
    }

    /// A number that must be at least 1.
    fn count(&mut self, flag: &str) -> Result<Option<usize>, UsageError> {
        self.parsed(flag, |value| match parse_number(flag, value)? {
            0 => Err(UsageError::new(format!("{flag} must be at least 1"))),
            count => Ok(count),
        })
    }

    /// Every comma-separated item of every `flag` value, through `parse`.
    fn list<T>(
        &mut self,
        flag: &str,
        parse: impl Fn(&'a str) -> Result<T, UsageError>,
    ) -> Result<Vec<T>, UsageError> {
        self.values(flag)?.into_iter().flat_map(|value| value.split(',')).map(parse).collect()
    }

    /// Every `--grid KEY=V[,V...]` entry. Each `--grid` also takes every
    /// following token that contains `=` and does not start with `--`.
    fn grid(&mut self) -> Result<Vec<(String, String)>, UsageError> {
        self.values("--grid")?;
        let items = self.items;
        let mut entries = Vec::new();
        let mut in_grid = false;
        for (at, item) in items.iter().enumerate() {
            in_grid = (at > 0 && items[at - 1] == "--grid")
                || (in_grid && !item.starts_with("--") && item.contains('='));
            if in_grid {
                self.used[at] = true;
                entries.push(split_grid_entry(item)?);
            }
        }
        Ok(entries)
    }

    /// Rejects any flag no read asked for and returns the remaining
    /// arguments, the operands: at most `max_operands` of them.
    fn finish(self, max_operands: usize) -> Result<Vec<&'a str>, UsageError> {
        let command = self.command;
        let mut operands = Vec::new();
        for (item, used) in self.items.iter().zip(self.used) {
            if used {
                continue;
            }
            if item.starts_with('-') {
                return Err(UsageError::new(format!("unknown flag `{item}` for `{command}`")));
            }
            if operands.len() == max_operands {
                let message = format!("unexpected argument `{item}` for `{command}`");
                return Err(UsageError::new(message));
            }
            operands.push(item.as_str());
        }
        Ok(operands)
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

fn replay_mode(closed_loop: bool) -> ReplayMode {
    if closed_loop {
        ReplayMode::ClosedLoop
    } else {
        ReplayMode::OpenLoop
    }
}

/// A deadline of `ms` milliseconds, where 0 means none.
fn deadline(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

// ---------------------------------------------------------------------------------
// repro run
// ---------------------------------------------------------------------------------

fn cmd_run(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut args = Args::new("run", args);
    let scale = args.parsed("--scale", parse_scale)?.unwrap_or_else(Scale::quick);
    let out_dir = args.path("--out")?.unwrap_or_else(|| PathBuf::from("repro-results"));
    let mut selected = args.finish(usize::MAX)?;
    if let Some(unknown) = selected.iter().find(|name| !EXPERIMENTS.contains(name)) {
        return Err(UsageError::new(format!(
            "unknown experiment `{unknown}`; known: {}",
            EXPERIMENTS.join(", ")
        )));
    }
    if selected.is_empty() {
        selected = EXPERIMENTS.to_vec();
    }
    for name in selected {
        emit(&format!("=== {name} ==="));
        let payload = run_one(name, &scale).expect("experiment names were validated above");
        let path = out_dir.join(format!("{name}.json"));
        if let Err(code) = write_output(&path, payload.as_bytes()) {
            return Ok(code);
        }
        emit(&format!("(saved {})\n", path.display()));
    }
    Ok(ExitCode::SUCCESS)
}

/// Lands a failed corpus run: a cell that fails to load (a tampered manifest
/// entry, or a corrupt or stale shard) is a runtime error, as in `corpus
/// --verify` — one `repro <command>: <message>` line and exit 1. Any other
/// failure stays a usage error.
fn corpus_failure(command: &str, error: CorpusRunError) -> Result<ExitCode, UsageError> {
    match error {
        CorpusRunError::Load(message) => {
            eprintln!("repro {command}: {message}");
            Ok(ExitCode::FAILURE)
        }
        CorpusRunError::Other(message) => Err(UsageError(message)),
    }
}

/// Writes an output file, creating its parent directories. A failure is a
/// runtime error, not a usage error (the flags were fine, the filesystem was
/// not): it prints `repro: cannot write <path>: <error>` and yields exit 1,
/// like a `serve` bind failure.
fn write_output(path: &Path, bytes: &[u8]) -> Result<(), ExitCode> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    parent.map_or(Ok(()), fs::create_dir_all).and_then(|()| fs::write(path, bytes)).map_err(|e| {
        eprintln!("repro: cannot write {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

/// Delivers a JSON report with its console text: the `summary`, then each
/// `note`. `--out -` keeps stdout machine-readable: the JSON alone goes there
/// and the console text to stderr. An `--out` path is written first, so a
/// consumer that closes our stdout early still gets the report on disk; the
/// console text and a `(saved <saved> to <path>)` line follow on stdout.
/// Without `--out` only the console text is printed. Returns the printer for
/// any later status line, so it lands on the same stream.
fn deliver(
    out: Option<&Path>,
    json: &str,
    summary: &str,
    notes: &[&str],
    saved: &str,
) -> Result<fn(&str), ExitCode> {
    if out.is_some_and(|path| path.as_os_str() == "-") {
        eprint!("{summary}");
        let say: fn(&str) = |line| eprintln!("{line}");
        notes.iter().for_each(|note| say(note));
        emit(json);
        return Ok(say);
    }
    if let Some(path) = out {
        write_output(path, json.as_bytes())?;
    }
    emit(summary);
    notes.iter().for_each(|note| emit(note));
    if let Some(path) = out {
        emit(&format!("(saved {saved} to {})", path.display()));
    }
    Ok(emit)
}

// ---------------------------------------------------------------------------------
// repro sweep
// ---------------------------------------------------------------------------------

/// The spec-building flags shared by `sweep` and `record`: a grid (or spec
/// file) plus scalar overrides.
#[derive(Default, PartialEq)]
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
    fn read(args: &mut Args<'_>) -> Result<Self, UsageError> {
        Ok(SpecFlags {
            scale: args.parsed("--scale", parse_scale)?,
            spec_file: args.path("--spec")?,
            grid: args.grid()?,
            shots: args.number("--shots")?,
            rounds_per_distance: args.number("--rounds-per-distance")?,
            seed: args.number("--seed")?,
            no_decode: args.switch("--no-decode"),
        })
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

fn cmd_sweep(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut args = Args::new("sweep", args);
    let flags = SpecFlags::read(&mut args)?;
    let timing = !args.switch("--no-timing");
    let out = args.path("--out")?.unwrap_or_else(|| PathBuf::from("repro-results/sweep.json"));
    let corpus_dir = args.path("--corpus")?;
    let record_policy = args.parsed("--record-policy", parse_policy_label)?;
    let closed_loop = args.switch("--closed-loop");
    let decoders = args.list("--decoder", parse_decoder_label)?;
    let adaptive = args.switch("--adaptive");
    let target_ci: Option<f64> = args.number("--target-ci")?;
    let confidence: Option<f64> = args.number("--confidence")?;
    let initial_batch: Option<usize> = args.number("--initial-batch")?;
    let max_shots: Option<usize> = args.number("--max-shots")?;
    let checkpoint_dir = args.path("--checkpoint")?;
    let stop_after_rounds: Option<u64> = args.number("--stop-after-rounds")?;
    let resume_dir = args.path("--resume")?;
    args.finish(0)?;
    if record_policy.is_some() && corpus_dir.is_none() {
        return Err(UsageError::new("--record-policy requires --corpus"));
    }
    let adaptive_only = target_ci.is_some()
        || confidence.is_some()
        || initial_batch.is_some()
        || max_shots.is_some()
        || checkpoint_dir.is_some();
    if let Some(dir) = resume_dir {
        // Resume takes its whole spec from the checkpoint: flags that would
        // redefine the run contradict the byte-identity contract.
        if flags != SpecFlags::default() || adaptive || !decoders.is_empty() || closed_loop {
            return Err(UsageError::new(
                "--resume takes the spec from the checkpoint; it only accepts \
                 --stop-after-rounds, --out, --corpus and --record-policy",
            ));
        }
        if adaptive_only {
            return Err(UsageError::new(
                "--resume reads --target-ci/--confidence/--initial-batch/--max-shots/\
                 --checkpoint from the checkpoint directory; do not pass them",
            ));
        }
        let outcome = resume_adaptive(&dir, stop_after_rounds).map_err(UsageError::new)?;
        return finish_adaptive(outcome, &dir, &out, corpus_dir, record_policy);
    }
    let mut spec = flags.build()?;
    if !decoders.is_empty() {
        spec.decoders = Some(decoders);
    }
    if adaptive {
        if closed_loop {
            return Err(UsageError::new("--adaptive runs live; it cannot combine --closed-loop"));
        }
        let checkpoint = checkpoint_dir
            .ok_or_else(|| UsageError::new("--adaptive requires --checkpoint DIR"))?;
        let target = target_ci
            .ok_or_else(|| UsageError::new("--adaptive requires --target-ci R (e.g. 0.1)"))?;
        if let Some(ceiling) = max_shots {
            spec.shots = ceiling;
        }
        let defaults = AdaptiveSpec::default();
        spec.adaptive = Some(AdaptiveSpec {
            target_rel_halfwidth: target,
            confidence: confidence.unwrap_or(defaults.confidence),
            initial_batch: initial_batch.unwrap_or(defaults.initial_batch),
        });
        // Adaptive/decoder/family violations surface here as typed usage
        // errors (exit 2) rather than mid-sweep failures.
        spec.expand().map_err(UsageError::new)?;
        let outcome =
            run_adaptive(&spec, &checkpoint, stop_after_rounds).map_err(UsageError::new)?;
        return finish_adaptive(outcome, &checkpoint, &out, corpus_dir, record_policy);
    }
    if adaptive_only || stop_after_rounds.is_some() {
        return Err(UsageError::new(
            "--target-ci/--confidence/--initial-batch/--max-shots/--checkpoint/\
             --stop-after-rounds require --adaptive",
        ));
    }
    if closed_loop && corpus_dir.is_none() {
        return Err(UsageError::new("--closed-loop requires --corpus"));
    }
    // Decoder/family mismatches surface here, at expansion time, as typed
    // usage errors (exit 2) rather than mid-sweep failures.
    spec.expand().map_err(UsageError::new)?;
    let report = match &corpus_dir {
        Some(dir) => {
            let mode = replay_mode(closed_loop);
            match run_sweep_with_corpus(&spec, dir, record_policy, timing, mode) {
                Ok(report) => report,
                Err(error) => return corpus_failure("sweep", error),
            }
        }
        None => run_sweep(&spec, timing).map_err(UsageError::new)?,
    };
    let saved = format!("{} cells", report.cells.len());
    let delivered = deliver(Some(&out), &to_json(&report), &sweep_summary(&report), &[], &saved);
    Ok(delivered.err().unwrap_or(ExitCode::SUCCESS))
}

/// Lands an adaptive sweep outcome: `None` is a pause at a round boundary
/// (checkpointed, exit 0 with a resume hint); `Some` optionally records the
/// finished cells into a corpus (appending only new shots to cells already
/// recorded), then delivers the report exactly like the fixed-shot path, with
/// the allocation provenance that deliberately lives outside the report
/// bytes as a console note.
fn finish_adaptive(
    outcome: Option<AdaptiveOutcome>,
    checkpoint: &Path,
    out: &Path,
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
    // An adaptive run at its ceiling must stay byte-identical to the legacy
    // fixed-shot report, so the provenance is a console note only.
    let provenance = format!(
        "adaptive: {} rounds, {} shots allocated ({} cells converged, {} at ceiling)",
        outcome.rounds, outcome.shots_allocated, outcome.converged, outcome.ceilinged
    );
    let report = &outcome.report;
    let saved = format!("{} cells", report.cells.len());
    let json = to_json(report);
    let delivered = deliver(Some(out), &json, &sweep_summary(report), &[&provenance], &saved);
    Ok(delivered.err().unwrap_or(ExitCode::SUCCESS))
}

/// Prints a line to stdout, ignoring a closed pipe (`repro sweep | head` must
/// not abort after the report is already on disk).
fn emit(line: &str) {
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
                spec.policies =
                    list.split(',').map(parse_policy_label).collect::<Result<_, _>>()?;
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
    let mut args = Args::new("record", args);
    let flags = SpecFlags::read(&mut args)?;
    let corpus_dir =
        args.path("--corpus")?.ok_or_else(|| UsageError::new("record requires --corpus DIR"))?;
    let record_policy = args.parsed("--record-policy", parse_policy_label)?;
    args.finish(0)?;
    let mut spec = flags.build()?;
    // A recording never decodes (neither cell keys nor `.qtr` bytes carry the
    // flag), so no decoder needs to serve the recorded code.
    spec.decode = false;
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
    let mut args = Args::new("replay", args);
    let corpus_dir =
        args.path("--corpus")?.ok_or_else(|| UsageError::new("replay requires --corpus DIR"))?;
    let decoders = args.list("--decoder", parse_decoder_label)?;
    let options = ReplayOptions {
        policies: args.list("--policy", parse_policy_label)?,
        // Selecting a decoder is asking for decoded metrics.
        decode: args.switch("--decode") || !decoders.is_empty(),
        decoders,
        mode: replay_mode(args.switch("--closed-loop")),
        verify_live: args.switch("--verify-live"),
    };
    let out = args.path("--out")?;
    args.finish(0)?;
    let (report, checkpoint_stats) = match replay_corpus_with_stats(&corpus_dir, &options) {
        Ok(replayed) => replayed,
        Err(error) => return corpus_failure("replay", error),
    };
    let summary = replay_summary(&report, &checkpoint_stats);
    let saved = format!("{} rows", report.results.len());
    let say = match deliver(out.as_deref(), &to_json(&report), &summary, &[], &saved) {
        Ok(say) => say,
        Err(code) => return Ok(code),
    };
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
            say(&format!(
                "verify-live OK: {verified} {} replay(s) matched the live engine bit-for-bit",
                report.replay_mode
            ));
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
    let mut args = Args::new("corpus", args);
    let verify = args.switch("--verify");
    let dir = args.finish(1)?.pop().map(PathBuf::from);
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
    let mut args = Args::new("corpus shard", args);
    let out =
        args.path("--out")?.ok_or_else(|| UsageError::new("corpus shard requires --out DIR"))?;
    let replicas = args.count("--replicas")?;
    let replicas = replicas.ok_or_else(|| UsageError::new("corpus shard requires --replicas N"))?;
    let addrs = args.each("--replica-addr", |addr| Ok(addr.to_string()))?;
    let source = args.finish(1)?.pop().map(PathBuf::from);
    let source =
        source.ok_or_else(|| UsageError::new("corpus shard requires a source directory"))?;
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
    let mut args = Args::new("route", args);
    let cluster =
        args.path("--cluster")?.ok_or_else(|| UsageError::new("route requires --cluster FILE"))?;
    let overrides = args.each("--replica-addr", |value| {
        let (index, addr) = value.split_once('=').ok_or_else(|| {
            UsageError::new(format!("--replica-addr `{value}`: expected INDEX=HOST:PORT"))
        })?;
        Ok((parse_number("--replica-addr", index)?, addr.to_string()))
    })?;
    let defaults = RouterConfig::default();
    let config = RouterConfig {
        addr: args.value("--addr")?.map_or(defaults.addr, String::from),
        replica_timeout: args.number("--timeout-ms")?.map_or(defaults.replica_timeout, deadline),
        replica_retries: args.number("--retries")?.unwrap_or(defaults.replica_retries),
        max_connections: args.count("--max-connections")?.unwrap_or(defaults.max_connections),
    };
    args.finish(0)?;
    let router = match Router::bind(&cluster, &overrides, &config) {
        Ok(router) => router,
        Err(message) => {
            eprintln!("repro route: {message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    // Same announce-line contract as `repro serve`: scripts parse the bound
    // (possibly ephemeral) address from the first line.
    announce(&format!(
        "qec-cluster routing on {} (cluster {}, {} replica(s), {} cell(s), {} connection(s))",
        router.local_addr(),
        cluster.display(),
        router.replica_count(),
        router.cluster_cells(),
        config.max_connections
    ));
    router.run();
    emit("qec-cluster: clean shutdown");
    Ok(ExitCode::SUCCESS)
}

/// Prints the startup line scripts parse for the bound (possibly ephemeral)
/// address, flushed through any pipe buffering.
fn announce(line: &str) {
    emit(line);
    let _ = std::io::stdout().flush();
}

// ---------------------------------------------------------------------------------
// repro serve
// ---------------------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut args = Args::new("serve", args);
    let corpus_dir =
        args.path("--corpus")?.ok_or_else(|| UsageError::new("serve requires --corpus DIR"))?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: args.value("--addr")?.map_or(defaults.addr, String::from),
        cache_cells: args.count("--cache-cells")?.unwrap_or(defaults.cache_cells),
        max_connections: args.count("--max-connections")?.unwrap_or(defaults.max_connections),
        queue_limit: args.count("--queue-limit")?.unwrap_or(defaults.queue_limit),
        ..defaults
    };
    args.finish(0)?;
    // Corpus/bind failures are runtime errors (exit 1), not usage errors: the
    // flags were fine, the environment was not.
    let server = match Server::bind(&corpus_dir, &config) {
        Ok(server) => server,
        Err(message) => {
            eprintln!("repro serve: {message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    announce(&format!(
        "qec-serve listening on {} (corpus {}, {} cell(s), cache {} cell(s), \
         {} connection(s), queue {})",
        server.local_addr(),
        corpus_dir.display(),
        server.corpus_cells(),
        config.cache_cells,
        config.max_connections,
        config.queue_limit
    ));
    server.run();
    emit("qec-serve: clean shutdown");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------------
// repro query
// ---------------------------------------------------------------------------------

fn cmd_query(args: &[String]) -> Result<ExitCode, UsageError> {
    let mut args = Args::new("query", args);
    let addr = args.value("--addr")?;
    let keys = args.values("--key")?;
    // Deadlines default on: `query` talks to a daemon it does not control,
    // so a hung or partitioned server must yield a typed failure, not a
    // wedged invocation.
    let timeout = deadline(args.number("--timeout-ms")?.unwrap_or(10_000));
    let retries: u32 = args.number("--retries")?.unwrap_or(0);
    // Labels are validated client-side for a friendly exit-2; the server
    // re-validates and answers unknown-policy or bad-request for raw clients.
    let policies = args.list("--policy", parse_policy_label)?;
    let closed_loop = args.switch("--closed-loop");
    let decode = args.switch("--decode");
    let decoder = args.parsed("--decoder", parse_decoder_label)?;
    let action = args.finish(1)?.pop();
    let addr = addr.ok_or_else(|| UsageError::new("query requires --addr HOST:PORT"))?;
    let action = action.ok_or_else(|| UsageError::new("query requires an action"))?;
    // Strict parsing, like every other subcommand: a flag the chosen action
    // cannot consume is a usage error, not silently ignored.
    let takes_eval_flags = matches!(action, "eval" | "batch-eval");
    let takes_key = takes_eval_flags || matches!(action, "stat" | "verify");
    for (flag, given, taken) in [
        ("--key", !keys.is_empty(), takes_key),
        ("--policy", !policies.is_empty(), takes_eval_flags),
        ("--closed-loop", closed_loop, takes_eval_flags),
        ("--decode", decode, takes_eval_flags),
        ("--decoder", decoder.is_some(), takes_eval_flags),
    ] {
        if given && !taken {
            return Err(UsageError::new(format!("query {action} does not take {flag}")));
        }
    }
    let eval_spec = |key: &str, policy: &PolicyKind| EvalSpec {
        key: key.to_string(),
        policy: policy.label().to_string(),
        mode: closed_loop.then(|| ReplayMode::ClosedLoop.label().to_string()),
        // Selecting a decoder is asking for decoded metrics (mirrors `replay`).
        decode: (decode || decoder.is_some()).then_some(true),
        decoder: decoder.map(|kind| kind.label().to_string()),
    };
    let one_key = || match keys.as_slice() {
        [key] => Ok(*key),
        [] => Err(UsageError::new(format!("query {action} requires --key KEY"))),
        _ => Err(UsageError::new(format!("query {action} takes exactly one --key"))),
    };
    let request = match action {
        "ping" => RequestKind::Ping,
        "version" => RequestKind::Version,
        "stats" => RequestKind::Stats,
        "cells" => RequestKind::ListCells,
        "shutdown" => RequestKind::Shutdown,
        "stat" => RequestKind::StatCell { key: one_key()?.to_string() },
        "verify" => RequestKind::VerifyCell { key: one_key()?.to_string() },
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
    let client_config = ClientConfig { connect_timeout: timeout, io_timeout: timeout };
    let mut client = match Client::connect_with(addr, client_config) {
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
                keys.iter().map(|key| (*key).to_string()).collect()
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
    Args::new("version", args).finish(0)?;
    emit(&format!("repro {} ({})", env!("CARGO_PKG_VERSION"), git_describe()));
    emit(&format!("sweep report schema:    {SWEEP_SCHEMA_VERSION}"));
    emit(&format!("adaptive checkpoint:    {ADAPTIVE_SCHEMA_VERSION}"));
    emit(&format!("replay report schema:   {REPLAY_SCHEMA_VERSION}"));
    emit(&format!("trace (.qtr) schema:    {}", qec_trace::TRACE_SCHEMA_VERSION));
    emit(&format!("corpus manifest schema: {}", qec_trace::MANIFEST_SCHEMA_VERSION));
    emit(&format!("serve protocol:         {PROTOCOL_VERSION}"));
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------------
// repro list
// ---------------------------------------------------------------------------------

fn cmd_list(args: &[String]) -> Result<ExitCode, UsageError> {
    Args::new("list", args).finish(0)?;
    emit(&format!("experiments: {}", EXPERIMENTS.join(", ")));
    emit(&format!("policies:    {}", PolicyKind::ALL.map(PolicyKind::label).join(", ")));
    emit(&format!("codes:       {}", CodeFamily::ALL.map(CodeFamily::label).join(", ")));
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
            emit(&policy_table(&results));
            Some(to_json(&results))
        }
        "fig3" => {
            let result = runners::fig3_device_characterization(scale);
            emit(&format!(
                "leaked-CNOT bit-flip probability: {}",
                fmt_float(result.leaked_cnot_bitflip)
            ));
            emit(&format!(
                "leakage population after 40 rounds: with injection {}, without {}",
                fmt_float(*result.accumulation_with_injection.last().unwrap_or(&0.0)),
                fmt_float(*result.accumulation_without_injection.last().unwrap_or(&0.0)),
            ));
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
            emit(&text_table(&["policy", "width", "flagged"], &rows));
            print_patterns(&usage);
            Some(to_json(&(counts, usage)))
        }
        "fig9" => {
            let results = runners::fig9_speculation_accuracy(scale);
            emit(&policy_table(&results));
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
                emit(&format!("suppression factor {policy}: {lambda:?}"));
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
            emit(&text_table(&["d", "policy", "avg DLP", "data LRCs"], &table));
            Some(to_json(&rows))
        }
        "table2" => {
            let results = runners::table2_efficacy(scale);
            emit(&policy_table(&results));
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
            emit(&text_table(&["d", "GLADIATOR LUTs", "ERASER LUTs", "reduction"], &rows));
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
            emit(&text_table(
                &["policy", "lr", "p", "equilibrium DLP", "inaccuracy/round"],
                &table,
            ));
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
            emit(&text_table(&["code", "LRC red.", "DLP red.", "cycle-time red."], &table));
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
            emit(&text_table(&["mobility", "true regime", "accuracy", "estimate"], &table));
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
    emit(&text_table(&["policy", "d", "p", "LER", "LRC/round"], &table));
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
    emit(&text_table(&["code", "policy", "lr", "final DLP", "LRC/round"], &table));
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
    emit(&text_table(&["policy", "pattern", "LRCs (leaked)", "LRCs (healthy)"], &table));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn message<T>(result: Result<T, UsageError>) -> String {
        match result {
            Ok(_) => panic!("expected a usage error"),
            Err(UsageError(message)) => message,
        }
    }

    #[test]
    fn a_flag_never_stands_where_a_value_belongs() {
        let items = argv("--out --no-timing");
        assert_eq!(message(Args::new("sweep", &items).path("--out")), "--out requires a value");
        let items = argv("--no-timing --seed");
        assert_eq!(
            message(Args::new("sweep", &items).number::<u64>("--seed")),
            "--seed requires a value"
        );
        // `-` is a value (stdout), not a flag.
        let items = argv("--out - --no-timing");
        let mut args = Args::new("sweep", &items);
        assert_eq!(args.value("--out").unwrap(), Some("-"));
        assert!(args.switch("--no-timing"));
        assert!(!args.switch("--closed-loop"));
        assert_eq!(args.finish(0).unwrap(), Vec::<&str>::new());
    }

    #[test]
    fn grid_takes_every_following_key_value_token() {
        let items =
            argv("--grid d=3 p=1e-3,2e-3 extra --shots 4 --grid lr=0.1 policy=ideal --seed 2 q=1");
        let mut args = Args::new("sweep", &items);
        let grid = args.grid().unwrap();
        let pairs: Vec<(&str, &str)> = grid.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        assert_eq!(pairs, [("d", "3"), ("p", "1e-3,2e-3"), ("lr", "0.1"), ("policy", "ideal")]);
        assert_eq!(args.number::<usize>("--shots").unwrap(), Some(4));
        assert_eq!(args.number::<u64>("--seed").unwrap(), Some(2));
        // A token without `=` ends the tail, and so does a flag.
        assert_eq!(message(args.finish(0)), "unexpected argument `extra` for `sweep`");
        // The first token after `--grid` is its value, `=` or not.
        let items = argv("--grid d3");
        assert_eq!(
            message(Args::new("sweep", &items).grid()),
            "--grid expects KEY=VALUES, got `d3`"
        );
        let items = argv("--grid --shots 4");
        assert_eq!(message(Args::new("sweep", &items).grid()), "--grid requires a value");
    }

    #[test]
    fn scalar_flags_keep_the_last_value_and_parse_every_occurrence() {
        let items = argv("--shots 4 --seed 1 --shots 9");
        let mut args = Args::new("sweep", &items);
        assert_eq!(args.number::<usize>("--shots").unwrap(), Some(9));
        assert_eq!(args.number::<usize>("--max-shots").unwrap(), None);
        let items = argv("--shots many --shots 5");
        assert_eq!(
            message(Args::new("sweep", &items).number::<usize>("--shots")),
            "--shots: invalid value `many`"
        );
        let items = argv("--replicas 0 --replicas 2");
        assert_eq!(
            message(Args::new("corpus shard", &items).count("--replicas")),
            "--replicas must be at least 1"
        );
        let items = argv("--scale galactic --scale smoke");
        assert!(Args::new("run", &items).parsed("--scale", parse_scale).is_err());
    }

    #[test]
    fn lists_accumulate_across_occurrences_and_commas() {
        let items = argv("--policy eraser+m,ideal --key a --policy gladiator+m --key b");
        let mut args = Args::new("query", &items);
        assert_eq!(
            args.list("--policy", parse_policy_label).unwrap(),
            [PolicyKind::EraserM, PolicyKind::Ideal, PolicyKind::GladiatorM]
        );
        assert_eq!(args.values("--key").unwrap(), ["a", "b"]);
        assert!(args.finish(0).unwrap().is_empty());
        let items = argv("--decoder uf --decoder lookup,bogus");
        assert_eq!(
            message(Args::new("replay", &items).list("--decoder", parse_decoder_label)),
            "unknown decoder `bogus`; known: uf, lookup"
        );
    }

    #[test]
    fn finish_rejects_unread_flags_and_extra_operands() {
        let items = argv("dir --verify");
        let mut args = Args::new("corpus", &items);
        assert!(args.switch("--verify"));
        assert_eq!(args.finish(1).unwrap(), ["dir"]);
        let items = argv("a b");
        assert_eq!(
            message(Args::new("corpus", &items).finish(1)),
            "unexpected argument `b` for `corpus`"
        );
        let items = argv("fig1 --frobnicate fig9");
        assert_eq!(
            message(Args::new("run", &items).finish(usize::MAX)),
            "unknown flag `--frobnicate` for `run`"
        );
        let items = argv("fig1 fig9 fig1");
        assert_eq!(Args::new("run", &items).finish(usize::MAX).unwrap(), ["fig1", "fig9", "fig1"]);
        // A flag read as a switch leaves its would-be value as an operand.
        let items = argv("--verify x y");
        let mut args = Args::new("corpus", &items);
        args.switch("--verify");
        assert_eq!(message(args.finish(1)), "unexpected argument `y` for `corpus`");
    }
}
