//! End-to-end tests of the `repro` binary: strict argument handling (exit 2 on
//! any unknown input), the sweep subcommand's report contract, and worker-count
//! determinism of the report bytes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn repro(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    cmd
}

fn run(args: &[&str]) -> Output {
    repro(args).output().expect("spawn repro")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[track_caller]
fn assert_usage_error(args: &[&str]) {
    let output = run(args);
    assert_eq!(output.status.code(), Some(2), "{args:?} must exit 2");
    let stderr = stderr_of(&output);
    assert!(stderr.contains("usage: repro"), "{args:?} must print usage to stderr: {stderr}");
}

#[test]
fn unknown_inputs_exit_2_with_usage_on_stderr() {
    assert_usage_error(&[]); // no command
    assert_usage_error(&["frobnicate"]); // unknown command
    assert_usage_error(&["run", "--frobnicate"]); // unknown flag
    assert_usage_error(&["run", "fig99"]); // unknown experiment name
    assert_usage_error(&["run", "--scale", "galactic"]); // bad flag value
    assert_usage_error(&["run", "--scale"]); // missing flag value
    assert_usage_error(&["sweep", "--grid", "warp=9"]); // unknown grid key
    assert_usage_error(&["sweep", "--grid", "policy=bogus"]); // unknown policy
    assert_usage_error(&["sweep", "--spec", "/nonexistent/spec.json"]);
    assert_usage_error(&["sweep", "--spec", "x.json", "--grid", "d=3"]); // exclusive
    assert_usage_error(&["sweep", "--spec", "x.json", "--scale", "smoke"]); // scale is grid-only
    assert_usage_error(&["sweep", "--shots", "many"]);
    assert_usage_error(&["sweep", "--out", "--no-timing"]); // flag where a value belongs
    assert_usage_error(&["list", "extra"]);
}

/// There is no `snapshot` command (perfbench is the benchmark): it exits 2 like
/// any unknown command, and `--help` does not list it.
#[test]
fn snapshot_is_an_unknown_command() {
    let output = run(&["snapshot"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr_of(&output);
    assert!(stderr.contains("unknown command `snapshot`"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    let help = run(&["--help"]);
    assert!(!String::from_utf8_lossy(&help.stdout).contains("snapshot"));
}

#[test]
fn help_exits_0_with_usage_on_stdout() {
    let output = run(&["--help"]);
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("usage: repro"));
}

#[test]
fn list_names_every_experiment_policy_and_code_family() {
    let output = run(&["list"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    for needle in ["fig1", "table6", "gladiator+m", "surface", "bpc"] {
        assert!(stdout.contains(needle), "list output missing {needle}: {stdout}");
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("repro-cli-{}-{name}", std::process::id()));
    path
}

fn sweep_json(out: &Path, threads: &str) -> String {
    let output = repro(&[
        "sweep",
        "--scale",
        "smoke",
        "--no-timing",
        "--out",
        out.to_str().expect("utf-8 temp path"),
    ])
    .env("RAYON_NUM_THREADS", threads)
    .output()
    .expect("spawn repro sweep");
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    std::fs::read_to_string(out).expect("sweep report written")
}

#[test]
fn default_sweep_writes_a_twelve_cell_schema_versioned_report() {
    let out = tmp_path("default.json");
    let json = sweep_json(&out, "2");
    let report: qec_experiments::SweepReport = serde_json::from_str(&json).expect("report parses");
    assert_eq!(report.schema_version, qec_experiments::sweep::SWEEP_SCHEMA_VERSION);
    assert_eq!(report.cells.len(), 12, "3 distances x 2 error rates x 2 policies");
    assert!(!report.timing);
    assert!(report.cells.iter().all(|c| c.metrics.logical_error_rate.is_some()));
    let _ = std::fs::remove_file(out);
}

#[test]
fn sweep_reports_are_byte_identical_across_worker_counts() {
    let out1 = tmp_path("t1.json");
    let out4 = tmp_path("t4.json");
    let single = sweep_json(&out1, "1");
    let quad = sweep_json(&out4, "4");
    assert_eq!(single, quad, "seed+shot contract must make worker count invisible");
    let _ = std::fs::remove_file(out1);
    let _ = std::fs::remove_file(out4);
}

#[test]
fn sweep_to_stdout_keeps_stdout_pure_json() {
    let output = run(&["sweep", "--scale", "smoke", "--grid", "d=3", "--no-timing", "--out", "-"]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let report: qec_experiments::SweepReport =
        serde_json::from_str(&stdout).expect("stdout must be nothing but the JSON report");
    assert_eq!(report.cells.len(), 4);
    assert!(stderr_of(&output).contains("LRC/round"), "summary table must move to stderr");
}

#[test]
fn grid_flags_restrict_the_sweep() {
    let out = tmp_path("grid.json");
    let output = run(&[
        "sweep",
        "--scale",
        "smoke",
        "--grid",
        "d=3",
        "p=1e-3",
        "policy=eraser+m,ideal",
        "--no-timing",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let report: qec_experiments::SweepReport =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(report.cells.len(), 2);
    assert!(report.cells.iter().all(|c| c.scenario.distance == 3));
    let _ = std::fs::remove_file(out);
}

// ---------------------------------------------------------------------------------
// trace corpora: record | replay | corpus | sweep --corpus | version
// ---------------------------------------------------------------------------------

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn version_prints_provenance_and_every_schema_version() {
    for invocation in [&["--version"][..], &["-V"], &["version"]] {
        let output = run(invocation);
        assert_eq!(output.status.code(), Some(0), "{invocation:?}");
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(stdout.starts_with("repro 0.1.0 ("), "{invocation:?}: {stdout}");
        assert!(
            stdout.contains(&format!(
                "sweep report schema:    {}",
                qec_experiments::sweep::SWEEP_SCHEMA_VERSION
            )),
            "{stdout}"
        );
        assert!(
            stdout
                .contains(&format!("trace (.qtr) schema:    {}", qec_trace::TRACE_SCHEMA_VERSION)),
            "{stdout}"
        );
        assert!(
            stdout.contains(&format!(
                "corpus manifest schema: {}",
                qec_trace::MANIFEST_SCHEMA_VERSION
            )),
            "{stdout}"
        );
        assert!(
            stdout.contains(&format!(
                "replay report schema:   {}",
                qec_experiments::replay::REPLAY_SCHEMA_VERSION
            )),
            "{stdout}"
        );
    }
}

#[test]
fn trace_subcommands_reject_bad_usage() {
    assert_usage_error(&["version", "extra"]);
    assert_usage_error(&["record"]); // missing --corpus
    assert_usage_error(&["record", "--corpus"]); // missing value
    assert_usage_error(&["record", "--corpus", "dir", "--frobnicate"]);
    assert_usage_error(&["replay"]); // missing --corpus
    assert_usage_error(&["replay", "--corpus", "dir", "--policy", "bogus"]);
    assert_usage_error(&["corpus"]); // missing directory
    assert_usage_error(&["corpus", "a", "b"]);
    assert_usage_error(&["sweep", "--record-policy", "ideal"]); // requires --corpus

    // Decoder selection: unknown labels and unsupported pairings exit 2.
    assert_usage_error(&["sweep", "--decoder", "mwpm"]); // unknown decoder
    assert_usage_error(&["sweep", "--grid", "decoder=mwpm"]); // unknown, via grid
    assert_usage_error(&["sweep", "--grid", "d=5", "decoder=lookup"]); // lookup is d=3 only
    assert_usage_error(&["replay", "--corpus", "dir", "--decoder", "bogus"]);
    assert_usage_error(&["query", "--addr", "x", "eval", "--decoder", "mwpm"]);
    assert_usage_error(&["query", "--addr", "x", "ping", "--decoder", "uf"]); // eval-only flag
}

/// The usage errors of `route` and `corpus shard` (which no other test runs
/// through the binary) and of unread `replay`/`sweep` arguments: each exits 2
/// with its message and the usage text on stderr.
#[test]
fn route_shard_replay_and_sweep_usage_errors() {
    let shard = ["corpus", "shard", "src", "--out", "o"];
    let huge = "6148914691236517206"; // times 3 wraps to 2 in u64 arithmetic
    let overflow = "rounds_per_distance 6148914691236517206 times distance 3 overflows";
    let sweep = ["sweep", "--grid", "d=3", "p=1e-3", "lr=0.1", "policy=gladiator+m"];
    let record = ["record", "--grid", "d=3", "p=1e-3", "policy=gladiator+m", "--corpus", "c"];
    let cases: [(&[&str], &str); 18] = [
        (&["route"], "route requires --cluster FILE"),
        (&["route", "--cluster"], "--cluster requires a value"),
        (&["route", "--cluster", "c", "--replica-addr", "0"], "expected INDEX=HOST:PORT"),
        (&["route", "--cluster", "c", "--max-connections", "0"], "must be at least 1"),
        (&["route", "--cluster", "c", "--timeout-ms", "x"], "--timeout-ms: invalid value `x`"),
        (&["route", "--cluster", "c", "--frobnicate"], "unknown flag `--frobnicate` for `route`"),
        (&["corpus", "shard", "--out", "o", "--replicas", "2"], "requires a source directory"),
        (&["corpus", "shard", "src", "--replicas", "2"], "corpus shard requires --out DIR"),
        (&[&shard[..], &["--replicas", "0"]].concat(), "--replicas must be at least 1"),
        (&[&shard[..], &["--replicas", "2", "--replica-addr", "a:1"]].concat(), "1 time(s)"),
        (&[&shard[..], &["--replicas", "2", "other"]].concat(), "unexpected argument `other`"),
        (&[&shard[..], &["--replicas", "2", "--frobnicate"]].concat(), "unknown flag"),
        (&["replay", "--corpus", "c", "--frobnicate"], "unknown flag `--frobnicate` for `replay`"),
        (&["sweep", "--frobnicate"], "unknown flag `--frobnicate` for `sweep`"),
        (&["sweep", "--grid", "d=3", "extra"], "unexpected argument `extra` for `sweep`"),
        (&["sweep", "--shots", "many", "--shots", "5"], "--shots: invalid value `many`"),
        (
            &[&sweep[..], &["--rounds-per-distance", huge, "--no-decode", "--out", "-"]].concat(),
            overflow,
        ),
        (&[&record[..], &["--shots", "2", "--rounds-per-distance", huge]].concat(), overflow),
    ];
    for (args, message) in cases {
        assert_usage_error(args);
        let stderr = stderr_of(&run(args));
        assert!(stderr.starts_with("repro: ") && stderr.contains(message), "{args:?}: {stderr}");
    }
}

/// Sharding a one-cell corpus across two replicas is a mistake in the
/// arguments, not a corrupt corpus: exit 1 with one line naming the replica
/// that would own no cells.
#[test]
fn sharding_more_replicas_than_cells_names_the_empty_replica() {
    let dir = tmp_dir("shard-one-cell");
    let corpus = dir.join("corpus");
    let output = run(&record_args(corpus.to_str().unwrap()));
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let out = dir.join("sharded");
    let output = run(&[
        "corpus",
        "shard",
        corpus.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--replicas",
        "2",
    ]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(stderr.starts_with("repro corpus shard: replica "), "{stderr}");
    assert!(stderr.contains(" would own no cells (1 cell(s) across 2 replica(s))"), "{stderr}");
    assert!(!stderr.contains("corrupt"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The unknown-decoder usage error names the known labels, so the exit-2 is
/// actionable without opening the docs.
#[test]
fn unknown_decoder_errors_name_the_known_labels() {
    let output = run(&["replay", "--corpus", "dir", "--decoder", "bogus"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = stderr_of(&output);
    assert!(stderr.contains("unknown decoder `bogus`"), "{stderr}");
    assert!(stderr.contains("uf, lookup"), "{stderr}");
}

fn record_args(corpus: &str) -> Vec<&str> {
    vec![
        "record",
        "--grid",
        "d=3",
        "p=1e-3",
        "policy=eraser+m,gladiator+m",
        "--shots",
        "4",
        "--rounds-per-distance",
        "2",
        "--seed",
        "7",
        "--corpus",
        corpus,
    ]
}

#[test]
fn record_replay_corpus_flow_verifies_against_the_live_engine() {
    let dir = tmp_dir("flow");
    let corpus = dir.to_str().unwrap();
    // Record: two policies collapse onto one policy-free cell.
    let output = run(&record_args(corpus));
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(stdout.contains("1 cell(s) recorded with policy eraser+m"), "{stdout}");

    // Re-recording is a cache hit, not a new simulation.
    let rerun = run(&record_args(corpus));
    let stdout = String::from_utf8_lossy(&rerun.stdout).into_owned();
    assert!(stdout.contains("0 cell(s) recorded"), "{stdout}");
    assert!(stdout.contains("1 cached"), "{stdout}");

    // Replay with live verification: bit-for-bit or exit 1.
    let out = dir.join("replay.json");
    let output = run(&[
        "replay",
        "--corpus",
        corpus,
        "--policy",
        "eraser+m,gladiator+m",
        "--decode",
        "--verify-live",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let report: qec_experiments::ReplayReport =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(report.results.len(), 2);
    assert!(report.results[0].exact);
    assert_eq!(report.results[0].live_match, Some(true));
    assert!(!report.results[1].exact, "gladiator+m replays an eraser+m trace open-loop");

    // Corpus verification decodes every trace with CRC checking.
    let output = run(&["corpus", corpus, "--verify"]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(stdout.contains("corpus verify OK"), "{stdout}");

    // A flipped byte inside the shard file makes both verify paths fail.
    let shard = report_shard_file(&dir);
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&shard, &bytes).unwrap();
    let output = run(&["corpus", corpus, "--verify"]);
    assert_eq!(output.status.code(), Some(1), "corrupt trace must fail the verify gate");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard whose header carries an invalid noise model fails `corpus --verify`
/// with every CRC intact: replay and serve would calibrate policies from it.
#[test]
fn an_invalid_header_noise_model_fails_corpus_verify() {
    let dir = tmp_dir("bad-noise");
    let corpus = dir.to_str().unwrap();
    let output = run(&record_args(corpus));
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let shard = report_shard_file(&dir);
    let (mut header, shots) = qec_trace::read_trace_file(&shard).unwrap();
    header.noise.p = 2.0;
    qec_trace::write_trace_file(&shard, &header, &shots).unwrap();
    let output = run(&["corpus", corpus, "--verify"]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(stderr.contains("noise model: p = 2 is not a probability"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records a 2-shot, 3-round gladiator+m cell into `dir`, then rewrites its
/// shard header and manifest entry through `corrupt` with every CRC intact.
fn record_then_corrupt_counts(dir: &Path, corrupt: impl Fn(&mut usize, &mut usize)) {
    let corpus = dir.to_str().unwrap();
    let output = run(&[
        "record",
        "--grid",
        "d=3",
        "p=1e-3",
        "policy=gladiator+m",
        "--shots",
        "2",
        "--rounds-per-distance",
        "1",
        "--corpus",
        corpus,
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let shard = report_shard_file(dir);
    let (mut header, mut shots) = qec_trace::read_trace_file(&shard).unwrap();
    corrupt(&mut header.shots, &mut header.rounds);
    shots.truncate(header.shots);
    qec_trace::write_trace_file(&shard, &header, &shots).unwrap();
    let mut manifest = qec_trace::Corpus::open(dir).unwrap();
    let mut entry = manifest.entries()[0].clone();
    corrupt(&mut entry.shots, &mut entry.rounds);
    manifest.insert(entry);
    manifest.save().unwrap();
}

/// A shard and manifest entry declaring 2^40 shots over two real ones fail
/// `corpus --verify` naming the count, instead of sizing the shot vector
/// from the header (an allocation failure aborts the process).
#[test]
fn a_huge_declared_shot_count_fails_corpus_verify() {
    let dir = tmp_dir("huge-shots");
    record_then_corrupt_counts(&dir, |shots, _| *shots = 1 << 40);
    let output = run(&["corpus", dir.to_str().unwrap(), "--verify"]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(stderr.contains("trace holds 2 shots, header says 1099511627776"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cell of zero shots and 2^40 rounds is corrupt: no recorder writes an
/// empty cell, and replay would size its per-round state from the count.
#[test]
fn a_zero_shot_cell_fails_corpus_verify() {
    let dir = tmp_dir("zero-shots");
    record_then_corrupt_counts(&dir, |shots, rounds| (*shots, *rounds) = (0, 1 << 40));
    let output = run(&["corpus", dir.to_str().unwrap(), "--verify"]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(stderr.contains("trace header declares 0 shots"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records a d=3 cell at p = 1e-3 and one at p = 2e-3 into `dir`, then edits
/// the p = 1e-3 manifest entry through `tamper`, leaving every shard intact.
fn record_then_tamper_manifest(dir: &Path, tamper: impl Fn(&mut qec_trace::CorpusEntry, &str)) {
    let corpus = dir.to_str().unwrap();
    let output = run(&[
        "record",
        "--grid",
        "d=3",
        "p=1e-3,2e-3",
        "policy=gladiator+m",
        "--shots",
        "2",
        "--rounds-per-distance",
        "1",
        "--corpus",
        corpus,
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let mut manifest = qec_trace::Corpus::open(dir).unwrap();
    let other = manifest.entries().iter().find(|e| e.p == 2e-3).unwrap().file.clone();
    let mut entry = manifest.entries().iter().find(|e| e.p == 1e-3).unwrap().clone();
    tamper(&mut entry, &other);
    manifest.insert(entry);
    manifest.save().unwrap();
}

/// Runs `repro`, failing the test if it is still running after `deadline`.
fn run_within(args: &[&str], deadline: Duration) -> Output {
    let mut child =
        repro(args).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().expect("spawn repro");
    let start = Instant::now();
    while child.try_wait().expect("poll repro").is_none() {
        if start.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?} still running after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect repro output")
}

/// Runs `replay` and a `sweep --corpus` over the grid of
/// [`record_then_tamper_manifest`] against a corpus whose p = 1e-3 cell fails
/// to load: each is a runtime error, one `repro <command>:` line naming
/// `expected` and exit 1, with no usage text.
#[track_caller]
fn assert_corpus_load_failure(dir: &Path, expected: &str) {
    let corpus = dir.to_str().unwrap();
    let out = dir.join("sweep.json");
    let sweep = [
        "sweep",
        "--grid",
        "d=3",
        "p=1e-3,2e-3",
        "policy=gladiator+m",
        "--shots",
        "2",
        "--rounds-per-distance",
        "1",
        "--no-timing",
        "--corpus",
        corpus,
        "--out",
        out.to_str().unwrap(),
    ];
    for (command, args) in [("replay", &["replay", "--corpus", corpus][..]), ("sweep", &sweep)] {
        let output = run_within(args, Duration::from_secs(120));
        let stderr = stderr_of(&output);
        assert_eq!(output.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.starts_with(&format!("repro {command}: ")), "{stderr}");
        assert!(stderr.contains(expected), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
    assert!(!out.exists(), "a failed sweep writes no report");
}

/// A shard with a flipped payload byte fails `replay` and `sweep --corpus`
/// as it fails `corpus --verify`: a runtime error naming the CRC mismatch.
#[test]
fn replay_and_corpus_sweep_exit_1_on_a_corrupt_shard() {
    let dir = tmp_dir("load-corrupt-shard");
    record_then_tamper_manifest(&dir, |_, _| {});
    let corpus = qec_trace::Corpus::open(&dir).unwrap();
    let entry = corpus.entries().iter().find(|e| e.p == 1e-3).unwrap();
    let shard = corpus.trace_path(entry);
    // The last payload byte of the last shot block: it sits before that
    // block's 4-byte CRC and the 7-byte end block.
    let mut bytes = std::fs::read(&shard).unwrap();
    let last_shot_byte = bytes.len() - 12;
    bytes[last_shot_byte] ^= 0x01;
    std::fs::write(&shard, &bytes).unwrap();
    assert_corpus_load_failure(&dir, "CRC mismatch in block 0x02");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest entry claiming an even surface distance fails `corpus --verify`,
/// `replay` and `sweep --corpus` naming the distance, instead of panicking in
/// the code constructor.
#[test]
fn a_manifest_distance_no_code_admits_fails_corpus_verify() {
    let dir = tmp_dir("distance-4");
    record_then_tamper_manifest(&dir, |entry, _| entry.distance = 4);
    let output = run(&["corpus", dir.to_str().unwrap(), "--verify"]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(stderr.contains("manifest says distance=4: surface does not admit size 4"), "{stderr}");
    assert_corpus_load_failure(&dir, "manifest says distance=4: surface does not admit size 4");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest entry claiming d=1001 for a d=3 shard is refused from the shard
/// header, before the d=1001 code is built (which would take minutes), by
/// `corpus --verify`, `replay` and `sweep --corpus` alike.
#[test]
fn a_manifest_distance_the_shard_does_not_hold_fails_corpus_verify_promptly() {
    let dir = tmp_dir("distance-1001");
    record_then_tamper_manifest(&dir, |entry, _| entry.distance = 1001);
    let output =
        run_within(&["corpus", dir.to_str().unwrap(), "--verify"], Duration::from_secs(120));
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr_of(&output));
    let stderr = stderr_of(&output);
    let expected = "distance=1001, whose code surface-d1001 does not match";
    assert!(stderr.contains(expected), "{stderr}");
    assert_corpus_load_failure(&dir, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest entry whose file points at another cell's shard fails
/// `corpus --verify`, `replay` and `sweep --corpus` naming the error rate the
/// shard was recorded with.
#[test]
fn a_manifest_entry_pointing_at_another_cells_shard_fails_corpus_verify() {
    let dir = tmp_dir("swapped-shard");
    record_then_tamper_manifest(&dir, |entry, other| {
        entry.file = other.to_string();
        entry.hash = other.rsplit('/').next().unwrap().trim_end_matches(".qtr").to_string();
    });
    let output = run(&["corpus", dir.to_str().unwrap(), "--verify"]);
    assert_eq!(output.status.code(), Some(1), "stderr: {}", stderr_of(&output));
    let stderr = stderr_of(&output);
    let expected = "manifest says p=0.001, but the trace file was recorded with p=0.002";
    assert!(stderr.contains(expected), "{stderr}");
    assert_corpus_load_failure(&dir, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cross-decoder session from the README, end to end: one recording
/// replayed under both backends, every row live-verified bit-for-bit
/// (`--decoder` implies `--decode`), rows labeled decoder-major, and the
/// summary growing a decoder column.
#[test]
fn cross_decoder_replay_verifies_both_backends_and_labels_rows() {
    let dir = tmp_dir("xdec");
    let corpus = dir.to_str().unwrap();
    let output = run(&record_args(corpus));
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));

    let out = dir.join("replay.json");
    let output = run(&[
        "replay",
        "--corpus",
        corpus,
        "--policy",
        "eraser+m,gladiator+m",
        "--decoder",
        "uf,lookup",
        "--closed-loop",
        "--verify-live",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(stdout.contains("decoder"), "summary must grow a decoder column: {stdout}");
    assert!(stdout.contains("lookup"), "{stdout}");

    let report: qec_experiments::ReplayReport =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(report.results.len(), 4, "2 policies x 2 decoders");
    let decoders: Vec<_> = report.results.iter().map(|r| r.decoder.as_deref()).collect();
    assert_eq!(decoders, [Some("uf"), Some("uf"), Some("lookup"), Some("lookup")]);
    for row in &report.results {
        assert_eq!(row.live_match, Some(true), "{} {:?}", row.policy, row.decoder);
        assert!(row.metrics.logical_error_rate.is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Decoding with no decoder selected means union-find, which cannot decode
/// the color code: a decoded color sweep and a decoding replay of a color
/// corpus exit 2 with the backend's reason instead of panicking. Recording
/// never decodes, so the color corpus records (with or without a decoder
/// axis) and the lookup table replays it.
#[test]
fn the_implied_union_find_decoder_is_validated_like_a_selected_one() {
    let output = run(&["sweep", "--grid", "code=color", "d=3", "--shots", "4", "--out", "-"]);
    assert_eq!(output.status.code(), Some(2), "stderr: {}", stderr_of(&output));
    assert!(stderr_of(&output).contains("needs a matchable code"), "{}", stderr_of(&output));

    let dir = tmp_dir("color");
    let corpus = dir.to_str().unwrap();
    let record = |extra: &str| {
        run(&["record", "--grid", "code=color", "d=3", extra, "--shots", "4", "--corpus", corpus])
    };
    for extra in ["p=1e-3", "decoder=lookup"] {
        let output = record(extra);
        assert_eq!(output.status.code(), Some(0), "{extra}: {}", stderr_of(&output));
    }
    let output = run(&["replay", "--corpus", corpus, "--closed-loop", "--decode"]);
    assert_eq!(output.status.code(), Some(2), "stderr: {}", stderr_of(&output));
    assert!(stderr_of(&output).contains("needs a matchable code"), "{}", stderr_of(&output));
    let output = run(&["replay", "--corpus", corpus, "--closed-loop", "--decoder", "lookup"]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An `--out` path that cannot be written (here an existing directory) is a
/// runtime error: one line naming the path, exit 1, no panic.
#[test]
fn an_unwritable_out_path_exits_1_with_a_one_line_error() {
    let dir = tmp_dir("unwritable-out");
    let corpus = dir.join("corpus");
    let output = run(&record_args(corpus.to_str().unwrap()));
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let out = dir.to_str().unwrap();
    for args in [
        &["sweep", "--grid", "d=3", "--shots", "2", "--no-timing", "--out", out][..],
        &["replay", "--corpus", corpus.to_str().unwrap(), "--out", out],
    ] {
        let output = run(args);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {}", stderr_of(&output));
        let stderr = stderr_of(&output);
        assert!(stderr.starts_with(&format!("repro: cannot write {out}: ")), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that stops early (`repro run | head -1`) closes `run`'s stdout:
/// the tables are dropped, but `run` neither panics nor stops before writing
/// every report, and exits 0.
#[test]
fn run_with_a_closed_stdout_exits_0_and_writes_every_report() {
    let dir = tmp_dir("run-closed-stdout");
    let out = dir.to_str().unwrap();
    let mut child = repro(&["run", "--scale", "smoke", "--out", out, "fig1", "fig3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro run");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for repro run");
    let stderr = stderr_of(&output);
    assert_eq!(output.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    for name in ["fig1", "fig3"] {
        assert!(dir.join(format!("{name}.json")).is_file(), "{name}.json not written");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn report_shard_file(dir: &Path) -> PathBuf {
    let shards = dir.join("shards");
    let sub = std::fs::read_dir(&shards).unwrap().next().unwrap().unwrap().path();
    std::fs::read_dir(sub).unwrap().next().unwrap().unwrap().path()
}

fn corpus_sweep(corpus: &str, out: &Path, threads: &str) -> String {
    let output = repro(&[
        "sweep",
        "--grid",
        "d=3",
        "p=1e-3,2e-3",
        "policy=eraser+m,gladiator+m,ideal",
        "--shots",
        "3",
        "--rounds-per-distance",
        "2",
        "--seed",
        "13",
        "--no-timing",
        "--corpus",
        corpus,
        "--out",
        out.to_str().unwrap(),
    ])
    .env("RAYON_NUM_THREADS", threads)
    .output()
    .expect("spawn repro sweep --corpus");
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    std::fs::read_to_string(out).expect("corpus sweep report written")
}

#[test]
fn corpus_sweeps_are_byte_identical_across_worker_counts_including_trace_files() {
    let dir1 = tmp_dir("cs1");
    let dir4 = tmp_dir("cs4");
    let out1 = dir1.join("report.json");
    let out4 = dir4.join("report.json");
    let report1 = corpus_sweep(dir1.to_str().unwrap(), &out1, "1");
    let report4 = corpus_sweep(dir4.to_str().unwrap(), &out4, "4");
    assert_eq!(report1, report4, "corpus sweep reports must not depend on worker count");
    let report: qec_experiments::SweepReport = serde_json::from_str(&report1).unwrap();
    assert_eq!(report.recorded_policy.as_deref(), Some("eraser+m"));
    assert_eq!(report.cells.len(), 6);
    // The recorded .qtr bytes themselves are worker-count invariant.
    let shard1 = report_shard_file(&dir1);
    let shard4 = dir4.join(shard1.strip_prefix(&dir1).unwrap());
    assert_eq!(
        std::fs::read(&shard1).unwrap(),
        std::fs::read(&shard4).unwrap(),
        "trace bytes must be identical under 1 vs 4 workers"
    );
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

#[test]
fn closed_loop_replay_flow_verifies_every_policy_and_reports_profiles() {
    let dir = tmp_dir("closed-loop");
    let corpus = dir.to_str().unwrap();
    let output = run(&record_args(corpus));
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));

    // Closed-loop + verify-live is the exact-counterfactual gate: every
    // policy (not just the recording one) must match live simulation.
    let out = dir.join("closed.json");
    let output = run(&[
        "replay",
        "--corpus",
        corpus,
        "--policy",
        "eraser+m,gladiator+m,always-lrc",
        "--decode",
        "--closed-loop",
        "--verify-live",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(stdout.contains("replay mode: closed-loop"), "{stdout}");
    assert!(stdout.contains("verify-live OK: 3 closed-loop replay(s)"), "{stdout}");
    let report: qec_experiments::ReplayReport =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(report.replay_mode, "closed-loop");
    assert_eq!(report.results.len(), 3);
    for row in &report.results {
        assert_eq!(row.live_match, Some(true), "{} must verify live", row.policy);
        assert!(row.metrics.logical_error_rate.is_some(), "{} must decode", row.policy);
        assert!(row.divergence_profile.is_some(), "{} must carry a profile", row.policy);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_loop_corpus_sweep_carries_mode_and_profiles() {
    let dir = tmp_dir("cl-sweep");
    let out = dir.join("report.json");
    let output = run(&[
        "sweep",
        "--grid",
        "d=3",
        "p=1e-3",
        "policy=eraser+m,ideal",
        "--shots",
        "3",
        "--rounds-per-distance",
        "2",
        "--seed",
        "13",
        "--no-timing",
        "--corpus",
        dir.to_str().unwrap(),
        "--closed-loop",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let report: qec_experiments::SweepReport =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(report.replay_mode.as_deref(), Some("closed-loop"));
    assert!(report.cells.iter().all(|c| c.divergence_profile.is_some()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_loop_flags_reject_bad_usage() {
    assert_usage_error(&["sweep", "--closed-loop"]); // requires --corpus
    assert_usage_error(&["record", "--corpus", "dir", "--closed-loop"]); // replay-side flag
}

#[test]
fn read_only_corpus_commands_reject_a_missing_directory() {
    // A mistyped corpus path must not pass verification vacuously.
    assert_usage_error(&["corpus", "/nonexistent-corpus-dir"]);
    assert_usage_error(&["replay", "--corpus", "/nonexistent-corpus-dir", "--verify-live"]);
}

#[test]
fn replay_to_stdout_keeps_stdout_pure_json_even_with_verify_live() {
    let dir = tmp_dir("pure-json");
    let output = run(&record_args(dir.to_str().unwrap()));
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let output = run(&["replay", "--corpus", dir.to_str().unwrap(), "--verify-live", "--out", "-"]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let report: qec_experiments::ReplayReport =
        serde_json::from_str(&stdout).expect("stdout must be nothing but the JSON report");
    assert_eq!(report.results.len(), 1);
    assert!(stderr_of(&output).contains("verify-live OK"), "status line must go to stderr");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------------
// adaptive sweeps: flag discipline + binary-level pause/resume oracle
// ---------------------------------------------------------------------------------

#[test]
fn adaptive_flags_reject_bad_usage() {
    assert_usage_error(&["sweep", "--adaptive"]); // requires --checkpoint
    assert_usage_error(&["sweep", "--adaptive", "--checkpoint", "d"]); // requires --target-ci
    assert_usage_error(&["sweep", "--target-ci", "0.1"]); // requires --adaptive
    assert_usage_error(&["sweep", "--max-shots", "100"]); // requires --adaptive
    assert_usage_error(&["sweep", "--checkpoint", "d"]); // requires --adaptive
    assert_usage_error(&["sweep", "--stop-after-rounds", "1"]); // requires --adaptive
    assert_usage_error(&["sweep", "--adaptive", "--target-ci", "nope", "--checkpoint", "d"]);
    // --adaptive runs live: closed-loop replay cannot combine with it.
    assert_usage_error(&[
        "sweep",
        "--adaptive",
        "--target-ci",
        "0.1",
        "--checkpoint",
        "d",
        "--corpus",
        "c",
        "--closed-loop",
    ]);
    // --resume takes its whole spec from the checkpoint.
    assert_usage_error(&["sweep", "--resume", "d", "--grid", "d=3"]);
    assert_usage_error(&["sweep", "--resume", "d", "--adaptive"]);
    assert_usage_error(&["sweep", "--resume", "d", "--target-ci", "0.1"]);
    assert_usage_error(&["sweep", "--resume", "d", "--shots", "5"]);
    // Resuming a directory that holds no checkpoint is an error, not a
    // silent fresh start.
    assert_usage_error(&["sweep", "--resume", "/nonexistent-checkpoint-dir"]);

    // --confidence and --initial-batch are adaptive-only too: a fixed-shot
    // sweep has no use for them, and a resumed one reads them from its
    // checkpoint. The resume lines need a real checkpoint to get that far.
    let dir = tmp_dir("adaptive-only-flags");
    let ckpt = dir.to_str().unwrap();
    let output = run(&[
        "sweep",
        "--grid",
        "d=3",
        "p=1e-3",
        "policy=eraser+m",
        "--shots",
        "400",
        "--no-decode",
        "--adaptive",
        "--target-ci",
        "0.1",
        "--initial-batch",
        "2",
        "--checkpoint",
        ckpt,
        "--stop-after-rounds",
        "1",
        "--out",
        "-",
    ]);
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    assert_usage_error(&[
        "sweep",
        "--grid",
        "d=3",
        "--shots",
        "4",
        "--confidence",
        "0.5",
        "--out",
        "-",
    ]);
    assert_usage_error(&[
        "sweep",
        "--grid",
        "d=3",
        "--shots",
        "4",
        "--initial-batch",
        "7",
        "--out",
        "-",
    ]);
    assert_usage_error(&["sweep", "--resume", ckpt, "--confidence", "0.99", "--out", "-"]);
    assert_usage_error(&["sweep", "--resume", ckpt, "--initial-batch", "3", "--out", "-"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paused_and_resumed_adaptive_sweep_reproduces_the_uninterrupted_bytes() {
    let base_out = tmp_path("adaptive-base.json");
    let base_ckpt = tmp_dir("adaptive-base-ckpt");
    let adaptive_args = |ckpt: &str, out: &str, extra: &[&str]| -> Vec<String> {
        let mut args: Vec<String> = [
            "sweep",
            "--grid",
            "d=3",
            "p=1e-3",
            "policy=eraser+m",
            "--shots",
            "12",
            "--seed",
            "23",
            "--no-decode",
            "--adaptive",
            "--target-ci",
            "1e-9",
            "--initial-batch",
            "2",
            "--checkpoint",
            ckpt,
            "--out",
            out,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        args.extend(extra.iter().map(ToString::to_string));
        args
    };
    fn as_strs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }

    // The uninterrupted baseline. An unreachable target rides the two-shot
    // initial batch through several doubling rounds to the 12-shot ceiling.
    let args = adaptive_args(base_ckpt.to_str().unwrap(), base_out.to_str().unwrap(), &[]);
    let output = run(&as_strs(&args));
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    let console = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(console.contains("at ceiling"), "provenance line must reach the console: {console}");
    let baseline = std::fs::read(&base_out).unwrap();

    // Pause after one round (exit 0, no report yet), then resume one round
    // at a time until the run completes: the report must be byte-identical.
    let out = tmp_path("adaptive-resumed.json");
    let ckpt = tmp_dir("adaptive-ckpt");
    let args =
        adaptive_args(ckpt.to_str().unwrap(), out.to_str().unwrap(), &["--stop-after-rounds", "1"]);
    let output = run(&as_strs(&args));
    assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    assert!(
        String::from_utf8_lossy(&output.stdout).contains("paused"),
        "stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    assert!(!out.exists(), "a paused run must not write a report");

    let mut sessions = 0;
    while !out.exists() {
        sessions += 1;
        assert!(sessions < 32, "resume loop did not converge");
        let output = run(&[
            "sweep",
            "--resume",
            ckpt.to_str().unwrap(),
            "--stop-after-rounds",
            "1",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert_eq!(output.status.code(), Some(0), "stderr: {}", stderr_of(&output));
    }
    assert!(sessions >= 2, "the run must have spanned several sessions, got {sessions}");
    assert_eq!(
        std::fs::read(&out).unwrap(),
        baseline,
        "resumed report must be byte-identical to the uninterrupted run"
    );

    // A second fresh run into the used checkpoint directory is refused.
    let args = adaptive_args(ckpt.to_str().unwrap(), out.to_str().unwrap(), &[]);
    let output = run(&as_strs(&args));
    assert_eq!(output.status.code(), Some(2), "stderr: {}", stderr_of(&output));

    let _ = std::fs::remove_file(&base_out);
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir_all(&base_ckpt);
    let _ = std::fs::remove_dir_all(&ckpt);
}
