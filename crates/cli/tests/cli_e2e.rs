//! End-to-end flows through the real `localwm` binary: generate → embed →
//! detect on disk, the typed no-incomparable-pairs diagnostic, and a full
//! serve/request round trip over a loopback socket.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

fn localwm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_localwm"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("localwm-cli-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn localwm");
    assert!(
        out.status.success(),
        "command failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn gen_embed_detect_round_trips_on_disk() {
    let dir = tmp_dir("flow");
    let design = dir.join("iir4.cdfg");
    let schedule = dir.join("schedule.txt");

    run_ok(localwm().args(["gen", "iir4", "-o", design.to_str().unwrap()]));
    let out = run_ok(localwm().args([
        "embed",
        design.to_str().unwrap(),
        "--author",
        "cli-e2e",
        "-o",
        schedule.to_str().unwrap(),
    ]));
    assert!(out.contains("embedded"), "embed reports its edges: {out}");
    let out = run_ok(localwm().args([
        "detect",
        design.to_str().unwrap(),
        schedule.to_str().unwrap(),
        "--author",
        "cli-e2e",
    ]));
    assert!(
        out.contains("MATCH"),
        "detect confirms the watermark: {out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serial_designs_get_the_typed_no_incomparable_pairs_diagnostic() {
    let dir = tmp_dir("serial");
    let design = dir.join("linear-ge.cdfg");
    run_ok(localwm().args(["gen", "linear-ge", "-o", design.to_str().unwrap()]));
    let out = localwm()
        .args(["embed", design.to_str().unwrap(), "--author", "cli-e2e"])
        .output()
        .expect("spawn localwm");
    assert!(!out.status.success(), "embed on a serial design fails");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no incomparable slack pairs"),
        "typed diagnostic names the failure: {stderr}"
    );
    assert!(
        stderr.contains("template watermark"),
        "diagnostic suggests the fallback scheme: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

struct ServerProc {
    child: Child,
    addr: String,
    // Keeps the stdout pipe open so the server's shutdown message doesn't
    // hit a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_server(metrics_out: Option<&Path>) -> ServerProc {
    let mut cmd = localwm();
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"]);
    if let Some(path) = metrics_out {
        cmd.args(["--metrics-out", path.to_str().unwrap()]);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn localwm serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read listen line");
    let addr = first
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on listen line")
        .to_owned();
    ServerProc {
        child,
        addr,
        _stdout: reader,
    }
}

#[test]
fn serve_and_request_round_trip_over_the_wire() {
    let dir = tmp_dir("serve");
    let design = dir.join("iir4.cdfg");
    let schedule = dir.join("schedule.txt");
    let metrics = dir.join("metrics.json");
    run_ok(localwm().args(["gen", "iir4", "-o", design.to_str().unwrap()]));

    let mut server = spawn_server(Some(&metrics));
    let addr = server.addr.clone();

    let out = run_ok(localwm().args([
        "request",
        "embed",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
        "--author",
        "cli-e2e",
        "--schedule-out",
        schedule.to_str().unwrap(),
    ]));
    assert!(out.contains("\"ok\": true"), "embed succeeded: {out}");
    assert!(schedule.exists(), "--schedule-out wrote the schedule");

    let out = run_ok(localwm().args([
        "request",
        "detect",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
        "--author",
        "cli-e2e",
        "--schedule",
        schedule.to_str().unwrap(),
    ]));
    assert!(out.contains("\"match\": true"), "detect matched: {out}");

    let out = run_ok(localwm().args(["request", "stats", "--addr", &addr]));
    assert!(
        out.contains("\"cache\""),
        "stats exposes cache counters: {out}"
    );

    let out = run_ok(localwm().args(["request", "shutdown", "--addr", &addr]));
    assert!(
        out.contains("\"drained_jobs\""),
        "shutdown reports drain: {out}"
    );

    let status = server.child.wait().expect("server exit");
    assert!(status.success(), "server exits cleanly after shutdown");
    let dumped = std::fs::read_to_string(&metrics).expect("metrics dump exists");
    assert!(dumped.contains("\"requests\""), "metrics dump has counters");
    std::fs::remove_dir_all(&dir).ok();
}

fn spawn_gateway(backends: &str) -> ServerProc {
    let mut child = localwm()
        .args([
            "gateway",
            "--backends",
            backends,
            "--addr",
            "127.0.0.1:0",
            "--health-interval-ms",
            "off",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn localwm gateway");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read listen line");
    assert!(
        first.starts_with("localwm-gateway routing"),
        "gateway announces its fleet: {first}"
    );
    let addr = first
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on listen line")
        .to_owned();
    ServerProc {
        child,
        addr,
        _stdout: reader,
    }
}

/// The full cluster quickstart through real processes: two backends, one
/// gateway, keep-alive `--repeat` requests routed through it, fleet-wide
/// `cluster_stats`, and a gateway drain that leaves the backends running.
#[test]
fn gateway_routes_requests_and_aggregates_cluster_stats() {
    let dir = tmp_dir("gateway");
    let design = dir.join("iir4.cdfg");
    run_ok(localwm().args(["gen", "iir4", "-o", design.to_str().unwrap()]));

    let mut b0 = spawn_server(None);
    let mut b1 = spawn_server(None);
    let backends = format!("b0={},b1={}", b0.addr, b1.addr);
    let mut gw = spawn_gateway(&backends);
    let addr = gw.addr.clone();

    let out = run_ok(localwm().args([
        "request",
        "timing",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
        "--repeat",
        "4",
    ]));
    assert!(
        out.contains("\"ok\": true"),
        "timing routed upstream: {out}"
    );
    assert!(
        out.contains("repeat 4 over one keep-alive connection"),
        "--repeat prints the warm-path summary: {out}"
    );

    let out = run_ok(localwm().args(["request", "cluster_stats", "--addr", &addr]));
    assert!(out.contains("\"ok\": true"), "cluster_stats ok: {out}");
    assert!(
        out.contains("\"aggregate\"") && out.contains("\"gateway\""),
        "cluster_stats carries fleet sections: {out}"
    );

    // Draining the gateway must not touch the backends.
    run_ok(localwm().args(["request", "shutdown", "--addr", &addr]));
    let status = gw.child.wait().expect("gateway exit");
    assert!(status.success(), "gateway exits cleanly after shutdown");
    for b in [&mut b0, &mut b1] {
        let addr = b.addr.clone();
        let out = run_ok(localwm().args(["request", "stats", "--addr", &addr]));
        assert!(
            out.contains("\"ok\": true"),
            "backend survives gateway drain: {out}"
        );
        run_ok(localwm().args(["request", "shutdown", "--addr", &addr]));
        assert!(b.child.wait().expect("backend exit").success());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `localwm chaos --gateway` runs the seeded backend-kill scenario end to
/// end and reports a clean invariant sheet on a healthy seed.
#[test]
fn gateway_chaos_subcommand_reports_clean_invariants() {
    let dir = tmp_dir("gw-chaos");
    let report = dir.join("report.json");
    let out = run_ok(localwm().args([
        "chaos",
        "--gateway",
        "--seed",
        "5",
        "--requests",
        "12",
        "--report-out",
        report.to_str().unwrap(),
    ]));
    assert!(
        out.contains("invariants: all held"),
        "clean run reports held invariants: {out}"
    );
    let dumped = std::fs::read_to_string(&report).expect("report written");
    assert!(
        dumped.contains("\"fates_by_kind\"") && dumped.contains("\"seed\": 5"),
        "report carries the seeded fate accounting: {dumped}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn spawn_store_server(store_dir: &Path) -> ServerProc {
    let mut child = localwm()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--store-dir",
            store_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn localwm serve --store-dir");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read listen line");
    let addr = first
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on listen line")
        .to_owned();
    ServerProc {
        child,
        addr,
        _stdout: reader,
    }
}

/// The persistence quickstart through real processes: a `--store-dir`
/// server populates its store, the `localwm store` maintenance commands
/// walk it (`ls`, `get`, `verify`, `compact`), a restarted server answers
/// byte-identically from the store, and `verify` exits nonzero once a
/// record's bytes are flipped.
#[test]
fn store_subcommands_manage_a_populated_store_dir() {
    let dir = tmp_dir("store");
    let design = dir.join("iir4.cdfg");
    let store_dir = dir.join("store");
    run_ok(localwm().args(["gen", "iir4", "-o", design.to_str().unwrap()]));

    // First life: a timing request writes the design through to the store.
    let mut server = spawn_store_server(&store_dir);
    let addr = server.addr.clone();
    let first_life = run_ok(localwm().args([
        "request",
        "timing",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
    ]));
    assert!(first_life.contains("\"ok\": true"));
    run_ok(localwm().args(["request", "shutdown", "--addr", &addr]));
    assert!(server.child.wait().expect("server exit").success());

    // The maintenance walk sees the design + alias pair.
    let sd = store_dir.to_str().unwrap();
    let ls = run_ok(localwm().args(["store", "ls", "--dir", sd]));
    assert!(
        ls.contains("design") && ls.contains("alias") && ls.contains("2 record(s)"),
        "ls lists both records: {ls}"
    );
    let hash = ls
        .lines()
        .find(|l| l.starts_with("design"))
        .and_then(|l| l.split_whitespace().nth(1))
        .expect("design hash in ls output")
        .to_owned();
    let got = run_ok(localwm().args(["store", "get", &hash, "--dir", sd]));
    assert_eq!(
        got,
        std::fs::read_to_string(&design).unwrap(),
        "get round-trips the stored design to its exact CDFG text"
    );
    let verify = run_ok(localwm().args(["store", "verify", "--dir", sd]));
    assert!(verify.contains("verified 2 record(s)"), "{verify}");
    let compact = run_ok(localwm().args(["store", "compact", "--dir", sd]));
    assert!(compact.contains("compacted 2 live record(s)"), "{compact}");

    // Second life, same store: byte-identical response, no reparse (the
    // store block reports hits and zero new puts).
    let mut server = spawn_store_server(&store_dir);
    let addr = server.addr.clone();
    let second_life = run_ok(localwm().args([
        "request",
        "timing",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
    ]));
    let body = |out: &str| {
        out.lines()
            .take_while(|l| !l.starts_with("repeat "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        body(&second_life),
        body(&first_life),
        "a warm restart serves byte-identical responses"
    );
    let stats = run_ok(localwm().args(["request", "stats", "--addr", &addr]));
    assert!(
        stats.contains("\"store\"") && stats.contains("\"puts\": 0"),
        "stats exposes the store block with no reparse-writes: {stats}"
    );
    run_ok(localwm().args(["request", "shutdown", "--addr", &addr]));
    assert!(server.child.wait().expect("server exit").success());

    // Flip one payload byte behind the index: verify must exit nonzero and
    // name the corrupt segment.
    let seg = store_dir.join("seg-000000.lwm");
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&seg, bytes).expect("corrupt segment");
    let out = localwm()
        .args(["store", "verify", "--dir", sd])
        .output()
        .expect("spawn verify");
    assert!(
        !out.status.success(),
        "verify exits nonzero on checksum mismatch"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("seg-000000.lwm"),
        "verify names the corrupt segment: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `localwm request --binary` negotiates the framed encoding and prints
/// the same response a JSON connection would.
#[test]
fn request_binary_flag_round_trips_through_the_framed_encoding() {
    let dir = tmp_dir("binary");
    let design = dir.join("iir4.cdfg");
    run_ok(localwm().args(["gen", "iir4", "-o", design.to_str().unwrap()]));
    let mut server = spawn_server(None);
    let addr = server.addr.clone();

    let json = run_ok(localwm().args([
        "request",
        "timing",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
    ]));
    let binary = run_ok(localwm().args([
        "request",
        "timing",
        "--addr",
        &addr,
        "--design",
        design.to_str().unwrap(),
        "--binary",
    ]));
    assert_eq!(binary, json, "both encodings print the same response");

    let stats = run_ok(localwm().args(["request", "stats", "--addr", &addr]));
    assert!(
        stats.contains("\"binary_conns\": 1"),
        "the binary connection was counted: {stats}"
    );
    run_ok(localwm().args(["request", "shutdown", "--addr", &addr]));
    assert!(server.child.wait().expect("server exit").success());
    std::fs::remove_dir_all(&dir).ok();
}

fn corpus_design(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../corpus/designs")
        .join(name)
}

#[test]
fn unknown_flags_are_rejected_per_subcommand() {
    let design = corpus_design("iir4.cdfg");
    let design = design.to_str().unwrap();
    let out = localwm()
        .args(["analyze", design, "--bogus-flag", "1"])
        .output()
        .expect("spawn localwm");
    assert!(!out.status.success(), "an unknown flag fails the command");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag `--bogus-flag` for `analyze`"),
        "the error names the flag and the subcommand: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing ran: {:?}", out.stdout);

    // Flags are checked before any connection is made.
    let out = localwm()
        .args(["request", "stats", "--addr", "127.0.0.1:1", "--sample", "5"])
        .output()
        .expect("spawn localwm");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag `--sample` for `request`"),
        "a misspelled flag is not silently ignored"
    );

    // Declared flags, their values included, still pass.
    let out = run_ok(localwm().args(["analyze", design, "--samples", "50", "--seed", "3"]));
    assert!(!out.is_empty());
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let design = corpus_design("mediabench-0.cdfg");
    let mut child = localwm()
        .args(["analyze", design.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn localwm");
    // Close the read end before the command prints its first line (it
    // parses and analyzes a 733-node design first), as `| head -0` would.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for localwm");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "a reader that stops reading is not a failure: {:?}, {stderr}",
        out.status
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
        "no panic report: {stderr}"
    );
}
