//! perfbench: the analysis service's seeded end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <warm-timing|analyze-embed|gateway-churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload with closed-loop clients and reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics of a
//! traced run (see `layers`). Both check every response. The last line of
//! standard output is the result object; lines before it are for people.
//! Exits 1 when any response failed or mismatched its reference.

mod layers;
mod load;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use stats::{median, peak_rss_mb, quantile};

/// Set-ups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 11;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(*workloads::NAMES.iter().find(|n| **n == value).ok_or_else(
                    || format!("unknown workload {value} (one of {:?})", workloads::NAMES),
                )?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// A digest of the program's sources (every file under `crates/` plus
/// `Cargo.lock`), so runs from checkouts without git history still name
/// the code they measured.
fn tree_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            fnv1a(&mut h, f.to_string_lossy().as_bytes());
            fnv1a(&mut h, &bytes);
        }
    }
    format!("{h:016x}")
}

/// `git rev-parse HEAD` when the working directory is a git checkout.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "none".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn run_record(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"clients\":{},\"engine_par\":\"{:?}\",\"profile\":\"{profile}\",\"commit\":\"{}\",\"tree_digest\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::CLIENTS,
        localwm_engine::Parallelism::from_env(),
        commit(),
        tree_digest()
    )
}

fn number(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut m = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}")
}

/// Appends the run record and its result to `.bench_out/runs.jsonl`.
fn append_record(record: &str, result: &str) {
    let dir = workloads::out_dir();
    let _ = std::fs::create_dir_all(&dir);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))
    {
        let _ = writeln!(f, "{{\"run\":{record},\"result\":{result}}}");
    }
}

/// Sets the workload up `SETUP_RUNS` times (all but the last torn down)
/// and returns the last fixture with the median set-up time.
fn set_up(args: &Args) -> (workloads::Fixture, f64) {
    let mut times = Vec::with_capacity(SETUP_RUNS);
    let mut fixture = None;
    for i in 0..SETUP_RUNS {
        if let Some(old) = fixture.take() {
            workloads::Fixture::teardown(old);
        }
        let tag = format!("{}-{i}", std::process::id());
        let started = Instant::now();
        fixture = Some(workloads::setup(args.workload, args.seed, &tag));
        times.push(started.elapsed().as_secs_f64());
    }
    println!("set-up times: {times:.4?} s");
    (fixture.expect("at least one set-up"), median(times))
}

fn end_to_end(args: &Args) -> (bool, u64, u64, Vec<(&'static str, &'static str, f64)>) {
    let (fx, setup_s) = set_up(args);
    let mut w = load::run_window(&fx.target, &fx.scripts, args.seconds, None);
    let rss = peak_rss_mb();
    fx.teardown();
    let bad = w.verify();
    let (attempted, failed) = (w.attempted(), w.failed());
    let lat: Vec<f64> = w
        .latencies(None)
        .into_iter()
        .map(|n| n as f64 / 1e6)
        .collect();
    println!(
        "{}: {} requests over {} s from {} clients, {} failed ({} mismatched)",
        args.workload,
        lat.len(),
        args.seconds,
        workloads::CLIENTS,
        failed,
        bad
    );
    // Reported but not gated: wall-clock throughput and the p90 move
    // with the CPU time other tenants take from the host (see README).
    println!("throughput_rps: {:.1} req/s", w.throughput());
    println!("latency_p50_ms: {:.4} ms", quantile(lat.clone(), 0.5));
    println!("latency_p90_ms: {:.4} ms", quantile(lat, 0.9));
    println!(
        "error_rate: {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "host steal: {:.2} of {:.2} CPU-s in the window",
        w.steal_s,
        w.seconds * std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
    );
    for kind in w.kinds() {
        let v: Vec<f64> = w
            .latencies(Some(kind))
            .into_iter()
            .map(|n| n as f64 / 1e6)
            .collect();
        println!(
            "  {:16} n={:6} p50 {:.4} ms",
            kind.name(),
            v.len(),
            median(v)
        );
    }
    let metrics = vec![
        ("requests_per_cpu_s", "req/cpu-s", w.per_cpu_second()),
        ("latency_typical_ms", "ms", w.typical_latency() / 1e6),
        ("setup_s", "s", setup_s),
        ("peak_rss_mb", "MB", rss),
    ];
    (failed == 0, attempted, failed, metrics)
}

fn traced(args: &Args) -> (bool, u64, u64, Vec<(&'static str, &'static str, f64)>) {
    let tag = format!("{}-traced", std::process::id());
    let fx = workloads::setup(args.workload, args.seed, &tag);
    let t = layers::traced_run(&fx, args.seed, args.seconds);
    fx.teardown();
    let dir = workloads::out_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("spans-{}.jsonl", args.workload));
    if let Err(e) = std::fs::write(&path, trace::to_jsonl(&t.spans)) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    println!(
        "{}: {} spans written to {}",
        args.workload,
        t.spans.len(),
        path.display()
    );
    (t.failed == 0, t.attempted, t.failed, t.metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let record = run_record(&args);
    println!("run {record}");
    let (correct, attempted, failed, metrics) = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    for (name, unit, value) in &metrics {
        println!("{name}: {value:.4} {unit}");
    }
    let result = result_line(correct, attempted.max(1), failed, &metrics);
    append_record(&record, &result);
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
