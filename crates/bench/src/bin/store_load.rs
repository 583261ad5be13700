//! Durability benchmark for `localwm-store`: restart cold- vs warm-start
//! latency and JSON-lines vs `LWMB1` framed-binary codec cost.
//!
//! Three questions, all against real servers on loopback TCP:
//!
//! * What does a replica restart cost without a store (the full text-parse
//!   cold path) versus with a populated `--store-dir` (designs rehydrated
//!   from compact binary records in checksummed segments)? Each lane is
//!   the median over independent restart rounds.
//! * What does each request pay for its wire encoding — the same warm
//!   server driven over a JSON-lines connection versus a framed binary
//!   connection?
//! * What do the codecs cost in isolation — `serde_json` round-trips
//!   versus the binary value codec, over the same response objects?
//!
//! Writes `BENCH_store.json` (override with `--out PATH`; `--quick`
//! shrinks the design set and repeat counts for CI). Exits nonzero if a
//! warm start fails to beat the cold path — the whole point of the store.
//!
//! Usage: `store_load [--quick] [--out PATH]`

use std::time::{Duration, Instant};

use localwm_bench::report::{median, render_table};
use localwm_cdfg::generators::{mediabench, mediabench_apps};
use localwm_cdfg::write_cdfg;
use localwm_serve::{Client, Request, RequestKind, ServeConfig, ServerHandle};
use localwm_store::binval::{decode_value, value_to_bytes};
use serde::Value;

struct Sample {
    name: String,
    mean_ns: f64,
    samples: usize,
}

fn start_server(store_dir: Option<&std::path::Path>) -> ServerHandle {
    localwm_serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 256,
        cache_cap: 16,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: None,
        store_dir: store_dir.map(|d| d.to_str().expect("utf8 path").to_owned()),
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    })
    .expect("bind loopback")
}

fn timing_request(design: &str) -> Request {
    let mut r = Request::new(RequestKind::Timing);
    r.design = Some(design.to_owned());
    r
}

/// Mean per-request latency (and the raw response lines) of sending
/// `reqs` serially over `client`.
fn run_pass(client: &mut Client, reqs: &[Request]) -> (f64, Vec<String>) {
    let start = Instant::now();
    let mut lines = Vec::with_capacity(reqs.len());
    for r in reqs {
        client.send(r).expect("send");
        lines.push(client.recv_line().expect("recv"));
    }
    let mean = start.elapsed().as_nanos() as f64 / reqs.len() as f64;
    for l in &lines {
        assert!(l.contains("\"ok\":true"), "benchmark request failed: {l}");
    }
    (mean, lines)
}

fn connect(handle: &ServerHandle, binary: bool) -> Client {
    let addr = handle.addr().to_string();
    let wait = Duration::from_secs(5);
    if binary {
        Client::connect_binary_within(&addr, wait).expect("connect binary")
    } else {
        Client::connect_within(&addr, wait).expect("connect")
    }
}

/// One restart round: the same timing battery against (a) a fresh
/// storeless server — the full text-parse cold path — and (b) a fresh
/// server warm-starting from a store a previous life populated. Returns
/// the per-request means of the four lanes and life 2's response lines.
fn restart_round(reqs: &[Request], store_dir: &std::path::Path) -> ([f64; 4], Vec<String>) {
    let _ = std::fs::remove_dir_all(store_dir);

    // Cold path: no store, every design is parsed from text.
    let handle = start_server(None);
    let (cold, _) = run_pass(&mut connect(&handle, false), reqs);
    handle.shutdown();

    // Life 1 populates the store (parse + write-through), then dies.
    let handle = start_server(Some(store_dir));
    let (first_life, _) = run_pass(&mut connect(&handle, false), reqs);
    handle.shutdown();

    // Life 2 warm-starts: a fresh LRU, but every design rehydrates from
    // the checksummed segments instead of the text parser.
    let handle = start_server(Some(store_dir));
    let mut client = connect(&handle, false);
    let (warm_start, lines) = run_pass(&mut client, reqs);
    // Same server, second pass: the in-memory warm-cache floor.
    let (warm_cache, _) = run_pass(&mut client, reqs);
    handle.shutdown();
    ([cold, first_life, warm_start, warm_cache], lines)
}

/// The restart experiment: `rounds` independent restart rounds, each lane
/// reported as the median of its per-round means (one battery per round
/// is only a handful of requests, so a single round is at the mercy of
/// scheduler noise).
fn restart_experiment(
    designs: &[String],
    store_dir: &std::path::Path,
    rounds: usize,
    out: &mut Vec<Sample>,
) -> (f64, f64, Vec<String>) {
    let reqs: Vec<Request> = designs.iter().map(|d| timing_request(d)).collect();
    let mut lanes: [Vec<f64>; 4] = Default::default();
    let mut lines = Vec::new();
    for _ in 0..rounds {
        let (means, round_lines) = restart_round(&reqs, store_dir);
        for (lane, mean) in lanes.iter_mut().zip(means) {
            lane.push(mean);
        }
        lines = round_lines;
    }
    let [cold, first_life, warm_start, warm_cache] = lanes.map(median);
    for (name, mean) in [
        ("store/restart/cold-no-store", cold),
        ("store/restart/first-life-populating", first_life),
        ("store/restart/warm-start-from-store", warm_start),
        ("store/restart/warm-cache-floor", warm_cache),
    ] {
        out.push(Sample {
            name: name.to_owned(),
            mean_ns: mean,
            samples: designs.len() * rounds,
        });
    }
    (cold, warm_start, lines)
}

/// The wire-codec experiment: one warm server, the same battery repeated
/// over a JSON-lines connection and a framed binary connection.
fn transport_experiment(designs: &[String], repeats: usize, out: &mut Vec<Sample>) {
    let reqs: Vec<Request> = designs.iter().map(|d| timing_request(d)).collect();
    let handle = start_server(None);
    // Warm the context cache so the codec is what is measured.
    run_pass(&mut connect(&handle, false), &reqs);
    for (name, binary) in [
        ("store/transport/json-lines", false),
        ("store/transport/binary-frames", true),
    ] {
        let mut client = connect(&handle, binary);
        let start = Instant::now();
        for _ in 0..repeats {
            run_pass(&mut client, &reqs);
        }
        let total = repeats * reqs.len();
        out.push(Sample {
            name: name.to_owned(),
            mean_ns: start.elapsed().as_nanos() as f64 / total as f64,
            samples: total,
        });
    }
    handle.shutdown();
}

/// The codec-in-isolation experiment: encode+decode round-trips of real
/// response objects through `serde_json` text and the binary value codec.
fn codec_experiment(lines: &[String], iters: usize, out: &mut Vec<Sample>) -> (usize, usize) {
    let values: Vec<Value> = lines
        .iter()
        .map(|l| serde_json::from_str(l).expect("response lines are valid JSON"))
        .collect();
    let json_bytes: usize = lines.iter().map(String::len).sum();
    let frame_bytes: usize = values.iter().map(|v| value_to_bytes(v).len()).sum();

    let start = Instant::now();
    for _ in 0..iters {
        for v in &values {
            let text = serde_json::to_string(v).expect("encode json");
            let back: Value = serde_json::from_str(&text).expect("decode json");
            assert!(matches!(back, Value::Object(_)));
        }
    }
    let json_ns = start.elapsed().as_nanos() as f64 / (iters * values.len()) as f64;

    let start = Instant::now();
    for _ in 0..iters {
        for v in &values {
            let bytes = value_to_bytes(v);
            let back = decode_value(&bytes).expect("decode binary");
            assert!(matches!(back, Value::Object(_)));
        }
    }
    let binary_ns = start.elapsed().as_nanos() as f64 / (iters * values.len()) as f64;

    out.push(Sample {
        name: "store/codec/json-round-trip".to_owned(),
        mean_ns: json_ns,
        samples: iters * values.len(),
    });
    out.push(Sample {
        name: "store/codec/binary-round-trip".to_owned(),
        mean_ns: binary_ns,
        samples: iters * values.len(),
    });
    (json_bytes, frame_bytes)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_store.json".to_owned());

    let apps = mediabench_apps();
    let designs: Vec<String> = apps
        .iter()
        .take(if quick { 3 } else { 6 })
        .map(|app| write_cdfg(&mediabench(app, 0)))
        .collect();
    let store_dir =
        std::env::temp_dir().join(format!("localwm-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut samples = Vec::new();
    let rounds = if quick { 5 } else { 9 };
    let (cold, warm_start, lines) = restart_experiment(&designs, &store_dir, rounds, &mut samples);
    transport_experiment(&designs, if quick { 4 } else { 16 }, &mut samples);
    let (json_bytes, frame_bytes) =
        codec_experiment(&lines, if quick { 50 } else { 400 }, &mut samples);
    let _ = std::fs::remove_dir_all(&store_dir);

    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                format!("{:.1}", s.mean_ns / 1e3),
                s.samples.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["benchmark", "mean µs/req", "n"], &rows)
    );
    println!(
        "warm start is {:.2}x the cold path ({:.0} µs vs {:.0} µs); \
         binary frames carry {frame_bytes} bytes vs {json_bytes} JSON bytes",
        warm_start / cold,
        warm_start / 1e3,
        cold / 1e3,
    );

    let entries: Vec<Value> = samples
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".to_owned(), Value::Str(s.name.clone())),
                (
                    "mean_ns".to_owned(),
                    Value::Float((s.mean_ns * 10.0).round() / 10.0),
                ),
                ("samples".to_owned(), Value::Int(s.samples as i64)),
            ])
        })
        .collect();
    let note = format!(
        "store_load: in-process localwm-serve on loopback TCP over {} mediabench \
         designs; restart = serial timing battery against a storeless server \
         (cold), a first --store-dir life (populating), a restarted life over \
         the same dir (warm start: designs rehydrate from compact binary records \
         in checksummed segments instead of the text parser), and a same-process \
         second pass (warm-cache floor), each lane the median of {rounds} rounds' \
         per-request means; transport = the warm battery over JSON-lines vs LWMB1 framed \
         binary connections; codec = encode+decode round-trips of the battery's \
         response objects in isolation ({json_bytes} JSON bytes vs {frame_bytes} \
         frame bytes); host had {} CPU core(s)",
        designs.len(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let doc = Value::Object(vec![
        ("note".to_owned(), Value::Str(note)),
        ("benchmarks".to_owned(), Value::Array(entries)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("render json");
    std::fs::write(&out_path, json + "\n").expect("write report");
    eprintln!("wrote {out_path}");

    if warm_start >= cold {
        eprintln!(
            "REGRESSION: warm start ({warm_start:.0} ns) did not beat the \
             cold path ({cold:.0} ns)"
        );
        std::process::exit(1);
    }
}
