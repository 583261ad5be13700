//! Hot-path benchmark for the Monte-Carlo criticality kernel: serial vs
//! parallel sweeps at 500/2000/8000 nodes, with before/after deltas against
//! the committed `BENCH_engine.json` baselines.
//!
//! Writes `BENCH_hotpath.json` (or the path given with `--out`). Lane names
//! match the criterion lanes (`engine/criticality/{serial,parallel}/{n}`)
//! so baselines resolve by name. `--quick` trims rounds for the CI lane.
//!
//! The bin doubles as the parallel-regression guard: on a multi-core host
//! it exits non-zero if any parallel lane's median round is more than 5%
//! slower than its serial twin's (the inversion the persistent pool exists
//! to fix). The serial and parallel rounds of one size alternate, so a
//! burst of host noise lands on both lanes alike, and medians ignore the
//! odd descheduled round. On a single-core host the guard is skipped with
//! a note — there `Auto` resolves to one worker and takes the inline
//! serial path by design.

use std::time::Instant;

use localwm_bench::report::{median, render_table};
use localwm_cdfg::generators::{layered, LayeredConfig};
use localwm_engine::{DesignContext, Parallelism};
use localwm_timing::{criticality_in, KindBounds};
use serde::Value;

const SIZES: [usize; 3] = [500, 2000, 8000];
/// Matches the criterion lane in `benches/timing_analysis.rs`, so means are
/// comparable to the committed baselines.
const MC_SAMPLES: usize = 64;
/// A parallel lane may be at most 5% slower than its serial twin.
const GUARD_HEADROOM: f64 = 1.05;

struct Lane {
    name: String,
    mean_ns: f64,
    median_ns: f64,
    rounds: usize,
    baseline_ns: Option<f64>,
}

impl Lane {
    fn speedup(&self) -> Option<f64> {
        self.baseline_ns.map(|b| b / self.mean_ns)
    }
}

/// The serial and parallel lane of every size, in report order.
const LANES: [(&str, Parallelism); 2] = [
    ("serial", Parallelism::Serial),
    ("parallel", Parallelism::Auto),
];

/// Times `rounds` rounds of `f` under each lane's parallelism, after one
/// warm-up call each (caches, pool start, page faults). The lanes
/// alternate and swap which goes first every round, so host noise and
/// cache warmth land on both alike. Returns each lane's per-round ns.
fn interleaved_ns(rounds: usize, mut f: impl FnMut(Parallelism)) -> [Vec<f64>; 2] {
    for (_, par) in LANES {
        f(par);
    }
    let mut times = [Vec::with_capacity(rounds), Vec::with_capacity(rounds)];
    for r in 0..rounds {
        for i in [r % 2, 1 - r % 2] {
            let start = Instant::now();
            f(LANES[i].1);
            times[i].push(start.elapsed().as_nanos() as f64);
        }
    }
    times
}

/// `name → mean_ns` from a committed `BENCH_*.json`, empty when absent.
fn load_baselines(path: &str) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        return Vec::new();
    };
    let Some(Value::Array(entries)) = doc.field("benchmarks") else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|e| {
            let name = match e.field("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return None,
            };
            let mean = match e.field("mean_ns") {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                _ => return None,
            };
            Some((name, mean))
        })
        .collect()
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_hotpath.json".to_owned();
    let mut baseline_path = "BENCH_engine.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path"),
            other => panic!("unknown argument {other} (expected --quick/--out/--baseline)"),
        }
    }
    let rounds = if quick { 20 } else { 30 };
    let baselines = load_baselines(&baseline_path);
    let model = KindBounds::uniform(1, 3);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut lanes: Vec<Lane> = Vec::new();
    for &ops in &SIZES {
        let g = layered(&LayeredConfig {
            ops,
            layers: ((ops as f64).sqrt() * 1.2) as usize,
            ..Default::default()
        });
        let ctx = DesignContext::new(g);
        let times = interleaved_ns(rounds, |par| {
            std::hint::black_box(criticality_in(&ctx, &model, MC_SAMPLES, 7, par));
        });
        for ((tag, _), t) in LANES.into_iter().zip(times) {
            let name = format!("engine/criticality/{tag}/{ops}");
            let baseline_ns = baselines.iter().find(|(n, _)| *n == name).map(|&(_, b)| b);
            lanes.push(Lane {
                name,
                mean_ns: t.iter().sum::<f64>() / t.len() as f64,
                median_ns: median(t),
                rounds,
                baseline_ns,
            });
        }
    }

    let rows: Vec<Vec<String>> = lanes
        .iter()
        .map(|l| {
            vec![
                l.name.clone(),
                format!("{:.3}", l.mean_ns / 1e6),
                format!("{:.3}", l.median_ns / 1e6),
                l.baseline_ns
                    .map_or_else(|| "-".to_owned(), |b| format!("{:.3}", b / 1e6)),
                l.speedup()
                    .map_or_else(|| "-".to_owned(), |s| format!("{s:.2}x")),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "benchmark",
                "mean ms",
                "median ms",
                "baseline ms",
                "speedup"
            ],
            &rows
        )
    );

    // Parallel-regression guard, on medians of the interleaved rounds.
    let mut violations = Vec::new();
    if cores > 1 {
        for &ops in &SIZES {
            let serial = lanes
                .iter()
                .find(|l| l.name == format!("engine/criticality/serial/{ops}"))
                .expect("serial lane ran");
            let parallel = lanes
                .iter()
                .find(|l| l.name == format!("engine/criticality/parallel/{ops}"))
                .expect("parallel lane ran");
            if parallel.median_ns > serial.median_ns * GUARD_HEADROOM {
                violations.push(format!(
                    "{}: parallel median {:.3} ms vs serial {:.3} ms (> {:.0}% headroom)",
                    ops,
                    parallel.median_ns / 1e6,
                    serial.median_ns / 1e6,
                    (GUARD_HEADROOM - 1.0) * 100.0
                ));
            }
        }
    } else {
        eprintln!(
            "guard skipped: host has 1 CPU core, Parallelism::Auto resolves to \
             the inline serial path so serial and parallel lanes are the same code"
        );
    }

    let entries: Vec<Value> = lanes
        .iter()
        .map(|l| {
            let mut fields = vec![
                ("name".to_owned(), Value::Str(l.name.clone())),
                (
                    "mean_ns".to_owned(),
                    Value::Float((l.mean_ns * 10.0).round() / 10.0),
                ),
                (
                    "median_ns".to_owned(),
                    Value::Float((l.median_ns * 10.0).round() / 10.0),
                ),
                ("samples".to_owned(), Value::Int(l.rounds as i64)),
            ];
            if let Some(b) = l.baseline_ns {
                fields.push(("baseline_ns".to_owned(), Value::Float(b)));
                fields.push((
                    "speedup".to_owned(),
                    Value::Float((l.speedup().expect("baseline present") * 100.0).round() / 100.0),
                ));
            }
            Value::Object(fields)
        })
        .collect();
    let note = format!(
        "criticality: Monte-Carlo criticality sweep ({MC_SAMPLES} samples/run, \
         KindBounds::uniform(1,3), seed 7) over layered graphs, {rounds} rounds \
         per lane after one warm-up, serial and parallel rounds interleaved; \
         the parallel-regression guard compares medians; speedup is on means, \
         baseline_ns/speedup resolved by lane name \
         from {baseline_path}; host had {cores} CPU core(s)"
    );
    let doc = Value::Object(vec![
        ("note".to_owned(), Value::Str(note)),
        ("benchmarks".to_owned(), Value::Array(entries)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("render json");
    std::fs::write(&out_path, json + "\n").expect("write report");
    eprintln!("wrote {out_path}");

    if !violations.is_empty() {
        eprintln!("parallel-regression guard FAILED:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
