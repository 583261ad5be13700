//! The three workloads: their inputs, their servers and their warm-up.
//!
//! Inputs are drawn from the run seed; the servers only ever see the
//! generated requests. The seed picks parameters, names and order, never
//! the mix's proportions or the designs' sizes, so runs on different seeds
//! measure the same amount of work.

use std::path::PathBuf;
use std::sync::Arc;

use localwm_cdfg::generators::{mediabench, mediabench_apps};
use localwm_cdfg::write_cdfg;
use localwm_gateway::{BackendSpec, GatewayConfig, GatewayHandle};
use localwm_serve::fault::SplitMix64;
use localwm_serve::{handlers, ContextCache, Request, RequestKind, ServeConfig, ServerHandle};
use localwm_testkit::corpus::builtin_cases;
use localwm_testkit::trace::{named_layered, parse_trace, seeded_trace, TraceSpec, TraceStep};

use crate::load::{self, Episode, Kind, Plain, Session};

/// Closed-loop clients per workload: one per core of the 2-core host the
/// benchmark is sized for.
pub const CLIENTS: usize = 2;

pub const NAMES: [&str; 3] = ["warm-timing", "analyze-embed", "gateway-churn"];

/// A running workload: its servers, where clients connect, and what each
/// client sends.
pub struct Fixture {
    /// Where the closed-loop clients connect (a backend or the gateway).
    pub target: String,
    pub backends: Vec<ServerHandle>,
    pub gateway: Option<GatewayHandle>,
    /// One script per client.
    pub scripts: Vec<Vec<Episode>>,
    /// Every distinct design text the workload sends (for the layer probes).
    pub designs: Vec<String>,
    store_root: Option<PathBuf>,
}

impl Fixture {
    pub fn backend_addrs(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.addr().to_string()).collect()
    }

    /// Stops the gateway, then every backend, and removes the stores.
    pub fn teardown(self) {
        if let Some(gw) = self.gateway {
            gw.shutdown();
        }
        for b in self.backends {
            b.shutdown();
        }
        if let Some(root) = self.store_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

fn serve_config(workers: usize, cache_cap: usize, store_dir: Option<String>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_depth: 256,
        cache_cap,
        default_timeout_ms: None,
        metrics_out: None,
        fault_plan: None,
        session_idle_ms: None,
        store_dir,
        pipeline_window: localwm_serve::server::DEFAULT_PIPELINE_WINDOW,
    }
}

pub fn start_gateway(backends: &[String]) -> GatewayHandle {
    localwm_gateway::start(GatewayConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends: backends
            .iter()
            .enumerate()
            .map(|(i, addr)| BackendSpec {
                name: format!("b{i}"),
                addr: addr.clone(),
            })
            .collect(),
        replicas: backends.len().min(2),
        max_retries: 1,
        backoff_base_ms: 0,
        backoff_cap_ms: 0,
        recv_timeout_ms: 60_000,
        health_interval_ms: None,
        record_routes: false,
    })
    .expect("start gateway")
}

/// Where runs keep their files (stores, span dumps, run records): inside the
/// working directory, which is the checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn corpus(names: &[&str]) -> Vec<String> {
    let cases = builtin_cases();
    names
        .iter()
        .map(|n| {
            cases
                .iter()
                .find(|c| c.name == *n)
                .unwrap_or_else(|| panic!("corpus design {n}"))
                .design
                .clone()
        })
        .collect()
}

fn request(kind: RequestKind, id: u64, design: &str) -> Request {
    let mut r = Request::new(kind);
    r.id = Some(id);
    r.design = Some(design.to_owned());
    r
}

/// `copies` rounds of `items`, each round in its own seeded order.
fn shuffled<T: Clone>(items: &[T], copies: usize, rng: &mut SplitMix64) -> Vec<T> {
    let mut out = Vec::with_capacity(items.len() * copies);
    for _ in 0..copies {
        let mut round = items.to_vec();
        for i in (1..round.len()).rev() {
            let j = usize::try_from(rng.below(i as u64 + 1)).expect("index fits");
            round.swap(i, j);
        }
        out.extend(round);
    }
    out
}

/// Sends each request once on one connection. Panics on a failed
/// response: a workload whose warm-up fails would measure errors.
fn warm_up(addr: &str, requests: &[Arc<Plain>]) {
    let mut c = load::connect(addr);
    for p in requests {
        let resp = c.call(&p.req).expect("warm-up request");
        assert!(
            resp.ok,
            "warm-up {} failed: {:?}",
            p.kind.name(),
            resp.error
        );
    }
}

/// One session episode's inputs: a 200-op named layered design and a
/// seeded edit trace over it (four batches of three temporal-edge edits,
/// each followed by an `analyze` of 64 samples, every fourth also by a
/// `timing`).
pub fn session_inputs(design_seed: u64, trace_seed: u64) -> (String, Vec<TraceStep>) {
    let design = write_cdfg(&named_layered(200, 8, 12, design_seed));
    let g = localwm_cdfg::parse_cdfg(&design).expect("session design parses");
    let trace = seeded_trace(
        &g,
        &TraceSpec {
            seed: trace_seed,
            edit_steps: 4,
            edits_per_step: 3,
            samples: 64,
        },
    )
    .expect("seeded trace");
    (design, parse_trace(&trace).expect("generated traces parse"))
}

pub fn setup(name: &str, seed: u64, run_tag: &str) -> Fixture {
    match name {
        "warm-timing" => warm_timing(seed),
        "analyze-embed" => analyze_embed(seed),
        "gateway-churn" => gateway_churn(seed, run_tag),
        other => panic!("unknown workload {other}"),
    }
}

/// `timing` over the six corpus designs (0.7-26.7 KB), two seeded delay
/// models each, straight to one 2-worker backend with a warm cache: the
/// engine answers from its memo, so the request path is nearly all the
/// work.
fn warm_timing(seed: u64) -> Fixture {
    let mut rng = SplitMix64::new(seed ^ 0x7715_11A6);
    let designs = corpus(&[
        "cf-iir-serial",
        "ge-controller",
        "iir4",
        "layered-120",
        "layered-240",
        "mediabench-0",
    ]);
    let mut pool = Vec::new();
    for d in &designs {
        for _ in 0..2 {
            let mut r = request(RequestKind::Timing, pool.len() as u64, d);
            let lo = 1 + rng.below(2);
            r.lo = Some(lo);
            r.hi = Some(lo + 1 + rng.below(3));
            pool.push(Plain::new(Kind::Timing, r));
        }
    }
    let server = localwm_serve::start(serve_config(2, 16, None)).expect("start backend");
    let target = server.addr().to_string();
    warm_up(&target, &pool);
    let scripts = (0..CLIENTS)
        .map(|_| {
            shuffled(&pool, 16, &mut rng)
                .into_iter()
                .map(Episode::Plain)
                .collect()
        })
        .collect();
    Fixture {
        target,
        backends: vec![server],
        gateway: None,
        scripts,
        designs,
        store_root: None,
    }
}

/// Analysis samples per `analyze` request of `analyze-embed`.
pub const ANALYZE_SAMPLES: usize = 2000;

/// A seeded half-and-half mix of `analyze` (2000 samples) and
/// `embed`->`detect` pairs over the four embeddable corpus designs,
/// straight to one 2-worker backend: compute dominates the wire.
fn analyze_embed(seed: u64) -> Fixture {
    let mut rng = SplitMix64::new(seed ^ 0xA7A1_42E0);
    let designs = corpus(&["iir4", "layered-120", "layered-240", "mediabench-0"]);
    let mut analyze = Vec::new();
    let mut embed = Vec::new();
    let mut id = 0;
    // Four analysis seeds and four authors a design: watermark cost varies
    // with the author, and averaging over several keeps a run's total work
    // from depending on the seed. Some author signatures cannot be embedded
    // in a given design (the service answers a typed `embed_failed`, e.g.
    // "only 1 of 4 temporal edge(s) drawable"); the generator skips those
    // draws, checking each candidate with the in-process handler.
    let screen = ContextCache::new(designs.len());
    for d in &designs {
        for _ in 0..4 {
            let mut r = request(RequestKind::Analyze, id, d);
            r.samples = Some(ANALYZE_SAMPLES);
            r.seed = Some(rng.below(1 << 20));
            analyze.push(Plain::new(Kind::Analyze, r));
            let r = (0..64)
                .map(|_| {
                    let mut r = request(RequestKind::Embed, id + 1, d);
                    r.author = Some(format!("author-{:05x}", rng.below(1 << 20)));
                    r
                })
                .find(|r| handlers::execute(&screen, r).is_ok())
                .expect("an embeddable author within 64 draws");
            embed.push(Plain::new(Kind::Embed, r));
            id += 2;
        }
    }
    let server = localwm_serve::start(serve_config(2, 16, None)).expect("start backend");
    let target = server.addr().to_string();
    // The warm-up loads each design into the cache; the analyses and
    // watermarks themselves are not cached, so repeating them here would
    // only lengthen set-up.
    let timing: Vec<Arc<Plain>> = designs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            Plain::new(
                Kind::Timing,
                request(RequestKind::Timing, 1000 + i as u64, d),
            )
        })
        .collect();
    warm_up(&target, &timing);
    let scripts = (0..CLIENTS)
        .map(|_| {
            let mut episodes: Vec<Episode> = Vec::new();
            let a = shuffled(&analyze, 4, &mut rng);
            let e = shuffled(&embed, 4, &mut rng);
            // Alternate so every stretch of the script has the same mix.
            for (a, e) in a.into_iter().zip(e) {
                if rng.below(2) == 0 {
                    episodes.push(Episode::Plain(a));
                    episodes.push(Episode::EmbedDetect(e));
                } else {
                    episodes.push(Episode::EmbedDetect(e));
                    episodes.push(Episode::Plain(a));
                }
            }
            episodes
        })
        .collect();
    Fixture {
        target,
        backends: vec![server],
        gateway: None,
        scripts,
        designs,
        store_root: None,
    }
}

/// Designs in the `gateway-churn` timing pool: the first sixteen draws of
/// the first MediaBench application (528 ops, ~27 KB each). The pool is
/// fixed, not seeded: which designs share a backend and a cache shard
/// decides the hit ratio, and that must not change with the seed.
const CHURN_DESIGNS: usize = 16;
/// Per-backend context cache: the fleet holds 8 of the 16 designs.
const CHURN_CACHE: usize = 4;
/// Distinct session episodes (design and edit trace); every client runs
/// each of them under its own session names.
const SESSIONS: usize = 16;
/// Differently ordered repetitions of the session list in a client script.
const CHURN_BLOCKS: usize = 4;

/// Traffic through a gateway over two 1-worker backends with small caches
/// and mounted stores. 80% of requests are `timing` over a working set
/// larger than the fleet's cache, so misses rehydrate from the store; 20%
/// are session episodes (open, a seeded edit trace, close).
fn gateway_churn(seed: u64, run_tag: &str) -> Fixture {
    let mut rng = SplitMix64::new(seed ^ 0x6A7E_C4A2);
    let apps = mediabench_apps();
    let designs: Vec<String> = (0..CHURN_DESIGNS)
        .map(|k| write_cdfg(&mediabench(&apps[0], k as u64)))
        .collect();
    let pool: Vec<Arc<Plain>> = designs
        .iter()
        .enumerate()
        .map(|(i, d)| Plain::new(Kind::Timing, request(RequestKind::Timing, i as u64, d)))
        .collect();
    let design_seeds: Vec<u64> = (0..SESSIONS).map(|_| rng.below(1 << 16)).collect();
    let session_inputs: Vec<(String, Vec<TraceStep>)> = design_seeds
        .into_iter()
        .map(|d| session_inputs(d, rng.below(1 << 16)))
        .collect();

    let store_root = out_dir().join(format!("stores-{run_tag}"));
    let backends: Vec<ServerHandle> = (0..2)
        .map(|i| {
            let dir = store_root.join(format!("b{i}"));
            localwm_serve::start(serve_config(
                1,
                CHURN_CACHE,
                Some(dir.to_string_lossy().into_owned()),
            ))
            .expect("start backend")
        })
        .collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let gateway = start_gateway(&addrs);
    let target = gateway.addr().to_string();
    warm_up(&target, &pool);

    let scripts = (0..CLIENTS)
        .map(|c| {
            let sessions: Vec<Arc<Session>> = session_inputs
                .iter()
                .enumerate()
                .map(|(k, (design, steps))| {
                    Session::new(
                        c * SESSIONS + k,
                        format!("c{c}-s{k}"),
                        design.clone(),
                        steps.clone(),
                    )
                })
                .collect();
            let session_requests: usize = sessions.iter().map(|s| s.steps.len() + 2).sum();
            // Four timing requests per session request: 80% / 20%.
            let copies = (4 * session_requests).div_ceil(pool.len());
            let mut episodes = Vec::new();
            // Several blocks, each in its own order, so the cache sees a
            // long access sequence rather than one short loop.
            for _ in 0..CHURN_BLOCKS {
                let timing = shuffled(&pool, copies, &mut rng);
                let per_session = timing.len() / sessions.len();
                let mut timing = timing.into_iter();
                for s in &sessions {
                    episodes.extend(timing.by_ref().take(per_session).map(Episode::Plain));
                    episodes.push(Episode::Session(Arc::clone(s)));
                }
                episodes.extend(timing.map(Episode::Plain));
            }
            episodes
        })
        .collect();
    Fixture {
        target,
        backends,
        gateway: Some(gateway),
        scripts,
        designs,
        store_root: Some(store_root),
    }
}
