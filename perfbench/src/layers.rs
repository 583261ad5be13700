//! The traced run: per-layer metrics.
//!
//! Three sources, all recorded as spans from this file around calls into
//! each layer's public function:
//!
//! * the *shadow replay*: every `SHADOW_EVERY`-th plain request of the
//!   traced window is replayed in-process right after its response arrived,
//!   through the calls the server makes for it (`Request::from_line`,
//!   `ContextCache::get_or_parse`, `handlers::execute`,
//!   `Response::write_json`), under the same request id;
//! * *probes*: direct calls into the layers below the service (parse,
//!   context build, bounded analysis, Monte-Carlo, watermarking, store,
//!   cache miss and rehydrate) on the workload's own designs, and short
//!   relay and session probes for the layers a workload's traffic does
//!   not pass through;
//! * counters from `stats` / `cluster_stats`, read around the traced window.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use localwm_cdfg::parse_cdfg;
use localwm_core::{SchedWmConfig, SchedulingWatermarker, Signature};
use localwm_engine::{DesignContext, KindBounds, Parallelism};
use localwm_serve::{handlers, ContextCache, Request, RequestKind, Response};
use localwm_store::binval::value_to_bytes;
use localwm_store::{DesignStore, RecordKind};
use localwm_timing::{criticality_in, CriticalityCache};
use serde::{Serialize, Value};

use crate::load::{self, run_window, Kind, Plain, TraceSetup, Window};
use crate::stats::median;
use crate::trace::{self_times, Span, Tracer};
use crate::workloads::{self, Fixture, ANALYZE_SAMPLES, CLIENTS};

/// Every how-many plain requests per client the traced window replays
/// in-process.
const SHADOW_EVERY: u64 = 8;
/// Repetitions of each cheap probe per design.
const PROBE_REPS: usize = 5;
/// Designs the expensive probes (Monte-Carlo, watermarking) run on.
const HEAVY_DESIGNS: usize = 4;
/// Monte-Carlo samples of the criticality probes.
const PROBE_SAMPLES: usize = 256;
/// Round trips per side of the relay probe.
const RELAY_ROUNDS: usize = 200;

/// In-process replay of plain requests against a warm cache of its own,
/// with the engine parallelism the server's workers use.
pub struct ShadowReplay {
    cache: Arc<ContextCache>,
    buf: String,
}

impl ShadowReplay {
    fn new(cache: Arc<ContextCache>) -> Self {
        ShadowReplay {
            cache,
            buf: String::new(),
        }
    }

    /// Replays `plain` after its response arrived, as children of the
    /// request's `client.call` span `root`.
    pub fn replay(&mut self, t: &mut Tracer, root: u64, req_id: u64, plain: &Plain) {
        let tag = plain.kind.name();
        let id = t.open("serve.protocol.decode", tag, Some(root), req_id);
        let req = Request::from_line(&plain.line).expect("benchmark requests decode");
        t.close(id, plain.line.len() as u64);
        if let Some(design) = &req.design {
            let id = t.open("serve.cache.resolve", tag, Some(root), req_id);
            let _ = std::hint::black_box(self.cache.get_or_parse(design));
            t.close(id, design.len() as u64);
        }
        let result = t.span(
            ("serve.handlers.execute", tag),
            Some(root),
            req_id,
            0,
            || handlers::execute_with(&self.cache, &req, Parallelism::from_env()),
        );
        let resp = match result {
            Ok(v) => Response::success(req.id, req.kind.as_str(), v),
            Err(e) => Response::failure(req.id, req.kind.as_str(), e),
        };
        let buf = &mut self.buf;
        let id = t.open("serve.protocol.encode", tag, Some(root), req_id);
        buf.clear();
        resp.write_json(buf);
        t.close(id, buf.len() as u64);
    }
}

/// A cache holding every design: one unsharded LRU large enough that no
/// design is ever evicted.
fn warm_cache(designs: &[String]) -> Arc<ContextCache> {
    let cache = Arc::new(ContextCache::with_shards(designs.len().max(1), 1));
    for d in designs {
        let _ = cache.get_or_parse(d).expect("workload designs parse");
    }
    cache
}

/// Counters summed over a workload's backends (and its gateway).
#[derive(Debug, Clone, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
    coalesced: u64,
    executed: u64,
    pool_jobs: u64,
    pool_steals: u64,
    retries: u64,
    served: Vec<u64>,
}

fn uint(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) => u64::try_from(*n).unwrap_or(0),
        _ => 0,
    }
}

fn call_admin(addr: &str, kind: RequestKind) -> Value {
    let resp = load::connect(addr)
        .call(&Request::new(kind))
        .expect("admin request");
    assert!(resp.ok, "{kind} failed: {:?}", resp.error);
    resp.result.expect("admin requests answer with a result")
}

impl Counters {
    fn read(fx: &Fixture) -> Counters {
        let mut c = Counters::default();
        for addr in fx.backend_addrs() {
            let s = call_admin(&addr, RequestKind::Stats);
            let cache = s.field("cache");
            c.hits += uint(cache.and_then(|v| v.field("hits")));
            c.misses += uint(cache.and_then(|v| v.field("misses")));
            c.evictions += uint(cache.and_then(|v| v.field("evictions")));
            c.rejected += uint(s.field("queue").and_then(|v| v.field("rejected")));
            c.coalesced += uint(s.field("coalesced"));
            c.executed += uint(s.field("executed"));
        }
        // The engine pool is one per process; every backend reports it.
        let pool = localwm_engine::pool_stats();
        c.pool_jobs = pool.jobs;
        c.pool_steals = pool.steals;
        if let Some(gw) = &fx.gateway {
            let (retries, served) = gateway_counters(&gw.addr().to_string());
            c.retries = retries;
            c.served = served;
        }
        c
    }
}

/// `(retries, served per backend)` from a gateway's `cluster_stats`.
fn gateway_counters(addr: &str) -> (u64, Vec<u64>) {
    let s = call_admin(addr, RequestKind::ClusterStats);
    let retries = uint(s.field("gateway").and_then(|g| g.field("retries")));
    let served = match s.field("backends") {
        Some(Value::Array(backends)) => backends.iter().map(|b| uint(b.field("served"))).collect(),
        _ => Vec::new(),
    };
    (retries, served)
}

/// The busiest backend's share over an even split (1 = balanced).
fn skew(served: &[u64]) -> f64 {
    let total: u64 = served.iter().sum();
    let max = served.iter().copied().max().unwrap_or(0);
    if total == 0 {
        return 1.0;
    }
    max as f64 * served.len() as f64 / total as f64
}

/// The traced run's outputs.
pub struct Traced {
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

pub fn traced_run(fx: &Fixture, seed: u64, seconds: f64) -> Traced {
    let mut untraced = run_window(&fx.target, &fx.scripts, seconds, None);
    let untraced_bad = untraced.verify();
    let before = Counters::read(fx);
    let epoch = Instant::now();
    let shadows = (0..CLIENTS)
        .map(|_| ShadowReplay::new(warm_cache(&fx.designs)))
        .collect();
    let mut traced = run_window(
        &fx.target,
        &fx.scripts,
        seconds,
        Some(TraceSetup {
            epoch,
            shadows,
            shadow_every: SHADOW_EVERY,
        }),
    );
    let traced_bad = traced.verify();
    let after = Counters::read(fx);
    if untraced_bad + traced_bad > 0 {
        eprintln!("perfbench: {} output mismatches", untraced_bad + traced_bad);
    }

    let mut t = Tracer::new(epoch, 0xFFFF);
    let probe_gateway = probe_relay(&mut t, fx);
    probe_layers(&mut t, fx, seed);
    let has_sessions = !traced.latencies(Some(Kind::Mutate)).is_empty();
    let session_probe = if has_sessions {
        Vec::new()
    } else {
        probe_session(&fx.backend_addrs()[0], seed)
    };
    let mut spans = std::mem::take(&mut traced.spans);
    spans.extend(t.into_spans());

    let m = compute(
        &spans,
        &untraced,
        &traced,
        &before,
        &after,
        probe_gateway,
        &session_probe,
    );
    Traced {
        metrics: m,
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed() + traced.failed(),
        spans,
    }
}

/// Times the same warm `timing` request through a gateway and straight to
/// the backend the gateway routes it to, alternating. Workloads without a
/// gateway get one over their backend for the probe. Returns the probe
/// gateway's `(retries, served)` when it started one.
fn probe_relay(t: &mut Tracer, fx: &Fixture) -> Option<(u64, Vec<u64>)> {
    let addrs = fx.backend_addrs();
    let own = fx
        .gateway
        .is_none()
        .then(|| workloads::start_gateway(&addrs));
    let gw_addr = match (&fx.gateway, &own) {
        (Some(g), _) | (None, Some(g)) => g.addr().to_string(),
        (None, None) => unreachable!("a gateway was started above"),
    };
    let design = &fx.designs[0];
    let key = DesignContext::new(parse_cdfg(design).expect("design parses")).content_hash();
    let names: Vec<String> = (0..addrs.len()).map(|i| format!("b{i}")).collect();
    let owner = &addrs[localwm_gateway::rendezvous::rank(key, &names)[0]];
    let mut req = Request::new(RequestKind::Timing);
    req.id = Some(7);
    req.design = Some(design.clone());
    let line = req.to_line();
    let mut via_gw = load::connect(&gw_addr);
    let mut direct = load::connect(owner);
    for _ in 0..10 {
        let _ = via_gw.send_line(&line).and_then(|()| via_gw.recv_line());
        let _ = direct.send_line(&line).and_then(|()| direct.recv_line());
    }
    for round in 0..RELAY_ROUNDS as u64 {
        for (name, c) in [("gateway.call", &mut via_gw), ("direct.call", &mut direct)] {
            let id = t.open(name, "timing", None, round);
            let resp = c
                .send_line(&line)
                .and_then(|()| c.recv_line())
                .expect("relay probe request");
            t.close(id, 0);
            assert!(resp.contains("\"ok\":true"), "relay probe failed: {resp}");
        }
    }
    drop(via_gw);
    own.map(|g| {
        let counters = gateway_counters(&g.addr().to_string());
        g.shutdown();
        counters
    })
}

/// Runs each workload design through the layers below the service.
fn probe_layers(t: &mut Tracer, fx: &Fixture, seed: u64) {
    let model = KindBounds::uniform(1, 3);
    let mut req = 0u64;
    let mut next = || {
        req += 1;
        req
    };
    let store_dir = workloads::out_dir().join(format!("probe-store-{}", std::process::id()));
    let store = Arc::new(DesignStore::open(store_dir.join("kv")).expect("open probe store"));
    let rehydrate_store =
        Arc::new(DesignStore::open(store_dir.join("tier")).expect("open probe store"));
    let seeding = ContextCache::with_store(fx.designs.len() + 1, Arc::clone(&rehydrate_store));
    for (i, text) in fx.designs.iter().enumerate() {
        let text_bytes = text.len() as u64;
        for _ in 0..PROBE_REPS {
            let r = next();
            let id = t.open("cdfg.parse_cdfg", "", None, r);
            let g = std::hint::black_box(parse_cdfg(text).expect("design parses"));
            t.close(id, text_bytes);
            let ops = g.op_count() as u64;

            let id = t.open("engine.context_build", "", None, r);
            let ctx = DesignContext::new(g);
            let cp = ctx.critical_path();
            let _ = std::hint::black_box(ctx.windows(cp).expect("cp is a feasible deadline"));
            t.close(id, ops);
            let id = t.open("engine.bounded", "", None, r);
            let _ = std::hint::black_box(ctx.bounded_critical_path(&model));
            let _ = std::hint::black_box(ctx.possibly_critical(&model));
            t.close(id, ops);

            let cold = ContextCache::new(4);
            let _ = t.span(
                ("serve.cache.get_or_parse", "miss"),
                None,
                r,
                text_bytes,
                || cold.get_or_parse(text),
            );

            let bytes = value_to_bytes(&ctx.graph().to_value());
            let key = (i as u64) << 32 | r;
            let id = t.open("store.put", "", None, r);
            let _ = store
                .put(RecordKind::Design, key, &bytes)
                .expect("probe store put");
            t.close(id, bytes.len() as u64);
            let _ = t.span(("store.get", ""), None, r, bytes.len() as u64, || {
                store.get(RecordKind::Design, key)
            });
        }
        let _ = seeding.get_or_parse(text).expect("design parses");
        for _ in 0..PROBE_REPS {
            let r = next();
            let cache = ContextCache::with_store(4, Arc::clone(&rehydrate_store));
            let _ = t.span(
                ("serve.cache.get_or_parse", "rehydrate"),
                None,
                r,
                text.len() as u64,
                || cache.get_or_parse(text),
            );
        }
    }

    let warm = warm_cache(&fx.designs);
    let mut shadow = ShadowReplay::new(Arc::clone(&warm));
    let wm = SchedulingWatermarker::new(SchedWmConfig::default());
    let sig = Signature::from_author(&format!("probe-{seed}"));
    for (i, text) in fx.designs.iter().take(HEAVY_DESIGNS).enumerate() {
        for (kind, req_kind) in [
            (Kind::Timing, RequestKind::Timing),
            (Kind::Analyze, RequestKind::Analyze),
        ] {
            let mut q = Request::new(req_kind);
            q.id = Some(i as u64);
            q.design = Some(text.clone());
            q.samples = (kind == Kind::Analyze).then_some(ANALYZE_SAMPLES);
            let plain = Plain::new(kind, q);
            let reps = if kind == Kind::Timing { PROBE_REPS } else { 1 };
            for _ in 0..reps {
                let r = next();
                let root = t.open("probe.request", kind.name(), None, r);
                shadow.replay(t, root, r, &plain);
                t.close(root, 0);
            }
        }

        let ctx = warm.get_or_parse(text).expect("design parses");
        let ops = ctx.graph().op_count() as u64;
        let r = next();
        let id = t.open("timing.criticality_in", "scratch", None, r);
        let _ = std::hint::black_box(criticality_in(
            &ctx,
            &model,
            PROBE_SAMPLES,
            seed,
            Parallelism::Serial,
        ));
        t.close(id, PROBE_SAMPLES as u64 * ops);

        probe_incremental(t, &ctx, &model, seed, next());

        let r = next();
        let id = t.open("core.embed_in", "", None, r);
        let emb = wm.embed_in(&ctx, &sig, Parallelism::Serial);
        t.close(id, ops);
        if let Ok(emb) = emb {
            let _ = t.span(("core.detect_in", ""), None, r, ops, || {
                wm.detect_in(&emb.schedule, &ctx, &sig, Parallelism::Serial)
            });
        }
    }
    let _ = std::fs::remove_dir_all(store_dir);
}

/// One temporal edge near the end of the topological order, then the
/// criticality cache's patched answer vs the from-scratch one.
fn probe_incremental(t: &mut Tracer, ctx: &DesignContext, model: &KindBounds, seed: u64, r: u64) {
    let mut edited = DesignContext::new(ctx.graph().clone());
    let mut cache = CriticalityCache::new();
    let _ = cache.criticality_in(&edited, model, PROBE_SAMPLES, seed, Parallelism::Serial);
    let order = edited.topo().to_vec();
    let n = order.len();
    let added = (2..n.min(12)).any(|back| {
        edited
            .add_temporal_edge(order[n - back - 1], order[n - 1])
            .is_ok()
    });
    if !added {
        return;
    }
    let _ = t.span(("timing.criticality_cache", "patch"), None, r, 0, || {
        cache.criticality_in(&edited, model, PROBE_SAMPLES, seed, Parallelism::Serial)
    });
    let _ = t.span(("timing.criticality_in", "after_edit"), None, r, 0, || {
        criticality_in(&edited, model, PROBE_SAMPLES, seed, Parallelism::Serial)
    });
}

/// A few session episodes straight to a backend, for workloads whose
/// traffic opens none. Returns `(kind, latency ns)` per step.
fn probe_session(addr: &str, seed: u64) -> Vec<(Kind, u64)> {
    let mut out = Vec::new();
    for k in 0..4u64 {
        let (design, steps) = workloads::session_inputs(seed ^ k, seed ^ (k << 8));
        let session = load::Session::new(0, format!("probe-{k}"), design, steps);
        let mut c = load::connect(addr);
        for (kind, line) in session.lines() {
            let started = Instant::now();
            let resp = c
                .send_line(line)
                .and_then(|()| c.recv_line())
                .expect("session probe request");
            out.push((*kind, started.elapsed().as_nanos() as u64));
            assert!(resp.contains("\"ok\":true"), "session probe failed: {resp}");
        }
    }
    out
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Spans grouped by name (and tag), with self times.
struct Index<'a> {
    spans: &'a [Span],
    selfs: Vec<u64>,
}

impl Index<'_> {
    fn self_ns(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .zip(&self.selfs)
            .filter(|(s, _)| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|(_, &d)| d as f64)
            .collect()
    }

    fn per_work(&self, name: &str, tag: Option<&str>, scale: f64) -> Vec<f64> {
        self.spans
            .iter()
            .zip(&self.selfs)
            .filter(|(s, _)| s.name == name && tag.is_none_or(|t| s.tag == t) && s.work > 0)
            .map(|(s, &d)| d as f64 / s.work as f64 * scale)
            .collect()
    }
}

/// One replayed request: the durations of its spans by name.
#[derive(Default, Clone, Copy)]
struct Replayed {
    traffic: bool,
    kind: &'static str,
    wire: f64,
    decode: f64,
    resolve: f64,
    execute: f64,
    encode: f64,
}

fn replays(spans: &[Span]) -> Vec<Replayed> {
    let roots: HashMap<u64, (&'static str, bool)> = spans
        .iter()
        .filter(|s| s.name == "client.call" || s.name == "probe.request")
        .map(|s| (s.id, (s.tag, s.name == "client.call")))
        .collect();
    let mut by_root: HashMap<u64, Replayed> = HashMap::new();
    for s in spans {
        let Some(p) = s.parent else { continue };
        let Some(&(kind, traffic)) = roots.get(&p) else {
            continue;
        };
        let r = by_root.entry(p).or_insert(Replayed {
            traffic,
            kind,
            ..Replayed::default()
        });
        let d = s.dur_ns() as f64;
        match s.name {
            "client.wire" => r.wire = d,
            "serve.protocol.decode" => r.decode = d,
            "serve.cache.resolve" => r.resolve = d,
            "serve.handlers.execute" => r.execute = d,
            "serve.protocol.encode" => r.encode = d,
            _ => {}
        }
    }
    by_root.into_values().filter(|r| r.decode > 0.0).collect()
}

/// Handler self time of `kind`: the `execute` span minus the design
/// resolve it performs internally, which the replay measured just before
/// as its own span. Taken from replayed traffic when the workload sends
/// the kind, otherwise from the probe replays.
fn handler_ns(replayed: &[Replayed], kind: &str) -> f64 {
    let pick = |traffic: bool| -> Vec<f64> {
        replayed
            .iter()
            .filter(|r| r.traffic == traffic && r.kind == kind)
            .map(|r| (r.execute - r.resolve).max(0.0))
            .collect()
    };
    let traffic = pick(true);
    median(if traffic.is_empty() {
        pick(false)
    } else {
        traffic
    })
}

#[allow(clippy::too_many_arguments)]
fn compute(
    spans: &[Span],
    untraced: &Window,
    traced: &Window,
    before: &Counters,
    after: &Counters,
    probe_gateway: Option<(u64, Vec<u64>)>,
    session_probe: &[(Kind, u64)],
) -> Vec<(&'static str, &'static str, f64)> {
    let idx = Index {
        spans,
        selfs: self_times(spans),
    };
    let replayed = replays(spans);
    let traffic: Vec<&Replayed> = replayed.iter().filter(|r| r.traffic).collect();
    let d = |f: fn(&Counters) -> u64| f(after).saturating_sub(f(before)) as f64;
    let requests = traced.attempted().max(1) as f64;
    let session_us = |kind: Kind| {
        let mut v: Vec<f64> = traced
            .latencies(Some(kind))
            .into_iter()
            .map(|n| n as f64)
            .collect();
        if v.is_empty() {
            v = session_probe
                .iter()
                .filter(|s| s.0 == kind)
                .map(|s| s.1 as f64)
                .collect();
        }
        us(median(v))
    };
    let (retries, served, routed) = match probe_gateway {
        Some((retries, served)) => {
            let routed = served.iter().sum::<u64>() as f64;
            (retries as f64, served, routed)
        }
        None => {
            let served: Vec<u64> = after
                .served
                .iter()
                .zip(&before.served)
                .map(|(a, b)| a - b)
                .collect();
            let routed = served.iter().sum::<u64>() as f64;
            (d(|c| c.retries), served, routed)
        }
    };
    let gw = median(idx.self_ns("gateway.call", None));
    let direct = median(idx.self_ns("direct.call", None));
    let rps_untraced = untraced.per_cpu_second();
    let rps_traced = traced.per_cpu_second();
    let crit_patch = median(idx.self_ns("timing.criticality_cache", Some("patch")));
    let crit_scratch = median(idx.self_ns("timing.criticality_in", Some("after_edit")));

    vec![
        (
            "serve.protocol.decode_us",
            "us",
            us(median(traffic.iter().map(|r| r.decode).collect())),
        ),
        (
            "serve.protocol.encode_us",
            "us",
            us(median(traffic.iter().map(|r| r.encode).collect())),
        ),
        (
            "serve.protocol.request_kb",
            "KB",
            traced.request_bytes() as f64 / requests / 1024.0,
        ),
        (
            "serve.cache.resolve_hit_us",
            "us",
            us(median(
                traffic
                    .iter()
                    .filter(|r| r.resolve > 0.0)
                    .map(|r| r.resolve)
                    .collect(),
            )),
        ),
        (
            "serve.cache.resolve_miss_us",
            "us",
            us(median(
                idx.self_ns("serve.cache.get_or_parse", Some("miss")),
            )),
        ),
        (
            "serve.cache.rehydrate_us",
            "us",
            us(median(
                idx.self_ns("serve.cache.get_or_parse", Some("rehydrate")),
            )),
        ),
        (
            "serve.cache.hit_ratio",
            "ratio",
            d(|c| c.hits) / (d(|c| c.hits) + d(|c| c.misses)).max(1.0),
        ),
        (
            "serve.cache.evictions_per_kreq",
            "count",
            d(|c| c.evictions) / requests * 1000.0,
        ),
        (
            "serve.handlers.timing_us",
            "us",
            us(handler_ns(&replayed, "timing")),
        ),
        (
            "serve.handlers.analyze_ms",
            "ms",
            handler_ns(&replayed, "analyze") / 1e6,
        ),
        (
            "serve.server.wait_us",
            "us",
            us(median(
                traffic
                    .iter()
                    .map(|r| r.wire - r.decode - r.execute - r.encode)
                    .collect(),
            )),
        ),
        ("serve.queue.rejected", "count", d(|c| c.rejected)),
        (
            "serve.singleflight.coalesced_ratio",
            "ratio",
            d(|c| c.coalesced) / (d(|c| c.coalesced) + d(|c| c.executed)).max(1.0),
        ),
        ("serve.session.mutate_us", "us", session_us(Kind::Mutate)),
        (
            "serve.session.analyze_us",
            "us",
            session_us(Kind::SessionAnalyze),
        ),
        (
            "engine.context_build_us",
            "us",
            us(median(idx.self_ns("engine.context_build", None))),
        ),
        (
            "engine.bounded_us",
            "us",
            us(median(idx.self_ns("engine.bounded", None))),
        ),
        (
            "engine.pool.steals_per_job",
            "ratio",
            d(|c| c.pool_steals) / d(|c| c.pool_jobs).max(1.0),
        ),
        (
            "timing.criticality_ns_per_sample_op",
            "ns",
            median(idx.per_work("timing.criticality_in", Some("scratch"), 1.0)),
        ),
        (
            "timing.incremental_speedup",
            "x",
            if crit_patch > 0.0 {
                crit_scratch / crit_patch
            } else {
                0.0
            },
        ),
        (
            "core.embed_ms",
            "ms",
            median(idx.self_ns("core.embed_in", None)) / 1e6,
        ),
        (
            "core.detect_ms",
            "ms",
            median(idx.self_ns("core.detect_in", None)) / 1e6,
        ),
        (
            "cdfg.parse_us_per_kb",
            "us/KB",
            median(idx.per_work("cdfg.parse_cdfg", None, 1024.0 / 1e3)),
        ),
        (
            "store.get_us",
            "us",
            us(median(idx.self_ns("store.get", None))),
        ),
        (
            "store.put_us",
            "us",
            us(median(idx.self_ns("store.put", None))),
        ),
        (
            "store.bytes_per_design",
            "B",
            median(
                idx.spans
                    .iter()
                    .filter(|s| s.name == "store.put")
                    .map(|s| s.work as f64)
                    .collect(),
            ),
        ),
        ("gateway.relay_us", "us", us(gw - direct)),
        (
            "gateway.retries_per_kreq",
            "count",
            retries / routed.max(1.0) * 1000.0,
        ),
        ("gateway.route_skew", "ratio", skew(&served)),
        (
            "trace.overhead_pct",
            "%",
            (rps_untraced - rps_traced) / rps_untraced.max(1e-9) * 100.0,
        ),
    ]
}
