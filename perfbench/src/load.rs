//! Closed-loop load and the output check.
//!
//! Each client thread keeps one connection and sends its next request only
//! after the previous response has fully arrived, as every real caller of
//! the service does (`localwm request`, the gateway's upstream relay, the
//! session clients). Every response is checked: against the first
//! response seen for the same request while the window runs, and after the
//! window against an in-process `handlers::execute` reference (plain
//! requests) or the from-scratch session replay (session steps).

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use localwm_serve::session::SessionState;
use localwm_serve::{handlers, Client, ContextCache, Request, RequestKind, Response};
use localwm_testkit::trace::{replay_scratch, TraceStep};
use serde::Value;

use crate::layers::ShadowReplay;
use crate::stats::{host_steal_s, process_cpu_s};
use crate::trace::Tracer;

/// A request kind as the benchmark reports it: session steps are told
/// apart from the stateless kinds because their cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Timing,
    Analyze,
    Embed,
    Detect,
    Open,
    Mutate,
    SessionTiming,
    SessionAnalyze,
    Close,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Timing => "timing",
            Kind::Analyze => "analyze",
            Kind::Embed => "embed",
            Kind::Detect => "detect",
            Kind::Open => "session.open",
            Kind::Mutate => "session.mutate",
            Kind::SessionTiming => "session.timing",
            Kind::SessionAnalyze => "session.analyze",
            Kind::Close => "session.close",
        }
    }
}

/// A stateless request with its wire line, rendered once at set-up.
pub struct Plain {
    pub kind: Kind,
    pub req: Request,
    pub line: String,
}

impl Plain {
    pub fn new(kind: Kind, req: Request) -> Arc<Plain> {
        let line = req.to_line();
        Arc::new(Plain { kind, req, line })
    }
}

/// One session: `open`, the steps of a seeded edit trace, `close`.
pub struct Session {
    /// Index into the workload's session table (the check key).
    pub index: usize,
    pub name: String,
    pub design: String,
    pub steps: Vec<TraceStep>,
    lines: Vec<(Kind, String)>,
}

/// Request id of a session's `open`; steps use their index, as the trace
/// oracle does.
const OPEN_ID: u64 = 1 << 40;
const CLOSE_ID: u64 = OPEN_ID + 1;

impl Session {
    pub fn new(index: usize, name: String, design: String, steps: Vec<TraceStep>) -> Arc<Session> {
        let mut lines = Vec::with_capacity(steps.len() + 2);
        let mut open = Request::new(RequestKind::Open);
        open.id = Some(OPEN_ID);
        open.session = Some(name.clone());
        open.design = Some(design.clone());
        lines.push((Kind::Open, open.to_line()));
        for (i, step) in steps.iter().enumerate() {
            let (kind, mut req) = match step {
                TraceStep::Edits(edits) => {
                    let mut r = Request::new(RequestKind::Mutate);
                    r.edits = Some(edits.clone());
                    (Kind::Mutate, r)
                }
                TraceStep::Timing { deadline } => {
                    let mut r = Request::new(RequestKind::Timing);
                    r.deadline = *deadline;
                    (Kind::SessionTiming, r)
                }
                TraceStep::Analyze { samples, seed } => {
                    let mut r = Request::new(RequestKind::Analyze);
                    r.samples = Some(*samples);
                    r.seed = Some(*seed);
                    (Kind::SessionAnalyze, r)
                }
            };
            req.id = Some(i as u64);
            req.session = Some(name.clone());
            lines.push((kind, req.to_line()));
        }
        let mut close = Request::new(RequestKind::Close);
        close.id = Some(CLOSE_ID);
        close.session = Some(name.clone());
        lines.push((Kind::Close, close.to_line()));
        Arc::new(Session {
            index,
            name,
            design,
            steps,
            lines,
        })
    }

    /// Every request of the session, in order: open, steps, close.
    pub fn lines(&self) -> &[(Kind, String)] {
        &self.lines
    }

    /// The expected response line of every request in [`Session::lines`]
    /// order: `open` and `close` from a held [`SessionState`], the steps
    /// from the trace oracle's from-scratch replay (a fresh session per
    /// step, every earlier edit batch replayed).
    fn reference(&self) -> Vec<String> {
        let state = SessionState::open(&self.design).expect("session designs parse");
        let mut out =
            vec![Response::success(Some(OPEN_ID), "open", state.describe(&self.name)).to_line()];
        out.extend(replay_scratch(&self.design, &self.steps, &self.name).expect("session replay"));
        let mut state = state;
        for step in &self.steps {
            if let TraceStep::Edits(edits) = step {
                let _ = state.mutate(&self.name, edits);
            }
        }
        out.push(Response::success(Some(CLOSE_ID), "close", state.close(&self.name)).to_line());
        out
    }
}

/// One unit of closed-loop work.
pub enum Episode {
    /// One stateless request.
    Plain(Arc<Plain>),
    /// `embed`, then `detect` of the schedule the embed returned.
    EmbedDetect(Arc<Plain>),
    /// A whole session.
    Session(Arc<Session>),
}

/// Offset of a detect's id from its embed's: detects are built at run
/// time from the embed response.
const DETECT_ID_OFFSET: u64 = 1 << 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CheckKey {
    Plain(u64),
    Session(usize, usize),
}

struct Seen {
    request: String,
    response: String,
    count: u64,
}

/// What one client observed.
#[derive(Default)]
struct ClientLog {
    /// Latencies of answered requests by distinct request, in units of
    /// 10 ns: four bytes a request, so the log barely moves the process's
    /// peak memory.
    latencies: HashMap<CheckKey, (Kind, Vec<u32>)>,
    /// Successful responses, and those of them that arrived by the deadline.
    ok: u64,
    ok_by_deadline: u64,
    attempted: u64,
    failed: u64,
    /// Responses that differed from the first one seen for their request.
    mismatches: u64,
    /// Sum of request line lengths (bytes).
    request_bytes: u64,
    seen: HashMap<CheckKey, Seen>,
    sessions: HashMap<usize, Arc<Session>>,
}

struct ClientState<'a> {
    addr: &'a str,
    client: Client,
    deadline: Instant,
    log: ClientLog,
    tracer: Option<Tracer>,
    shadow: Option<ShadowReplay>,
    shadow_every: u64,
    plain_sent: u64,
    next_req: u64,
}

impl ClientState<'_> {
    /// Sends one line and waits for its response; records the latency.
    /// `None` on an I/O error (counted, connection replaced). When traced,
    /// also returns the `client.call` span and the request id; a shadowed
    /// request's span is left open for [`ClientState::replay`] to close.
    ///
    /// A `shadowed` request's span gets a `client.wire` child around the
    /// round trip, beside the replay's children; other requests get the
    /// `client.call` span alone.
    fn call(
        &mut self,
        kind: Kind,
        key: CheckKey,
        line: &str,
        shadowed: bool,
    ) -> Option<(String, Option<(u64, u64)>)> {
        self.log.attempted += 1;
        self.log.request_bytes += line.len() as u64;
        let req_id = self.next_req;
        self.next_req += 1;
        let spans = self.tracer.as_mut().map(|t| {
            let root = t.open("client.call", kind.name(), None, req_id);
            let wire = shadowed.then(|| t.open("client.wire", kind.name(), Some(root), req_id));
            (root, wire)
        });
        let started = Instant::now();
        let outcome = self
            .client
            .send_line(line)
            .and_then(|()| self.client.recv_line());
        let finished = Instant::now();
        if let (Some(t), Some((root, wire))) = (self.tracer.as_mut(), spans) {
            t.close(wire.unwrap_or(root), line.len() as u64);
        }
        match outcome {
            Ok(resp) => {
                if resp.contains("\"ok\":true") {
                    self.log.ok += 1;
                    self.log.ok_by_deadline += u64::from(finished <= self.deadline);
                } else {
                    self.log.failed += 1;
                }
                let tens_of_ns =
                    u32::try_from((finished - started).as_nanos() / 10).unwrap_or(u32::MAX);
                self.log
                    .latencies
                    .entry(key)
                    .or_insert_with(|| (kind, Vec::new()))
                    .1
                    .push(tens_of_ns);
                Some((resp, spans.map(|(root, _)| (root, req_id))))
            }
            Err(e) => {
                eprintln!("perfbench: {} request failed: {e}", kind.name());
                self.log.failed += 1;
                if let (Some(t), Some((root, _))) = (self.tracer.as_mut(), spans) {
                    t.close(root, 0);
                }
                self.client = connect(self.addr);
                None
            }
        }
    }

    /// Whether the next plain request is one the traced window replays.
    fn shadow_next(&mut self) -> bool {
        if self.tracer.is_none() || self.shadow.is_none() {
            return false;
        }
        self.plain_sent += 1;
        self.plain_sent.is_multiple_of(self.shadow_every)
    }

    /// Runs the shadow replay of `plain` inside its `client.call` span,
    /// then closes the span (with the request line's length as its work).
    fn replay(&mut self, traced: Option<(u64, u64)>, plain: &Plain) {
        let (Some(t), Some(shadow), Some((root, req_id))) =
            (self.tracer.as_mut(), self.shadow.as_mut(), traced)
        else {
            return;
        };
        shadow.replay(t, root, req_id, plain);
        t.close(root, plain.line.len() as u64);
    }

    fn check(&mut self, key: CheckKey, request: &str, response: String) {
        match self.log.seen.get_mut(&key) {
            Some(seen) => {
                if seen.request == request && seen.response == response {
                    seen.count += 1;
                } else {
                    eprintln!("perfbench: response for {key:?} changed between repetitions");
                    self.log.mismatches += 1;
                    self.log.failed += 1;
                }
            }
            None => {
                self.log.seen.insert(
                    key,
                    Seen {
                        request: request.to_owned(),
                        response,
                        count: 1,
                    },
                );
            }
        }
    }

    fn plain(&mut self, plain: &Plain) -> Option<String> {
        let key = CheckKey::Plain(plain.req.id.expect("plain requests carry ids"));
        let shadowed = self.shadow_next();
        let (resp, traced) = self.call(plain.kind, key, &plain.line, shadowed)?;
        if shadowed {
            self.replay(traced, plain);
        }
        self.check(key, &plain.line, resp.clone());
        Some(resp)
    }

    fn run(&mut self, episode: &Episode) {
        match episode {
            Episode::Plain(p) => {
                let _ = self.plain(p);
            }
            Episode::EmbedDetect(embed) => {
                let Some(resp) = self.plain(embed) else {
                    return;
                };
                let schedule = Response::from_line(&resp).ok().and_then(|r| {
                    match r.result_field("schedule") {
                        Some(Value::Str(s)) => Some(s.clone()),
                        _ => None,
                    }
                });
                let Some(schedule) = schedule else {
                    eprintln!("perfbench: embed response carries no schedule: {resp}");
                    return;
                };
                if Instant::now() >= self.deadline {
                    return;
                }
                let mut detect = embed.req.clone();
                detect.kind = RequestKind::Detect;
                detect.id = embed.req.id.map(|id| id + DETECT_ID_OFFSET);
                detect.schedule = Some(schedule);
                let _ = self.plain(&Plain::new(Kind::Detect, detect));
            }
            Episode::Session(s) => {
                self.log
                    .sessions
                    .entry(s.index)
                    .or_insert_with(|| Arc::clone(s));
                let last = s.lines.len() - 1;
                for (i, (kind, line)) in s.lines.iter().enumerate() {
                    // Past the deadline the session is still closed, but
                    // the close is neither timed nor checked.
                    if i < last && Instant::now() >= self.deadline {
                        let _ = self.client.send_line(&s.lines[last].1);
                        let _ = self.client.recv_line();
                        return;
                    }
                    let key = CheckKey::Session(s.index, i);
                    let Some((resp, _)) = self.call(*kind, key, line, false) else {
                        return;
                    };
                    self.check(key, line, resp);
                }
            }
        }
    }
}

pub fn connect(addr: &str) -> Client {
    let c = Client::connect_within(addr, Duration::from_secs(5)).expect("connect to the service");
    c.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    c
}

/// What a window of closed-loop load produced.
pub struct Window {
    pub seconds: f64,
    /// CPU seconds the process used during the window.
    pub cpu_s: f64,
    /// CPU seconds the host's hypervisor took from this machine during
    /// the window (all CPUs).
    pub steal_s: f64,
    logs: Vec<ClientLog>,
    pub spans: Vec<crate::trace::Span>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    /// Successful requests completed per second of the window.
    pub fn throughput(&self) -> f64 {
        self.logs.iter().map(|l| l.ok_by_deadline).sum::<u64>() as f64 / self.seconds
    }

    /// Successful requests per CPU-second the process (clients, servers
    /// and gateway together) used while the window ran. Unlike
    /// [`Window::throughput`] this does not move with the CPU time other
    /// tenants of the host take from it.
    pub fn per_cpu_second(&self) -> f64 {
        self.logs.iter().map(|l| l.ok).sum::<u64>() as f64 / self.cpu_s.max(1e-9)
    }

    /// The kinds the window sent.
    pub fn kinds(&self) -> Vec<Kind> {
        let mut out: Vec<Kind> = self
            .logs
            .iter()
            .flat_map(|l| l.latencies.values().map(|(k, _)| *k))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Latencies (ns) of every answered request, optionally one kind only.
    pub fn latencies(&self, kind: Option<Kind>) -> Vec<u64> {
        self.logs
            .iter()
            .flat_map(|l| l.latencies.values())
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .flat_map(|(_, v)| v.iter().map(|&t| u64::from(t) * 10))
            .collect()
    }

    /// The typical latency of the mix (ns): each distinct request's median
    /// latency, averaged geometrically with the request's share of the
    /// traffic as its weight. The median of all latencies sits between the
    /// modes of a mix of cheap and costly requests, where a small shift of
    /// either mode moves it far; this statistic moves only as much as the
    /// requests themselves do.
    pub fn typical_latency(&self) -> f64 {
        let mut by_key: HashMap<CheckKey, Vec<f64>> = HashMap::new();
        for (key, (_, v)) in self.logs.iter().flat_map(|l| &l.latencies) {
            by_key
                .entry(*key)
                .or_default()
                .extend(v.iter().map(|&t| t as f64 * 10.0));
        }
        let (mut log_sum, mut n) = (0.0, 0.0);
        for v in by_key.into_values() {
            let count = v.len() as f64;
            log_sum += count * crate::stats::median(v).max(1.0).ln();
            n += count;
        }
        if n == 0.0 {
            0.0
        } else {
            (log_sum / n).exp()
        }
    }

    pub fn request_bytes(&self) -> u64 {
        self.logs.iter().map(|l| l.request_bytes).sum()
    }

    /// Checks every distinct response against its reference; adds each
    /// mismatching response to the failures. Returns the mismatch count.
    pub fn verify(&mut self) -> u64 {
        let cache = ContextCache::new(64);
        let mut plain_refs: HashMap<String, String> = HashMap::new();
        let mut session_refs: HashMap<usize, Vec<String>> = HashMap::new();
        let mut bad = 0;
        for log in &mut self.logs {
            let mut log_bad = 0;
            for (key, seen) in &log.seen {
                let want = match key {
                    CheckKey::Plain(_) => plain_refs
                        .entry(seen.request.clone())
                        .or_insert_with(|| reference_line(&cache, &seen.request))
                        .clone(),
                    CheckKey::Session(index, step) => {
                        let s = &log.sessions[index];
                        session_refs.entry(*index).or_insert_with(|| s.reference())[*step].clone()
                    }
                };
                if want != seen.response {
                    eprintln!(
                        "perfbench: output mismatch for {key:?}\n  want {want}\n  got  {}",
                        seen.response
                    );
                    log_bad += seen.count;
                }
            }
            log.failed += log_bad;
            bad += log_bad + log.mismatches;
        }
        bad
    }
}

/// The wire-exact in-process answer to `line`.
fn reference_line(cache: &ContextCache, line: &str) -> String {
    let req = Request::from_line(line).expect("benchmark requests decode");
    match handlers::execute(cache, &req) {
        Ok(v) => Response::success(req.id, req.kind.as_str(), v),
        Err(e) => Response::failure(req.id, req.kind.as_str(), e),
    }
    .to_line()
}

/// What a traced window records: spans timed from `epoch`, and the
/// in-process replay of every `shadow_every`-th plain request, one
/// replayer per client.
pub struct TraceSetup {
    pub epoch: Instant,
    pub shadows: Vec<ShadowReplay>,
    pub shadow_every: u64,
}

/// Runs one closed loop per script against `addr` for `seconds`; client
/// `c` cycles through `scripts[c]`. With `trace`, every request gets a
/// span and every `shadow_every`-th plain request is replayed in-process
/// by `shadows[c]` under the same request id.
pub fn run_window(
    addr: &str,
    scripts: &[Vec<Episode>],
    seconds: f64,
    trace: Option<TraceSetup>,
) -> Window {
    let clients = scripts.len();
    let barrier = Barrier::new(clients + 1);
    let (epoch, shadows, shadow_every) = match trace {
        Some(t) => (
            Some(t.epoch),
            t.shadows.into_iter().map(Some).collect(),
            t.shadow_every,
        ),
        None => (None, (0..clients).map(|_| None).collect::<Vec<_>>(), 1),
    };
    let start_cell = std::sync::OnceLock::<Instant>::new();
    let (cpu0, steal0) = (process_cpu_s(), host_steal_s());
    let results: Vec<(ClientLog, Vec<crate::trace::Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .zip(shadows)
            .enumerate()
            .map(|(c, (script, shadow))| {
                let barrier = &barrier;
                let start_cell = &start_cell;
                scope.spawn(move || {
                    let client = connect(addr);
                    barrier.wait();
                    let start = *start_cell
                        .get()
                        .expect("start published before the barrier");
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let mut state = ClientState {
                        addr,
                        client,
                        deadline,
                        log: ClientLog::default(),
                        tracer: epoch
                            .map(|e| Tracer::new(e, u16::try_from(c).expect("few clients"))),
                        shadow,
                        shadow_every,
                        plain_sent: 0,
                        next_req: (c as u64) << 40,
                    };
                    'outer: loop {
                        for episode in script {
                            if Instant::now() >= deadline {
                                break 'outer;
                            }
                            state.run(episode);
                        }
                    }
                    (
                        state.log,
                        state.tracer.map(Tracer::into_spans).unwrap_or_default(),
                    )
                })
            })
            .collect();
        start_cell.set(Instant::now()).expect("start set once");
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let cpu_s = process_cpu_s() - cpu0;
    let steal_s = host_steal_s() - steal0;
    let mut logs = Vec::with_capacity(clients);
    let mut spans = Vec::new();
    for (log, s) in results {
        logs.push(log);
        spans.extend(s);
    }
    Window {
        seconds,
        cpu_s,
        steal_s,
        logs,
        spans,
    }
}
