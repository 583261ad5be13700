//! `localwm serve` / `localwm request` — the service front end.

use std::fs;
use std::time::Duration;

use localwm_serve::{Client, Request, RequestKind, ServeConfig};
use serde::Value;

use crate::commands::{check_flags, flag_value, parse_flag};

type CliResult = Result<(), String>;

/// `localwm serve [--addr A] [--workers N] [--queue-depth N] [--cache-cap N]
/// [--default-timeout-ms N] [--session-idle-ms N] [--metrics-out FILE]
/// [--store-dir DIR]`
pub fn serve(args: &[String]) -> CliResult {
    check_flags(
        "serve",
        args,
        &[
            "--addr",
            "--workers",
            "--queue-depth",
            "--cache-cap",
            "--default-timeout-ms",
            "--session-idle-ms",
            "--metrics-out",
            "--store-dir",
        ],
        &[],
    )?;
    let mut cfg = ServeConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:7171")
            .to_owned(),
        ..ServeConfig::default()
    };
    if let Some(n) = parse_flag::<usize>(args, "--workers")? {
        cfg.workers = n;
    }
    if let Some(n) = parse_flag::<usize>(args, "--queue-depth")? {
        cfg.queue_depth = n;
    }
    if let Some(n) = parse_flag::<usize>(args, "--cache-cap")? {
        cfg.cache_cap = n;
    }
    cfg.default_timeout_ms = parse_flag::<u64>(args, "--default-timeout-ms")?;
    cfg.session_idle_ms = parse_flag::<u64>(args, "--session-idle-ms")?;
    cfg.metrics_out = flag_value(args, "--metrics-out").map(str::to_owned);
    cfg.store_dir = flag_value(args, "--store-dir").map(str::to_owned);

    let handle = localwm_serve::start(cfg).map_err(|e| format!("bind failed: {e}"))?;
    println!("localwm-serve listening on {}", handle.addr());
    handle.join();
    println!("localwm-serve stopped");
    Ok(())
}

/// `localwm request <kind> [--addr A] [--design FILE] [--author ID]
/// [--schedule FILE] [--fraction F] [--k K] [--deadline N] [--lo N --hi N]
/// [--samples N] [--seed N] [--attack KIND] [--budget B] [--budgets LIST]
/// [--timeout-ms N] [--schedule-out FILE]
/// [--repeat N] [--session ID] [--edits FILE] [--binary]`
///
/// `--binary` negotiates the `LWMB1` framed encoding for the connection;
/// responses decode to the same bytes, so output is unchanged.
///
/// Or: `localwm request --edit-trace FILE --design FILE [--session ID]
/// [--addr A]` — replays a whole edit trace (see `localwm-testkit`'s trace
/// grammar) through one held session.
///
/// `--repeat N` issues the same request N times over one keep-alive
/// connection and prints a cold-vs-warm latency summary after the (last)
/// response; with a gateway address this exercises the pooled route path.
pub fn request(args: &[String]) -> CliResult {
    if args.iter().any(|a| a == "--edit-trace") {
        check_flags(
            "request --edit-trace",
            args,
            &["--edit-trace", "--design", "--session", "--addr"],
            &[],
        )?;
        return replay_edit_trace(args);
    }
    check_flags(
        "request",
        args,
        &[
            "--addr",
            "--id",
            "--design",
            "--author",
            "--schedule",
            "--session",
            "--edits",
            "--fraction",
            "--k",
            "--deadline",
            "--lo",
            "--hi",
            "--samples",
            "--seed",
            "--attack",
            "--budget",
            "--budgets",
            "--timeout-ms",
            "--repeat",
            "--schedule-out",
        ],
        &["--binary"],
    )?;
    let kind_raw = args.first().map(String::as_str).ok_or(
        "usage: localwm request <embed|detect|analyze|timing|attack|strength|open|mutate|close|stats|cluster_stats|shutdown> ...",
    )?;
    let kind =
        RequestKind::parse(kind_raw).ok_or_else(|| format!("unknown request kind `{kind_raw}`"))?;
    let args = &args[1..];
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7171");

    let mut req = Request::new(kind);
    req.id = parse_flag::<u64>(args, "--id")?;
    if let Some(path) = flag_value(args, "--design") {
        req.design = Some(fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?);
    }
    req.author = flag_value(args, "--author").map(str::to_owned);
    if let Some(path) = flag_value(args, "--schedule") {
        req.schedule = Some(fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?);
    }
    req.session = flag_value(args, "--session").map(str::to_owned);
    if let Some(path) = flag_value(args, "--edits") {
        req.edits = Some(fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?);
    }
    req.fraction = parse_flag::<f64>(args, "--fraction")?;
    req.k = parse_flag::<usize>(args, "--k")?;
    req.deadline = parse_flag::<u32>(args, "--deadline")?;
    req.lo = parse_flag::<u64>(args, "--lo")?;
    req.hi = parse_flag::<u64>(args, "--hi")?;
    req.samples = parse_flag::<usize>(args, "--samples")?;
    req.seed = parse_flag::<u64>(args, "--seed")?;
    req.attack = flag_value(args, "--attack").map(str::to_owned);
    req.budget = parse_flag::<f64>(args, "--budget")?;
    req.budgets = flag_value(args, "--budgets").map(str::to_owned);
    req.timeout_ms = parse_flag::<u64>(args, "--timeout-ms")?;

    let repeat = parse_flag::<usize>(args, "--repeat")?.unwrap_or(1).max(1);

    let wait = Duration::from_secs(5);
    let mut client = if args.iter().any(|a| a == "--binary") {
        Client::connect_binary_within(addr, wait)
    } else {
        Client::connect_within(addr, wait)
    }
    .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let (resp, latencies) = client
        .call_repeated(&req, repeat)
        .map_err(|e| format!("request failed: {e}"))?;

    if let Some(out) = flag_value(args, "--schedule-out") {
        match resp.result_field("schedule") {
            Some(Value::Str(text)) => {
                fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
            }
            _ => return Err("response carries no schedule text".to_owned()),
        }
    }

    let rendered = serde_json::to_string_pretty(&resp).expect("response serialization");
    println!("{rendered}");
    if repeat > 1 {
        let cold = latencies[0];
        let warm = &latencies[1..];
        let min = warm.iter().min().copied().unwrap_or_default();
        let max = warm.iter().max().copied().unwrap_or_default();
        let mean = warm.iter().sum::<Duration>() / u32::try_from(warm.len()).unwrap_or(1);
        println!(
            "repeat {repeat} over one keep-alive connection: cold {:?}; \
             warm min {min:?} / mean {mean:?} / max {max:?}",
            cold
        );
    }
    if resp.ok {
        Ok(())
    } else {
        let detail = resp
            .error
            .as_ref()
            .map_or_else(|| "unknown error".to_owned(), ToString::to_string);
        Err(format!("server returned an error: {detail}"))
    }
}

/// Replays an edit trace through one held session: `open` with the design,
/// one `mutate` per edit batch, `timing`/`analyze` queries as written, and
/// a final `close`. One response line is printed per step (typed errors
/// included — a failed edit line leaves the session on its last good
/// state), then a summary from the `close` acknowledgement.
fn replay_edit_trace(args: &[String]) -> CliResult {
    let path = flag_value(args, "--edit-trace").ok_or("--edit-trace needs a file path")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let steps = localwm_testkit::trace::parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    let design_path = flag_value(args, "--design").ok_or("--edit-trace needs --design FILE")?;
    let design =
        fs::read_to_string(design_path).map_err(|e| format!("reading {design_path}: {e}"))?;
    let session = flag_value(args, "--session").unwrap_or("cli-trace");
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7171");

    let mut client = Client::connect_within(addr, Duration::from_secs(5))
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let call = |client: &mut Client, req: &Request| {
        client.call(req).map_err(|e| format!("request failed: {e}"))
    };

    let mut open = Request::new(RequestKind::Open);
    open.id = Some(0);
    open.session = Some(session.to_owned());
    open.design = Some(design);
    let resp = call(&mut client, &open)?;
    if !resp.ok {
        return Err(format!("open failed: {}", resp.to_line()));
    }

    let mut failures = 0usize;
    for (i, step) in steps.iter().enumerate() {
        use localwm_testkit::trace::TraceStep;
        let mut req = match step {
            TraceStep::Edits(edits) => {
                let mut r = Request::new(RequestKind::Mutate);
                r.edits = Some(edits.clone());
                r
            }
            TraceStep::Timing { deadline } => {
                let mut r = Request::new(RequestKind::Timing);
                r.deadline = *deadline;
                r
            }
            TraceStep::Analyze { samples, seed } => {
                let mut r = Request::new(RequestKind::Analyze);
                r.samples = Some(*samples);
                r.seed = Some(*seed);
                r
            }
        };
        req.id = Some(i as u64 + 1);
        req.session = Some(session.to_owned());
        let resp = call(&mut client, &req)?;
        if !resp.ok {
            failures += 1;
        }
        println!("{}", resp.to_line());
    }

    let mut close = Request::new(RequestKind::Close);
    close.id = Some(steps.len() as u64 + 1);
    close.session = Some(session.to_owned());
    let resp = call(&mut client, &close)?;
    let mutations = resp.result_field("mutations").map_or_else(
        || "?".to_owned(),
        |v| serde_json::to_string(v).expect("json"),
    );
    println!(
        "replayed {} steps over session `{session}` ({failures} typed errors, {mutations} mutate requests)",
        steps.len()
    );
    Ok(())
}
