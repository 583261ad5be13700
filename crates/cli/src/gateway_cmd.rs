//! `localwm gateway` — run the routing tier over N backends.

use localwm_gateway::{BackendSpec, GatewayConfig};

use crate::commands::{check_flags, flag_value, parse_flag};

/// Runs `localwm gateway --backends [name=]H:P,[name=]H:P,... [--addr A]
/// [--replicas N] [--max-retries N] [--backoff-base-ms N]
/// [--backoff-cap-ms N] [--recv-timeout-ms N] [--health-interval-ms N|off]`.
///
/// The gateway speaks the backend protocol unchanged; point `localwm
/// request` at it like any server. `cluster_stats` aggregates the fleet.
///
/// # Errors
///
/// Returns a message for bad flags or bind failures.
pub fn gateway(args: &[String]) -> Result<(), String> {
    check_flags(
        "gateway",
        args,
        &[
            "--backends",
            "--addr",
            "--replicas",
            "--max-retries",
            "--backoff-base-ms",
            "--backoff-cap-ms",
            "--recv-timeout-ms",
            "--health-interval-ms",
        ],
        &[],
    )?;
    let raw = flag_value(args, "--backends")
        .ok_or("gateway: --backends [name=]host:port[,...] is required")?;
    let backends: Vec<BackendSpec> = raw
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(BackendSpec::parse)
        .collect::<Result<_, _>>()?;

    let mut cfg = GatewayConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:7272")
            .to_owned(),
        backends,
        ..GatewayConfig::default()
    };
    if let Some(n) = parse_flag::<usize>(args, "--replicas")? {
        cfg.replicas = n.max(1);
    }
    if let Some(n) = parse_flag::<u32>(args, "--max-retries")? {
        cfg.max_retries = n;
    }
    if let Some(n) = parse_flag::<u64>(args, "--backoff-base-ms")? {
        cfg.backoff_base_ms = n;
    }
    if let Some(n) = parse_flag::<u64>(args, "--backoff-cap-ms")? {
        cfg.backoff_cap_ms = n;
    }
    if let Some(n) = parse_flag::<u64>(args, "--recv-timeout-ms")? {
        cfg.recv_timeout_ms = n;
    }
    cfg.health_interval_ms = match flag_value(args, "--health-interval-ms") {
        None => cfg.health_interval_ms,
        Some("off") => None,
        Some(raw) => Some(
            raw.parse::<u64>()
                .map_err(|_| format!("bad value for --health-interval-ms: `{raw}`"))?,
        ),
    };

    let names: Vec<String> = cfg.backends.iter().map(|b| b.name.clone()).collect();
    let handle = localwm_gateway::start(cfg).map_err(|e| format!("gateway start failed: {e}"))?;
    println!(
        "localwm-gateway routing {} backends [{}] on {}",
        names.len(),
        names.join(", "),
        handle.addr()
    );
    handle.join();
    println!("localwm-gateway stopped");
    Ok(())
}
