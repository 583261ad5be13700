//! `localwm` — command-line front end for the local-watermarks toolkit.
//!
//! ```text
//! localwm gen <design> [--seed N] -o design.cdfg     generate a design
//! localwm info <design.cdfg>                         structural summary
//! localwm dot <design.cdfg>                          Graphviz to stdout
//! localwm embed <design.cdfg> --author <id>          watermark + schedule
//!         [--fraction F | --k K] -o schedule.txt [--marked marked.cdfg]
//! localwm detect <design.cdfg> <schedule.txt> --author <id>
//! localwm attack <design.cdfg> --author <id> [--attack KIND] [--budget B]
//!         [--seed N] [-o schedule.txt] [--trace-out FILE]
//! localwm strength <design.cdfg>|--corpus DIR --author <id>
//!         [--budgets B1,B2,...] [--seed N] [--json] [-o FILE]
//! localwm schedule <design.cdfg> [--scheduler list|fds|alap] [--steps N]
//! localwm simulate <design.cdfg> [--seed N]
//! localwm analyze <design.cdfg> [--deadline N] [--lo N --hi N]
//!         [--samples N] [--seed N] [--probe-out FILE]
//! localwm serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!         [--cache-cap N] [--default-timeout-ms N] [--metrics-out FILE]
//!         [--store-dir DIR]
//! localwm store <ls|get HASH|verify|compact> --dir DIR
//! localwm gateway --backends [name=]H:P,... [--addr HOST:PORT]
//!         [--replicas N] [--max-retries N] [--health-interval-ms N|off]
//! localwm request <kind> [--addr HOST:PORT] [--design FILE] [--repeat N] ...
//! localwm chaos [--seed N] [--requests N] [--faults-per-point N] [--json]
//!         [--workers N] [--queue-depth N] [--cache-cap N] [--report-out FILE]
//! localwm chaos --gateway [--seed N] [--requests N] [--backends N]
//!         [--replicas N] [--no-kill] [--no-restart] [--json]
//! ```
//!
//! `<design>` for `gen` is one of `iir4`, a Table II key
//! (`cf-iir`, `linear-ge`, `wavelet`, `modem`, `volterra2`, `volterra3`,
//! `dac`, `echo`), or `mediabench:<app>` (`dac`, `g721`, `epic`, `pegwit`,
//! `pgp`, `gsm`, `jpeg`, `mpeg2`).

use std::any::Any;
use std::process::ExitCode;

mod attack_cmd;
mod chaos_cmd;
mod commands;
mod gateway_cmd;
mod serve_cmd;
mod store_cmd;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A reader that closes stdout early (`localwm analyze … | head -1`)
    // makes the next `println!` panic with EPIPE. The reader has seen all
    // it wants, so that ends the command quietly with success.
    let report_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !is_closed_stdout(info.payload()) {
            report_panic(info);
        }
    }));
    match std::panic::catch_unwind(|| commands::run(&args)) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(payload) if is_closed_stdout(payload.as_ref()) => ExitCode::SUCCESS,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Whether a panic payload is `print!`'s report of a write to a stdout
/// whose reader has gone (`EPIPE`).
fn is_closed_stdout(payload: &(dyn Any + Send)) -> bool {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied());
    msg.is_some_and(|m| m.starts_with("failed printing to stdout") && m.contains("Broken pipe"))
}
