//! Order statistics and process measurements.

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; 0 for an empty set.
pub fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: Vec<f64>) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, 100 per second.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds used by this process so far, all threads (live and exited),
/// user and system; 0 where `/proc` is missing.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let fields: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum::<f64>() / TICKS_PER_S
}

/// Steal seconds of the whole machine so far (`/proc/stat`, all CPUs):
/// time the hypervisor ran something else while this machine's CPUs had
/// work. 0 where not reported.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |t| t / TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(v.clone()), 2.5);
        assert_eq!(quantile(v.clone(), 0.0), 1.0);
        assert_eq!(quantile(v, 1.0), 4.0);
        assert_eq!(median(Vec::new()), 0.0);
    }
}
