//! Host and build stamp, and the process's peak resident memory.

use qdgnn_obs::json;

/// Worker threads `Trainer::train` uses in every workload. Fixed so
/// that training time and memory do not depend on the host's core count.
pub const TRAIN_THREADS: usize = 1;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One-line JSON stamp: which host, toolchain and build produced the
/// numbers that follow.
pub fn stamp() -> String {
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}, \"obs\": {}, \"train_threads\": {}}}",
        nproc(),
        json::escape(&cpu_model()),
        json::escape(env!("PERFBENCH_RUSTC_VERSION")),
        json::escape(env!("PERFBENCH_PROFILE")),
        if qdgnn_obs::enabled() { "\"on\"" } else { "\"off\"" },
        TRAIN_THREADS
    )
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
