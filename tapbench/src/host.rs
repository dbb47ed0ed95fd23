//! The host fingerprint every result record carries, so that numbers are
//! compared only with runs from the same machine.

use std::hint::black_box;
use std::time::Instant;

use tap_crypto::sha256::sha256;

/// Where a run ran.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// Calibration score: SHA-256 throughput of a fixed loop, MB/s.
    pub sha256_mbps: f64,
}

/// Fingerprint this host, running the calibration loop once.
pub fn fingerprint() -> Host {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Host {
        cpu,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: env!("TAPBENCH_RUSTC_VERSION"),
        sha256_mbps: calibrate(),
    }
}

/// Median of three passes hashing 128 blocks of 64 KiB each.
fn calibrate() -> f64 {
    const BLOCK: usize = 64 * 1024;
    const BLOCKS: usize = 128;
    let buf: Vec<u8> = (0..BLOCK).map(|i| (i * 31 + 7) as u8).collect();
    let mut passes: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..BLOCKS {
                black_box(sha256(black_box(&buf)));
            }
            (BLOCK * BLOCKS) as f64 / 1e6 / t0.elapsed().as_secs_f64()
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[1]
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
