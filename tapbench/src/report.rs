//! Turning a [`RunResult`] into metrics, the result record and the traced
//! per-layer table.

use std::fmt::Write as _;

use crate::host::Host;
use crate::trace::{Count, Span};
use crate::RunResult;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A tail percentile: p99 when at least ten samples lie beyond it,
/// otherwise the quantile that leaves exactly ten beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// The quantile taken.
    pub q: f64,
    /// Samples it was taken over.
    pub samples: usize,
}

/// The nearest-rank `q` quantile of ascending `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and [`Tail`] of `values`.
pub fn median_and_tail(values: &[f64]) -> (f64, Tail) {
    const BEYOND: usize = 10;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let q = if n >= 100 * BEYOND {
        0.99
    } else if n > BEYOND {
        (n - BEYOND) as f64 / n as f64
    } else {
        1.0
    };
    let tail = Tail {
        value: quantile(&sorted, q),
        q,
        samples: n,
    };
    (quantile(&sorted, 0.5), tail)
}

fn median(values: &[f64]) -> f64 {
    median_and_tail(values).0
}

/// Virtual delivery times of the first pass, ms: median and tail.
pub fn virt_ms(r: &RunResult) -> (f64, Tail) {
    let ms: Vec<f64> = r.sim.virt_us().iter().map(|&us| us as f64 / 1e3).collect();
    median_and_tail(&ms)
}

/// Each op's fastest wall time, s, across the passes with `traced` as
/// given: its cost with the host's other tenants filtered out.
fn fastest_op_s(r: &RunResult, traced: bool) -> Vec<f64> {
    r.op_samples(traced)
        .iter()
        .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
        .collect()
}

/// Host wall time per op, ms, over the untraced passes: the median of
/// each op at its fastest pass, and the tail of each op at its median
/// pass, which keeps the interference a caller meets on a typical pass.
pub fn op_ms(r: &RunResult) -> (f64, Tail) {
    let fastest: Vec<f64> = fastest_op_s(r, false).iter().map(|s| s * 1e3).collect();
    let typical: Vec<f64> = r
        .op_samples(false)
        .iter()
        .map(|s| median(s) * 1e3)
        .collect();
    (median(&fastest), median_and_tail(&typical).1)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(r: &RunResult, peak_rss_mb: f64) -> Vec<Metric> {
    let fastest = fastest_op_s(r, false);
    vec![
        metric("setup_s", median(&r.setup_s()), "s"),
        metric(
            "ops_per_s",
            fastest.len() as f64 / fastest.iter().sum::<f64>(),
            "1/s",
        ),
        metric("op_ms_p50", op_ms(r).0, "ms"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric(
            "delivered_frac",
            r.sim.delivered() as f64 / r.sim.ops() as f64,
            "frac",
        ),
    ]
}

/// The per-layer metrics of a traced run.
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let traced_s = r.traced_s();
    let setup_s = r
        .passes
        .iter()
        .rev()
        .find(|p| p.traced)
        .map_or(0.0, |p| p.setup_s);
    let ops = r.attempted() as f64;
    let per_call_us = |secs: f64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            secs * 1e6 / calls as f64
        }
    };
    let mut out = Vec::new();
    for span in Span::ALL {
        let secs = r.trace.seconds(span);
        out.push(metric(
            format!("{}.us", span.name()),
            per_call_us(secs, r.trace.calls(span)),
            "us",
        ));
        out.push(metric(
            format!("{}.share", span.name()),
            secs / traced_s,
            "frac",
        ));
    }
    for span in [Span::AddNode, Span::ReplicaInsert] {
        let secs = r.setup_trace.seconds(span);
        out.push(metric(
            format!("setup.{}.us", span.name()),
            per_call_us(secs, r.setup_trace.calls(span)),
            "us",
        ));
        out.push(metric(
            format!("setup.{}.share", span.name()),
            secs / setup_s,
            "frac",
        ));
    }
    for count in Count::ALL {
        out.push(metric(
            format!("{}.per_op", count.name()),
            r.trace.counted(count) as f64 / ops,
            "count/op",
        ));
    }
    for (name, delta) in &r.registry_counts {
        out.push(metric(
            format!("{name}.per_op"),
            *delta as f64 / ops,
            "count/op",
        ));
    }
    out.push(metric(
        "trace.coverage",
        r.trace.total_seconds() / traced_s,
        "frac",
    ));
    out.push(metric("trace.overhead", overhead(r), "ratio"));
    let (virt_p50, virt_tail) = virt_ms(r);
    out.push(metric("virt_ms_p50", virt_p50, "ms"));
    out.push(metric("virt_ms_tail", virt_tail.value, "ms"));
    out.push(metric(
        "corrupted_frac",
        r.sim.corrupted_frac().unwrap_or(0.0),
        "frac",
    ));
    out
}

/// Traced over untraced ops per second, each op at its fastest pass of
/// either kind, so both sides cover the same ops.
fn overhead(r: &RunResult) -> f64 {
    let untraced: f64 = fastest_op_s(r, false).iter().sum();
    let traced: f64 = fastest_op_s(r, true).iter().sum();
    untraced / traced
}

/// The end-to-end metrics the record carries beside the result's: the
/// op-time tail, which spread too far between runs of one build on a
/// shared host to hold a bound, and the simulated metrics that apply to
/// the run's workload (virtual delivery times where anonymous transfers
/// delivered, corruption where the workload scans for it), which repeat
/// exactly at a fixed seed.
pub fn recorded_only(r: &RunResult) -> Vec<Metric> {
    let mut out = vec![metric("op_ms_tail", op_ms(r).1.value, "ms")];
    if !r.sim.virt_us().is_empty() {
        let (p50, tail) = virt_ms(r);
        out.push(metric("virt_ms_p50", p50, "ms"));
        out.push(metric("virt_ms_tail", tail.value, "ms"));
    }
    if let Some(frac) = r.sim.corrupted_frac() {
        out.push(metric("corrupted_frac", frac, "frac"));
    }
    out
}

/// A finite number as JSON (non-finite values become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn str_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                str_json(&m.name),
                num(m.value),
                str_json(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(r: &RunResult, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.correct(),
        r.attempted(),
        r.failed,
        metrics_json(metrics)
    )
}

fn tail_json(t: &Tail) -> String {
    format!(
        "{{\"value\":{},\"quantile\":{},\"samples\":{}}}",
        num(t.value),
        num(t.q),
        t.samples
    )
}

/// The full result record: host fingerprint, run configuration, every
/// metric with its unit, the quantile and sample count behind each tail,
/// the passes, and the window's simulated outputs with their digest.
pub fn record_json(r: &RunResult, host: &Host, metrics: &[Metric]) -> String {
    let (_, virt_tail) = virt_ms(r);
    let (_, op_tail) = op_ms(r);
    format!(
        concat!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},",
            "\"host\":{{\"cpu\":{},\"nproc\":{},\"rustc\":{},\"sha256_mbps\":{}}},",
            "\"setup_s\":[{}],\"pass_op_s\":[{}],\"ops\":{},\"wall_s\":{},",
            "\"tails\":{{\"op_ms_tail\":{},\"virt_ms_tail\":{}}},",
            "\"sim\":{{\"window_ops\":{},\"delivered\":{},\"digest\":{}}},",
            "\"errors\":[{}],\"metrics\":{}}}"
        ),
        str_json(r.workload.name()),
        r.config.seed,
        num(r.config.seconds),
        u8::from(r.config.trace),
        str_json(&host.cpu),
        host.nproc,
        str_json(host.rustc),
        num(host.sha256_mbps),
        r.setup_s()
            .iter()
            .map(|s| num(*s))
            .collect::<Vec<_>>()
            .join(","),
        r.passes
            .iter()
            .map(|p| num(p.op_s.iter().sum()))
            .collect::<Vec<_>>()
            .join(","),
        r.attempted(),
        num(r.wall_s),
        tail_json(&op_tail),
        tail_json(&virt_tail),
        r.sim.ops(),
        r.sim.delivered(),
        str_json(r.sim.digest()),
        r.errors
            .iter()
            .map(|e| str_json(e))
            .collect::<Vec<_>>()
            .join(","),
        metrics_json(metrics)
    )
}

/// The traced run's per-layer table: calls, seconds, µs per call, share
/// of traced op time and calls per op for every span that ran, then the
/// counts per op.
pub fn table(r: &RunResult) -> String {
    let traced_s = r.traced_s();
    let traced_ops = r.traced_ops() as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} seed {}: {} traced of {} ops, {:.3} s traced",
        r.workload.name(),
        r.config.seed,
        r.traced_ops(),
        r.attempted(),
        traced_s
    );
    let _ = writeln!(
        out,
        "{:<34} {:>10} {:>9} {:>10} {:>7} {:>9}",
        "span", "calls", "seconds", "us/call", "share", "calls/op"
    );
    for span in Span::ALL {
        let calls = r.trace.calls(span);
        if calls == 0 {
            continue;
        }
        let secs = r.trace.seconds(span);
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>9.4} {:>10.3} {:>7.4} {:>9.2}",
            span.name(),
            calls,
            secs,
            secs * 1e6 / calls as f64,
            secs / traced_s,
            calls as f64 / traced_ops
        );
    }
    let coverage = r.trace.total_seconds() / traced_s;
    let overhead = overhead(r);
    let _ = writeln!(
        out,
        "trace.coverage {coverage:.4}  trace.overhead {overhead:.4} (traced/untraced ops_per_s)"
    );
    let ops = r.attempted() as f64;
    let counts = Count::ALL
        .iter()
        .map(|c| (c.name(), r.trace.counted(*c)))
        .chain(r.registry_counts.iter().copied());
    for (name, total) in counts {
        if total > 0 {
            let _ = writeln!(out, "{name:<34} {:>12.3} per op", total as f64 / ops);
        }
    }
    out
}
