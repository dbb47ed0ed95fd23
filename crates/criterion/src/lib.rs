//! Offline stand-in for the `criterion` bench API used by this workspace.
//!
//! The build environment has no crates.io access. This crate keeps the
//! `crates/bench` targets compiling and running with the same source: each
//! `bench_function` runs a short warmup, then `sample_size` timed samples,
//! and prints mean / min / max wall-clock time per iteration — plus, when
//! the group declared a [`Throughput`], the best sample as a rate (MB/s
//! or time per element). There is no statistical analysis, HTML report,
//! or baseline comparison.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Re-exported hint preventing the optimizer from discarding a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortizes setup cost. All variants behave identically
/// here: setup runs once per measured iteration, outside the timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Fresh input per iteration.
    PerIteration,
    /// Small batches (upstream heuristic; same behavior here).
    SmallInput,
    /// Large batches (upstream heuristic; same behavior here).
    LargeInput,
}

/// Passed to every bench closure; runs and times the workload.
pub struct Bencher {
    samples: usize,
    timings: Vec<Duration>,
}

impl Bencher {
    /// Time `routine` repeatedly.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // One untimed warmup to touch caches and lazy state.
        black_box(routine());
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(routine());
            self.timings.push(start.elapsed());
        }
    }

    /// Time `routine` on fresh inputs from `setup`; setup is untimed.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.timings.push(start.elapsed());
        }
    }
}

fn report(name: &str, timings: &[Duration], throughput: Option<Throughput>) {
    if timings.is_empty() {
        println!("bench {name:<40} (no samples)");
        return;
    }
    let total: Duration = timings.iter().sum();
    let mean = total / timings.len() as u32;
    let min = timings.iter().min().copied().unwrap_or_default();
    let max = timings.iter().max().copied().unwrap_or_default();
    // Rates come from the fastest sample: on a shared host the slower
    // samples carry other tenants' interference, not the kernel's cost.
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            format!("  {:.1} MB/s", n as f64 / min.as_secs_f64() / 1e6)
        }
        Some(Throughput::Elements(n)) => {
            format!("  {:.1} ns/elem", min.as_secs_f64() * 1e9 / n as f64)
        }
        None => String::new(),
    };
    println!(
        "bench {name:<40} mean {mean:>12?}  min {min:>12?}  max {max:>12?}  ({} samples){rate}",
        timings.len()
    );
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

/// Work performed per iteration, for reporting rates alongside times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per bench (minimum 1).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Record the per-iteration throughput; later benches in the group
    /// also report their best sample as a rate.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Soft target for total measurement time. Accepted for source
    /// compatibility; sampling here is count-based.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Run and report one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        let id = id.as_ref();
        let mut bencher = Bencher {
            samples: self.sample_size,
            timings: Vec::new(),
        };
        f(&mut bencher);
        report(
            &format!("{}/{}", self.name, id),
            &bencher.timings,
            self.throughput,
        );
        self
    }

    /// End the group (upstream flushes its report here; ours is streaming).
    pub fn finish(&mut self) {}
}

/// Top-level bench driver, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    sample_size: usize,
}

impl Criterion {
    /// Default driver: 10 samples per bench.
    pub fn new() -> Criterion {
        Criterion { sample_size: 10 }
    }

    /// Default sample count for benches outside a group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Open a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size.max(1);
        BenchmarkGroup {
            name: name.into(),
            sample_size,
            throughput: None,
            _parent: self,
        }
    }

    /// Run and report one ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl AsRef<str>,
        mut f: F,
    ) -> &mut Self {
        let id = id.as_ref();
        let mut bencher = Bencher {
            samples: self.sample_size.max(1),
            timings: Vec::new(),
        };
        f(&mut bencher);
        report(id, &bencher.timings, None);
        self
    }
}

/// Collect bench functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::new();
            $($target(&mut c);)+
        }
    };
}

/// Emit `main` running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_routine() {
        let mut c = Criterion::new();
        let mut runs = 0u32;
        c.sample_size(4).bench_function("unit", |b| {
            b.iter(|| runs += 1);
        });
        // 1 warmup + 4 samples.
        assert_eq!(runs, 5);
    }

    #[test]
    fn batched_setup_not_timed_path_runs() {
        let mut c = Criterion::new();
        let mut group = c.benchmark_group("g");
        let mut seen = Vec::new();
        group.sample_size(3).bench_function("batched", |b| {
            b.iter_batched(|| 7u32, |v| seen.push(v), BatchSize::PerIteration);
        });
        group.finish();
        assert_eq!(seen.len(), 4);
    }
}
