//! Paper-scale benchmark of the TAP layers.
//!
//! One single-threaded, closed-loop client drives one of three workloads
//! through the public functions of `tap-pastry`, `tap-core`, `tap-crypto`
//! and `tap-netsim`, in the order of the paper-scale hot loops they stand
//! for:
//!
//! * [`fig6::Fig6`] — one op is one Fig. 6 round (overt route plus four
//!   TAP transfers with fresh tunnels) on a static 10,000-node overlay;
//! * [`fig5::Fig5`] — one op is one Fig. 5 churn unit (100 leaves and 100
//!   joins with replica repair, corruption scan, refreshed redeploy);
//! * [`striped::Striped`] — one op is one 64 KiB erasure-coded 5/3
//!   transfer over disjoint tunnels on a lossy, partitioned wire.
//!
//! A run makes passes over the seed's *window* — a fresh set-up followed
//! by `sim_ops` ops — while another pass fits the requested wall time.
//! Every pass does the same work, so every pass must reproduce the
//! window's simulated outputs (virtual latencies, corruption, delivery,
//! registry counters), which are folded into a digest that depends on the
//! seed alone. Throughput and median op time take each op's fastest time
//! across the passes: other tenants of a shared host slow memory-bound
//! code by up to 1.6× for seconds at a time, and the fastest of several
//! identical passes keeps the program's own cost while shedding theirs.
//! The op-time tail takes each op's median pass, the interference a
//! caller meets on a typical pass. A traced run traces every other pass
//! with spans ([`trace`]), so traced and untraced passes over the same ops
//! give the tracing overhead.

pub mod fig5;
pub mod fig6;
pub mod host;
pub mod report;
pub mod striped;
pub mod trace;

use std::time::{Duration, Instant};

use tap_crypto::sha256::Sha256;
use tap_metrics::Registry;
use tap_netsim::SimDuration;

use crate::trace::Tracer;

/// Registry counters reported per op in traced runs (deltas over the
/// timed phase).
pub const REGISTRY_COUNTS: [&str; 9] = [
    "pastry.replica.inserts",
    "pastry.replica.repairs",
    "pastry.replica.evictions",
    "pastry.leafset.repairs",
    "core.transit.retries",
    "core.transit.giveups",
    "netsim.fault.losses",
    "core.mp.laggards_cancelled",
    "core.mp.stripe_giveups",
];

/// Sizes of one workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Overlay nodes.
    pub nodes: usize,
    /// Ops in the window each pass runs.
    pub sim_ops: usize,
    /// Tunnels per population (fig5).
    pub tunnels: usize,
    /// Leaves and joins per churn unit (fig5).
    pub churn: usize,
    /// Payload bytes per striped transfer.
    pub payload: usize,
}

/// One benchmark workload: set-up, one closed-loop op, end-of-run checks.
pub trait Workload: Sized {
    /// Build the overlay, endpoints and initial deployment from `seed`.
    fn setup(seed: u64, size: &Size, tr: &mut Tracer) -> Self;

    /// Run op number `index`. `Ok(true)` when the op delivered,
    /// `Ok(false)` when the simulated network lost it in a way the system
    /// is allowed to, `Err` when an output check failed.
    fn op(&mut self, index: usize, tr: &mut Tracer, sim: &mut SimLog) -> Result<bool, String>;

    /// The registry every subsystem of this workload records into.
    fn registry(&self) -> &Registry;

    /// Checks over the whole run, after the last op.
    fn finish(&mut self) -> Result<(), String>;
}

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// [`fig6::Fig6`].
    Fig6Transit,
    /// [`fig5::Fig5`].
    Fig5Churn,
    /// [`striped::Striped`].
    StripedLossy,
}

impl WorkloadKind {
    /// Every workload.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::Fig6Transit,
        WorkloadKind::Fig5Churn,
        WorkloadKind::StripedLossy,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Fig6Transit => "fig6-transit",
            WorkloadKind::Fig5Churn => "fig5-churn",
            WorkloadKind::StripedLossy => "striped-lossy",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The size the benchmark runs.
    pub fn paper_size(self) -> Size {
        match self {
            WorkloadKind::Fig6Transit => fig6::PAPER,
            WorkloadKind::Fig5Churn => fig5::PAPER,
            WorkloadKind::StripedLossy => striped::PAPER,
        }
    }

    /// Run this workload.
    pub fn run(self, cfg: &RunConfig) -> RunResult {
        match self {
            WorkloadKind::Fig6Transit => run::<fig6::Fig6>(self, cfg),
            WorkloadKind::Fig5Churn => run::<fig5::Fig5>(self, cfg),
            WorkloadKind::StripedLossy => run::<striped::Striped>(self, cfg),
        }
    }
}

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall-time budget: a pass starts only if a pass as long as the last
    /// one still fits; the first pass (the first two when traced) always
    /// runs.
    pub seconds: f64,
    /// Trace every other pass.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
}

/// Simulated outputs of one pass over the window.
pub struct SimLog {
    /// The digest being fed; `None` once the pass has closed.
    hasher: Option<Sha256>,
    digest: String,
    virt_us: Vec<u64>,
    ops: u64,
    delivered: u64,
    corrupted_frac: Option<f64>,
}

impl SimLog {
    fn new() -> Self {
        SimLog {
            hasher: Some(Sha256::new()),
            digest: String::new(),
            virt_us: Vec::new(),
            ops: 0,
            delivered: 0,
            corrupted_frac: None,
        }
    }

    /// Fold a simulated value into the digest.
    pub fn word(&mut self, w: u64) {
        if let Some(h) = self.hasher.as_mut() {
            h.update(&w.to_le_bytes());
        }
    }

    /// Record the virtual delivery time of a delivered anonymous transfer.
    pub fn transfer(&mut self, elapsed: SimDuration) {
        let us = elapsed.as_micros();
        self.word(us);
        self.virt_us.push(us);
    }

    /// Record the unrefreshed corruption after a churn unit.
    pub fn corrupted(&mut self, corrupted: usize, tunnels: usize) {
        self.word(corrupted as u64);
        self.corrupted_frac = Some(corrupted as f64 / tunnels as f64);
    }

    fn op(&mut self, delivered: bool) {
        self.word(u64::from(delivered));
        self.ops += 1;
        self.delivered += u64::from(delivered);
    }

    /// End the pass: fold in every registry counter and seal the digest.
    fn close(&mut self, registry: &Registry) {
        let Some(mut h) = self.hasher.take() else {
            return;
        };
        for (name, value) in &registry.snapshot().counters {
            h.update(&(name.len() as u64).to_le_bytes());
            h.update(name.as_bytes());
            h.update(&value.to_le_bytes());
        }
        self.digest = h.finalize()[..8]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
    }

    /// Hex digest of the window's simulated outputs.
    pub fn digest(&self) -> &str {
        &self.digest
    }

    /// Virtual delivery times of the window's delivered transfers, µs.
    pub fn virt_us(&self) -> &[u64] {
        &self.virt_us
    }

    /// Ops in the window.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Ops in the window that delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Unrefreshed corruption after the window's last churn unit, on
    /// workloads that scan for corruption.
    pub fn corrupted_frac(&self) -> Option<f64> {
        self.corrupted_frac
    }
}

/// One pass over the window: a fresh set-up and `sim_ops` ops.
pub struct Pass {
    /// Whether the ops ran inside spans.
    pub traced: bool,
    /// Wall seconds of the set-up.
    pub setup_s: f64,
    /// Wall seconds of each op, in order.
    pub op_s: Vec<f64>,
    /// Digest of the pass's simulated outputs.
    pub digest: String,
}

/// Everything one run measured.
pub struct RunResult {
    /// The workload run.
    pub workload: WorkloadKind,
    /// The configuration it ran with.
    pub config: RunConfig,
    /// Every pass over the window, in order.
    pub passes: Vec<Pass>,
    /// Spans of the last traced set-up (empty unless traced).
    pub setup_trace: Tracer,
    /// Wall seconds of the whole run after the host fingerprint: set-ups,
    /// ops and checks.
    pub wall_s: f64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// The first failure messages (op, end-of-pass and digest checks).
    pub errors: Vec<String>,
    /// Simulated outputs of the first pass; every other pass must match.
    pub sim: SimLog,
    /// Spans of the traced passes' ops and counts of every pass's ops.
    pub trace: Tracer,
    /// [`REGISTRY_COUNTS`] deltas over every pass's ops.
    pub registry_counts: Vec<(&'static str, u64)>,
}

impl RunResult {
    /// Ops attempted over every pass.
    pub fn attempted(&self) -> u64 {
        self.passes.iter().map(|p| p.op_s.len() as u64).sum()
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Wall seconds of each set-up, in order.
    pub fn setup_s(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.setup_s).collect()
    }

    /// Each op's wall times across the passes with `traced` as given, in
    /// op order; empty when no such pass ran.
    pub fn op_samples(&self, traced: bool) -> Vec<Vec<f64>> {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); self.config.size.sim_ops];
        for pass in self.passes.iter().filter(|p| p.traced == traced) {
            for (op, s) in samples.iter_mut().zip(&pass.op_s) {
                op.push(*s);
            }
        }
        samples.retain(|op| !op.is_empty());
        samples
    }

    /// Summed wall seconds of every traced op.
    pub fn traced_s(&self) -> f64 {
        self.passes
            .iter()
            .filter(|p| p.traced)
            .flat_map(|p| &p.op_s)
            .sum()
    }

    /// Traced ops over every pass.
    pub fn traced_ops(&self) -> u64 {
        self.passes
            .iter()
            .filter(|p| p.traced)
            .map(|p| p.op_s.len() as u64)
            .sum()
    }
}

fn counters(registry: &Registry) -> Vec<u64> {
    let snap = registry.snapshot();
    REGISTRY_COUNTS.iter().map(|c| snap.counter(c)).collect()
}

fn run<W: Workload>(workload: WorkloadKind, cfg: &RunConfig) -> RunResult {
    const MAX_ERRORS: usize = 8;
    let min_passes = if cfg.trace { 2 } else { 1 };
    let mut passes: Vec<Pass> = Vec::new();
    let mut setup_trace = Tracer::default();
    let mut tr = Tracer::default();
    let mut first_sim: Option<SimLog> = None;
    let mut failed = 0;
    let mut errors = Vec::new();
    let mut registry_counts = vec![0; REGISTRY_COUNTS.len()];
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    // A pass starts only if one as long as the last still fits the budget.
    let mut last_pass = Duration::ZERO;
    while passes.len() < min_passes || start.elapsed() + last_pass <= budget {
        let pass_no = passes.len();
        let pass_start = Instant::now();
        let traced = cfg.trace && pass_no % 2 == 1;
        let mut setup_tr = Tracer::default();
        setup_tr.set_on(traced);
        let t0 = Instant::now();
        let mut w = W::setup(cfg.seed, &cfg.size, &mut setup_tr);
        let setup_s = t0.elapsed().as_secs_f64();
        if traced {
            setup_trace = setup_tr;
        }

        let before = counters(w.registry());
        let mut sim = SimLog::new();
        let mut op_s = Vec::with_capacity(cfg.size.sim_ops);
        tr.set_on(traced);
        for index in 0..cfg.size.sim_ops {
            let t0 = Instant::now();
            let outcome = w.op(index, &mut tr, &mut sim);
            op_s.push(t0.elapsed().as_secs_f64());
            match outcome {
                Ok(delivered) => sim.op(delivered),
                Err(e) => {
                    sim.op(false);
                    failed += 1;
                    if errors.len() < MAX_ERRORS {
                        errors.push(format!("pass {pass_no} op {index}: {e}"));
                    }
                }
            }
        }
        tr.set_on(false);
        sim.close(w.registry());
        if let Err(e) = w.finish() {
            errors.push(format!("end of pass {pass_no}: {e}"));
        }
        for ((total, b), a) in registry_counts
            .iter_mut()
            .zip(before)
            .zip(counters(w.registry()))
        {
            *total += a - b;
        }
        drop(w);

        let digest = sim.digest().to_string();
        match &first_sim {
            None => first_sim = Some(sim),
            Some(first) if first.digest() != digest => errors.push(format!(
                "pass {pass_no} digest {digest} differs from the first pass's {}",
                first.digest()
            )),
            Some(_) => {}
        }
        passes.push(Pass {
            traced,
            setup_s,
            op_s,
            digest,
        });
        last_pass = pass_start.elapsed();
    }
    RunResult {
        workload,
        config: *cfg,
        passes,
        setup_trace,
        wall_s: start.elapsed().as_secs_f64(),
        failed,
        errors,
        sim: first_sim.expect("at least one pass"),
        trace: tr,
        registry_counts: REGISTRY_COUNTS
            .iter()
            .copied()
            .zip(registry_counts)
            .collect(),
    }
}
