//! `striped-lossy`: coded multipath transfers on a faulty wire.
//!
//! A 2,000-node overlay on the wire-level `NetDriver`, over a network
//! that loses 10% of messages, duplicates 2%, adds up to 50 ms of jitter
//! and a 500 ms spike to 1%. The middle third of the window
//! cuts every twentieth endpoint off from the rest and crashes every
//! fiftieth node on the wire, as the resilience figure does. One op is one
//! 64 KiB transfer: deploy 30 anchors, form 5 disjoint `l = 3` tunnels,
//! send 5/3-striped with a retry budget of 6, tear the anchors down. The
//! crypto layer does bulk work here (ChaCha20 and HMAC over ≈22 KB
//! fragments, GF(2^8) encode and reconstruct) next to netdrive retries,
//! timer cancellation and fault injection. This is the only workload whose
//! transfers may be lost; a loss must end in `StripesExhausted`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tap_core::metrics::CoreInstruments;
use tap_core::multipath::{form_disjoint_tunnels, send_striped, MultipathConfig, MultipathError};
use tap_core::netdrive::NetDriver;
use tap_core::tha::{Tha, ThaFactory};
use tap_core::transit::{HintCache, TransitError, TransitOptions};
use tap_id::Id;
use tap_metrics::Registry;
use tap_netsim::latency::UniformLatency;
use tap_netsim::{EndpointId, FaultPlan, Network, NetworkConfig, SimDuration};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

use crate::trace::{Count, Span, Tracer};
use crate::{SimLog, Size, Workload};

/// Paper-scale size: 2,000 nodes, 64 KiB payloads, a 300-transfer
/// window.
pub const PAPER: Size = Size {
    nodes: 2_000,
    sim_ops: 300,
    tunnels: 0,
    churn: 0,
    payload: 64 * 1024,
};

/// Stripes and reconstruction threshold.
const N: usize = 5;
const K: usize = 3;

/// Tunnel length.
const L: usize = 3;

/// Anchors deployed per transfer: twice what the stripes need, as the
/// resilience figure does, so the scatter rule has room.
const ANCHORS: usize = 2 * N * L;

/// Scatter prefix digits (Pastry `b = 4`).
const SCATTER_B: u32 = 4;

/// Resends per wire hop after the first attempt.
const RETRY_BUDGET: u32 = 6;

/// Name of the mid-window partition.
const CUT: &str = "bench-cut";

/// Lossy-multipath state: overlay, THA store, faulty wire.
pub struct Striped {
    overlay: Overlay,
    thas: ReplicaStore<Tha>,
    driver: NetDriver<UniformLatency>,
    instruments: CoreInstruments,
    cut_a: Vec<EndpointId>,
    cut_b: Vec<EndpointId>,
    crashed: Vec<Id>,
    payload: Vec<u8>,
    window: usize,
    attempted: u64,
    delivered: u64,
    rng: StdRng,
    registry: Registry,
}

impl Workload for Striped {
    fn setup(seed: u64, size: &Size, tr: &mut Tracer) -> Self {
        let registry = Registry::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut overlay = Overlay::new(PastryConfig::paper_defaults());
        overlay.use_metrics(registry.clone());
        let nodes: Vec<Id> = (0..size.nodes)
            .map(|_| tr.span(Span::AddNode, || overlay.add_random_node(&mut rng)))
            .collect();

        let mut net = Network::new(
            NetworkConfig::paper_defaults(),
            UniformLatency::paper(seed ^ 0x1a7e),
        );
        net.use_metrics(registry.clone());
        net.install_faults(
            FaultPlan::new(seed)
                .with_loss(100)
                .with_duplication(20)
                .with_jitter(SimDuration::from_millis(50))
                .with_spike(10, SimDuration::from_millis(500)),
        );
        let mut driver = NetDriver::new(net);
        let instruments = CoreInstruments::new(&registry);
        driver.use_instruments(instruments.clone());
        let eps: Vec<EndpointId> = nodes.iter().map(|&id| driver.register(id)).collect();
        let (cut_a, cut_b) =
            eps.iter()
                .enumerate()
                .fold((Vec::new(), Vec::new()), |(mut a, mut b), (i, &ep)| {
                    if i % 20 == 0 {
                        a.push(ep);
                    } else {
                        b.push(ep);
                    }
                    (a, b)
                });
        let crashed = nodes.iter().copied().skip(7).step_by(50).collect();

        let mut thas = ReplicaStore::new(overlay.config().replication);
        thas.use_metrics(registry.clone());
        let payload = (0..size.payload).map(|_| rng.gen()).collect();
        Striped {
            overlay,
            thas,
            driver,
            instruments,
            cut_a,
            cut_b,
            crashed,
            payload,
            window: size.sim_ops,
            attempted: 0,
            delivered: 0,
            rng,
            registry,
        }
    }

    fn op(&mut self, index: usize, tr: &mut Tracer, sim: &mut SimLog) -> Result<bool, String> {
        let Striped {
            overlay,
            thas,
            driver,
            instruments,
            cut_a,
            cut_b,
            crashed,
            payload,
            window,
            attempted,
            delivered,
            rng,
            ..
        } = self;
        if index == *window / 3 {
            tr.span(Span::FaultWindow, || {
                driver.network_mut().partition(CUT, cut_a, cut_b);
                for &id in crashed.iter() {
                    driver.kill_node(id);
                }
            });
        } else if index == 2 * *window / 3 {
            tr.span(Span::FaultWindow, || {
                driver.network_mut().heal(CUT);
                for &id in crashed.iter() {
                    driver.revive_node(id);
                }
            });
        }
        *attempted += 1;

        let initiator = tr
            .span(Span::RandomNode, || overlay.random_node(rng))
            .ok_or("empty overlay")?;
        let mut factory = tr.chain(Span::ThaFactory, || ThaFactory::new(rng, initiator));
        let mut anchors = Vec::with_capacity(ANCHORS);
        while anchors.len() < ANCHORS {
            let s = tr.chain(Span::ThaNext, || factory.next(rng));
            let stored = tr.chain(Span::ThaStored, || s.stored());
            let fresh = tr
                .chain(Span::ReplicaInsert, || {
                    thas.insert(overlay, s.hopid, stored)
                })
                .map_err(|e| format!("THA insert: {e}"))?;
            if fresh {
                anchors.push(s);
            }
        }
        let tunnels = tr.chain(Span::FormDisjoint, || {
            form_disjoint_tunnels(rng, &anchors, N, L, SCATTER_B)
        });
        let hop_ids: Vec<Id> = tunnels.iter().flat_map(|t| t.hop_ids()).collect();
        let mut hints = tr.chain(Span::HintRefresh, || {
            let mut cache = HintCache::default();
            cache.refresh(overlay, &hop_ids);
            cache
        });
        let dest = loop {
            let d = tr
                .span(Span::RandomNode, || overlay.random_node(rng))
                .ok_or("empty overlay")?;
            if d != initiator {
                break d;
            }
        };
        let outcome = tr.chain(Span::SendStriped, || {
            send_striped(
                driver,
                overlay,
                thas,
                rng,
                initiator,
                dest,
                &tunnels,
                payload,
                MultipathConfig::new(N as u8, K as u8),
                TransitOptions {
                    use_hints: true,
                    retry_budget: RETRY_BUDGET,
                },
                Some(&mut hints),
                Some(instruments),
            )
        });
        for s in &anchors {
            tr.chain(Span::ReplicaRemove, || thas.remove(s.hopid));
        }
        match outcome {
            Ok(out) if out.payload == *payload => {
                tr.count(Count::OverlayHops, out.report.overlay_hops as u64);
                tr.count(Count::BytesOnWire, out.report.bytes_on_wire);
                sim.transfer(out.report.elapsed);
                *delivered += 1;
                Ok(true)
            }
            Ok(out) => Err(format!(
                "reconstructed {} bytes that differ from the {} sent",
                out.payload.len(),
                payload.len()
            )),
            Err(MultipathError::Transit(TransitError::StripesExhausted { .. })) => Ok(false),
            Err(e) => Err(format!("transfer failed unexpectedly: {e}")),
        }
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn finish(&mut self) -> Result<(), String> {
        // Every transfer either delivers or counts exactly one give-up.
        let giveups = self.registry.snapshot().counter("core.transit.giveups");
        if self.delivered + giveups != self.attempted {
            return Err(format!(
                "{} delivered + {giveups} give-ups != {} attempted",
                self.delivered, self.attempted
            ));
        }
        if self.thas.is_empty() {
            Ok(())
        } else {
            Err(format!("{} THAs outlived their transfers", self.thas.len()))
        }
    }
}
