//! `fig6-transit`: the Fig. 6 latency round at paper scale.
//!
//! A static 10,000-node overlay (`b = 4`, `|L| = 16`, `k = 3`) and the
//! paper's link model (U[1, 230] ms per link, 1.5 Mb/s uplinks). One op
//! routes a random file id overtly, then sends it through four fresh TAP
//! tunnels (`l ∈ {5, 3}` × hints off/on) with a 4-byte core, replaying
//! every node path as a 250,000-byte store-and-forward transfer. Onions
//! are small, so per-call fixed costs dominate: THA derivation, HMAC,
//! per-hop peel, Pastry routing and replica insert. No bulk cipher,
//! erasure code or churn repair runs.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tap_core::tha::{Tha, ThaFactory};
use tap_core::transit::{self, Delivery, HintCache, TransitOptions};
use tap_core::tunnel::Tunnel;
use tap_core::wire::Destination;
use tap_id::{Id, IdHashMap};
use tap_metrics::Registry;
use tap_netsim::latency::UniformLatency;
use tap_netsim::{EndpointId, Event, Network, NetworkConfig, SimDuration};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

use crate::trace::{Count, Span, Tracer};
use crate::{SimLog, Size, Workload};

/// Paper-scale size: 10,000 nodes, a 3,000-round window.
pub const PAPER: Size = Size {
    nodes: 10_000,
    sim_ops: 3_000,
    tunnels: 0,
    churn: 0,
    payload: 0,
};

/// The transferred file: 2 Mb.
const FILE_BYTES: u64 = 250_000;

/// The onion core each TAP variant carries.
const CORE: &[u8] = b"push";

/// The four TAP variants of a round: `(l, hinted)`.
const VARIANTS: [(usize, bool); 4] = [(5, false), (5, true), (3, false), (3, true)];

/// Fig. 6 state: overlay, THA store, replay network.
pub struct Fig6 {
    overlay: Overlay,
    thas: ReplicaStore<Tha>,
    net: Network<usize, UniformLatency>,
    endpoint_of: IdHashMap<EndpointId>,
    rng: StdRng,
    registry: Registry,
}

impl Workload for Fig6 {
    fn setup(seed: u64, size: &Size, tr: &mut Tracer) -> Self {
        let registry = Registry::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut overlay = Overlay::new(PastryConfig::paper_defaults());
        overlay.use_metrics(registry.clone());
        let mut net = Network::new(
            NetworkConfig::paper_defaults(),
            UniformLatency::paper(seed ^ 0x1a7e),
        );
        net.use_metrics(registry.clone());
        let mut endpoint_of = IdHashMap::default();
        for _ in 0..size.nodes {
            let id = tr.span(Span::AddNode, || overlay.add_random_node(&mut rng));
            endpoint_of.insert(id, net.add_endpoint());
        }
        let mut thas = ReplicaStore::new(overlay.config().replication);
        thas.use_metrics(registry.clone());
        Fig6 {
            overlay,
            thas,
            net,
            endpoint_of,
            rng,
            registry,
        }
    }

    fn op(&mut self, _index: usize, tr: &mut Tracer, sim: &mut SimLog) -> Result<bool, String> {
        let Fig6 {
            overlay,
            thas,
            net,
            endpoint_of,
            rng,
            ..
        } = self;
        let initiator = tr
            .span(Span::RandomNode, || overlay.random_node(rng))
            .ok_or("empty overlay")?;
        let fid = Id::random(rng);

        let overt = tr
            .span(Span::Route, || overlay.route(initiator, fid))
            .map_err(|e| format!("overt route: {e}"))?;
        let (d, events) = tr.chain(Span::NetsimReplay, || replay(net, endpoint_of, &overt.path));
        tr.count(Count::ReplayEvents, events);
        sim.word(d.as_micros());

        for (l, hinted) in VARIANTS {
            let mut factory = tr.chain(Span::ThaFactory, || ThaFactory::new(rng, initiator));
            let mut hops = Vec::with_capacity(l);
            while hops.len() < l {
                let s = tr.chain(Span::ThaNext, || factory.next(rng));
                let stored = tr.chain(Span::ThaStored, || s.stored());
                let fresh = tr
                    .chain(Span::ReplicaInsert, || {
                        thas.insert(overlay, s.hopid, stored)
                    })
                    .map_err(|e| format!("THA insert: {e}"))?;
                if fresh {
                    hops.push(s);
                }
            }
            let tunnel = Tunnel::new(hops);
            let hints = hinted.then(|| {
                tr.chain(Span::HintRefresh, || {
                    let mut cache = HintCache::default();
                    cache.refresh(overlay, &tunnel.hop_ids());
                    cache
                })
            });
            let onion = tr.chain(Span::OnionSeal, || {
                tunnel.build_onion(rng, Destination::KeyRoot(fid), CORE, hints.as_ref())
            });
            let options = TransitOptions {
                use_hints: hinted,
                ..TransitOptions::default()
            };
            let (delivery, report) = tr
                .chain(Span::TransitDrive, || {
                    transit::drive(
                        overlay,
                        thas,
                        initiator,
                        tunnel.entry_hopid(),
                        onion,
                        options,
                    )
                })
                .map_err(|e| format!("l={l} hinted={hinted}: {e}"))?;
            let root = tr.chain(Span::OwnerOf, || overlay.owner_of(fid));
            match delivery {
                Delivery::ToDestination { node, core } if Some(node) == root && core == CORE => {}
                other => {
                    return Err(format!(
                        "l={l} hinted={hinted}: delivered {other:?}, expected the core at {root:?}"
                    ))
                }
            }
            tr.count(Count::OverlayHops, report.overlay_hops as u64);
            tr.count(Count::HintHits, report.hint_hits as u64);
            tr.count(Count::HintMisses, report.hint_misses as u64);
            let (d, events) = tr.chain(Span::NetsimReplay, || {
                replay(net, endpoint_of, &report.node_path)
            });
            tr.count(Count::ReplayEvents, events);
            sim.transfer(d);
            for h in tunnel.hops() {
                tr.chain(Span::ReplicaRemove, || thas.remove(h.hopid));
            }
        }
        Ok(true)
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn finish(&mut self) -> Result<(), String> {
        // Every tunnel is torn down within its own op.
        if self.thas.is_empty() {
            Ok(())
        } else {
            Err(format!("{} THAs outlived their tunnels", self.thas.len()))
        }
    }
}

/// Replay `path` as a store-and-forward transfer of the file: one send per
/// hop, each after the previous hop's delivery; a hop to the same node is
/// free. Returns the virtual transfer time and the events drawn.
fn replay(
    net: &mut Network<usize, UniformLatency>,
    endpoint_of: &IdHashMap<EndpointId>,
    path: &[Id],
) -> (SimDuration, u64) {
    let mut eps: Vec<EndpointId> = Vec::with_capacity(path.len());
    for id in path {
        let ep = endpoint_of[id];
        if eps.last() != Some(&ep) {
            eps.push(ep);
        }
    }
    if eps.len() < 2 {
        return (SimDuration::ZERO, 0);
    }
    let start = net.now();
    let mut events = 0;
    net.send(eps[0], eps[1], FILE_BYTES, 1);
    while let Some(ev) = net.next_event() {
        events += 1;
        if let Event::Message(m) = ev {
            let arrived = m.payload;
            if arrived + 1 < eps.len() {
                net.send(eps[arrived], eps[arrived + 1], FILE_BYTES, arrived + 1);
            } else {
                return (m.delivered_at - start, events);
            }
        }
    }
    unreachable!("a store-and-forward chain on a fault-free network always completes")
}
