//! `fig5-churn`: the Fig. 5 churn unit on the figure's 10,000 nodes.
//!
//! A 10,000-node overlay holds 1,000 unrefreshed and 1,000 refreshed
//! tunnels (`l = 5`, `k = 3`) under a fixed 10% collusion. One op is one
//! churn unit: 100 benign leaves, each followed by replica repair, then
//! 100 joins, each followed by replica migration; then both populations
//! are scanned for corruption (history included) and the refreshed one is
//! retired and redeployed. Overlay mutation, replica repair and bulk THA
//! generation (SHA-256 plus `k_closest` placement) do the work; no onion,
//! transit or netsim code runs.

use std::panic::{self, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::SeedableRng;

use tap_core::tha::{Tha, ThaFactory};
use tap_core::Collusion;
use tap_id::Id;
use tap_metrics::Registry;
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

use crate::trace::{Span, Tracer};
use crate::{SimLog, Size, Workload};

/// Size: 10,000 nodes, 1,000 tunnels per population, 100 leaves and
/// joins per unit, a 10-unit window. The populations are a fifth of the
/// figure's 5,000: with the full populations (88 MB resident) a unit ran
/// up to 1.3× slower whenever other tenants of a shared host were busy,
/// against 1.1× for the other workloads.
pub const PAPER: Size = Size {
    nodes: 10_000,
    sim_ops: 10,
    tunnels: 1_000,
    churn: 100,
    payload: 0,
};

/// Replication factor and tunnel length of Fig. 5.
const K: usize = 3;
const L: usize = 5;

/// The colluding fraction, fixed for the whole run.
const COLLUSION: f64 = 0.1;

/// Fig. 5 state: overlay, THA store, both tunnel populations.
pub struct Fig5 {
    overlay: Overlay,
    thas: ReplicaStore<Tha>,
    collusion: Collusion,
    unrefreshed: Vec<Vec<Id>>,
    refreshed: Vec<Vec<Id>>,
    /// Unrefreshed corrupted count after the previous unit.
    last_corrupted: usize,
    churn: usize,
    rng: StdRng,
    registry: Registry,
}

impl Workload for Fig5 {
    fn setup(seed: u64, size: &Size, tr: &mut Tracer) -> Self {
        let registry = Registry::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut overlay = Overlay::new(PastryConfig::with_replication(K));
        overlay.use_metrics(registry.clone());
        for _ in 0..size.nodes {
            tr.chain(Span::AddNode, || overlay.add_random_node(&mut rng));
        }
        let mut thas = ReplicaStore::new(K);
        thas.use_metrics(registry.clone());
        let unrefreshed = deploy(&overlay, &mut thas, &mut rng, tr, size.tunnels);
        let collusion = Collusion::mark_fraction(&overlay, &mut rng, COLLUSION);
        let refreshed = deploy(&overlay, &mut thas, &mut rng, tr, size.tunnels);
        let last_corrupted = collusion.corrupted_count(&thas, &unrefreshed, true);
        Fig5 {
            overlay,
            thas,
            collusion,
            unrefreshed,
            refreshed,
            last_corrupted,
            churn: size.churn,
            rng,
            registry,
        }
    }

    fn op(&mut self, index: usize, tr: &mut Tracer, sim: &mut SimLog) -> Result<bool, String> {
        let Fig5 {
            overlay,
            thas,
            collusion,
            unrefreshed,
            refreshed,
            last_corrupted,
            churn,
            rng,
            ..
        } = self;
        for _ in 0..*churn {
            let victim = loop {
                let v = tr
                    .span(Span::RandomNode, || overlay.random_node(rng))
                    .ok_or("overlay emptied")?;
                if !collusion.contains(v) {
                    break v;
                }
            };
            if !tr.chain(Span::RemoveNode, || overlay.remove_node(victim)) {
                return Err(format!("leave of live node {victim:?} refused"));
            }
            tr.chain(Span::OnNodeRemoved, || {
                thas.on_node_removed(overlay, victim)
            });
        }
        for _ in 0..*churn {
            let id = tr.chain(Span::AddNode, || overlay.add_random_node(rng));
            tr.chain(Span::OnNodeAdded, || thas.on_node_added(overlay, id));
        }

        let corrupted = tr.span(Span::CorruptedCount, || {
            collusion.corrupted_count(thas, unrefreshed, true)
        });
        let corrupted_refreshed = tr.chain(Span::CorruptedCount, || {
            collusion.corrupted_count(thas, refreshed, true)
        });
        sim.corrupted(corrupted, unrefreshed.len());
        sim.word(corrupted_refreshed as u64);
        // Collusion history only grows, so unrefreshed corruption cannot
        // fall from one unit to the next.
        if corrupted < *last_corrupted {
            return Err(format!(
                "unit {index}: unrefreshed corruption fell from {last_corrupted} to {corrupted}"
            ));
        }
        *last_corrupted = corrupted;

        for hop in refreshed.iter().flatten() {
            tr.chain(Span::ReplicaRemove, || thas.remove(*hop));
        }
        *refreshed = deploy(overlay, thas, rng, tr, refreshed.len());
        Ok(true)
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn finish(&mut self) -> Result<(), String> {
        let (thas, overlay) = (&self.thas, &self.overlay);
        panic::catch_unwind(AssertUnwindSafe(|| thas.assert_replica_invariant(overlay))).map_err(
            |e| {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                format!("replica invariant broken: {msg}")
            },
        )
    }
}

/// Deploy `count` tunnels of length [`L`], each owned by a random
/// initiator, and return their hop ids.
fn deploy(
    overlay: &Overlay,
    thas: &mut ReplicaStore<Tha>,
    rng: &mut StdRng,
    tr: &mut Tracer,
    count: usize,
) -> Vec<Vec<Id>> {
    (0..count)
        .map(|_| {
            let initiator = tr
                .span(Span::RandomNode, || overlay.random_node(rng))
                .expect("churn never empties the overlay");
            let mut factory = tr.chain(Span::ThaFactory, || ThaFactory::new(rng, initiator));
            let mut hops = Vec::with_capacity(L);
            while hops.len() < L {
                let s = tr.chain(Span::ThaNext, || factory.next(rng));
                let stored = tr.chain(Span::ThaStored, || s.stored());
                let fresh = tr
                    .chain(Span::ReplicaInsert, || {
                        thas.insert(overlay, s.hopid, stored)
                    })
                    .expect("churn never empties the overlay");
                if fresh {
                    hops.push(s.hopid);
                }
            }
            hops
        })
        .collect()
}
