//! Wall-clock spans around every call the benchmark makes into a layer.
//!
//! Spans are recorded from the benchmark's own code, around the public
//! functions of `tap-pastry`, `tap-core`, `tap-crypto` and `tap-netsim`;
//! no span sits inside the program. The workloads call layers directly and
//! never from inside another span, so spans do not nest and a span's
//! duration is its self time. Per span the tracer keeps a call count and
//! summed nanoseconds; an untraced tracer only runs the call.
//!
//! Reading the clock costs about as much as the cheapest calls traced
//! here, so back-to-back calls share clock reads: [`Tracer::chain`] starts
//! its span where the previous span ended. The few instructions that pass
//! arguments between two chained calls count to the later call.

use std::time::Instant;

/// One layer boundary the benchmark crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Overlay::random_node`: picking initiators, destinations, leavers.
    RandomNode,
    /// `Overlay::route`: the overt fig6 transfer.
    Route,
    /// `Overlay::owner_of`: the fig6 delivery check.
    OwnerOf,
    /// `Overlay::add_random_node`: joins.
    AddNode,
    /// `Overlay::remove_node`: leaves.
    RemoveNode,
    /// `ReplicaStore::insert`: THA deployment (`k_closest` placement).
    ReplicaInsert,
    /// `ReplicaStore::remove`: THA teardown.
    ReplicaRemove,
    /// `ReplicaStore::on_node_removed`: replica repair after a leave.
    OnNodeRemoved,
    /// `ReplicaStore::on_node_added`: replica migration after a join.
    OnNodeAdded,
    /// `ThaFactory::new`: a fresh per-initiator `hkey`.
    ThaFactory,
    /// `ThaFactory::next`: `hopid = H(node_ID, hkey, t)` plus key material.
    ThaNext,
    /// `ThaSecret::stored`: the `H(PW)` commitment.
    ThaStored,
    /// `HintCache::refresh`: the §5 address-hint lookup.
    HintRefresh,
    /// `Tunnel::build_onion`: the fused l-layer seal.
    OnionSeal,
    /// `transit::drive`: per-hop routing plus peel.
    TransitDrive,
    /// The `Network::send` / `next_event` store-and-forward replay.
    NetsimReplay,
    /// `Collusion::corrupted_count`: the fig5 corruption scan.
    CorruptedCount,
    /// `multipath::form_disjoint_tunnels`.
    FormDisjoint,
    /// `multipath::send_striped`: erasure code, seals, wire drive, decode.
    SendStriped,
    /// `Network::partition`/`heal` and `NetDriver::kill_node`/`revive_node`.
    FaultWindow,
}

impl Span {
    /// Every span, in report order.
    pub const ALL: [Span; 20] = [
        Span::RandomNode,
        Span::Route,
        Span::OwnerOf,
        Span::AddNode,
        Span::RemoveNode,
        Span::ReplicaInsert,
        Span::ReplicaRemove,
        Span::OnNodeRemoved,
        Span::OnNodeAdded,
        Span::ThaFactory,
        Span::ThaNext,
        Span::ThaStored,
        Span::HintRefresh,
        Span::OnionSeal,
        Span::TransitDrive,
        Span::NetsimReplay,
        Span::CorruptedCount,
        Span::FormDisjoint,
        Span::SendStriped,
        Span::FaultWindow,
    ];

    /// The span's metric name: `<layer>.<module>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Span::RandomNode => "pastry.overlay.random_node",
            Span::Route => "pastry.overlay.route",
            Span::OwnerOf => "pastry.overlay.owner_of",
            Span::AddNode => "pastry.overlay.add_node",
            Span::RemoveNode => "pastry.overlay.remove_node",
            Span::ReplicaInsert => "pastry.replica.insert",
            Span::ReplicaRemove => "pastry.replica.remove",
            Span::OnNodeRemoved => "pastry.replica.on_node_removed",
            Span::OnNodeAdded => "pastry.replica.on_node_added",
            Span::ThaFactory => "core.tha.factory",
            Span::ThaNext => "core.tha.next",
            Span::ThaStored => "core.tha.stored",
            Span::HintRefresh => "core.hint.refresh",
            Span::OnionSeal => "crypto.onion.seal",
            Span::TransitDrive => "core.transit.drive",
            Span::NetsimReplay => "netsim.replay",
            Span::CorruptedCount => "core.adversary.corrupted_count",
            Span::FormDisjoint => "core.mp.form_disjoint_tunnels",
            Span::SendStriped => "core.mp.send_striped",
            Span::FaultWindow => "netsim.fault.window",
        }
    }
}

/// A count the benchmark reads from the reports layers return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// `TransitReport::overlay_hops` plus `MultipathReport::overlay_hops`.
    OverlayHops,
    /// `TransitReport::hint_hits`.
    HintHits,
    /// `TransitReport::hint_misses`.
    HintMisses,
    /// Events the fig6 replay drew from `Network::next_event`.
    ReplayEvents,
    /// `MultipathReport::bytes_on_wire`.
    BytesOnWire,
}

impl Count {
    /// Every count, in report order.
    pub const ALL: [Count; 5] = [
        Count::OverlayHops,
        Count::HintHits,
        Count::HintMisses,
        Count::ReplayEvents,
        Count::BytesOnWire,
    ];

    /// The count's metric name.
    pub fn name(self) -> &'static str {
        match self {
            Count::OverlayHops => "core.transit.overlay_hops",
            Count::HintHits => "core.transit.hint_hits",
            Count::HintMisses => "core.transit.hint_misses",
            Count::ReplayEvents => "netsim.replay.events",
            Count::BytesOnWire => "core.mp.bytes_on_wire",
        }
    }
}

/// Per-span call counts and summed time, plus report-derived counts.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    on: bool,
    /// When the last span ended.
    last: Option<Instant>,
    calls: [u64; Span::ALL.len()],
    nanos: [u64; Span::ALL.len()],
    counts: [u64; Count::ALL.len()],
}

impl Tracer {
    /// Time spans from now on (`true`) or only run the calls (`false`).
    /// Counts accumulate either way.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        self.last = None;
    }

    /// Run `f`, charging its wall time to `span` when tracing is on.
    #[inline]
    pub fn span<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.last = Some(Instant::now());
        self.chain(span, f)
    }

    /// [`Tracer::span`] for a call that directly follows the previous
    /// span: its time starts where that span ended.
    #[inline]
    pub fn chain<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        let Some(t0) = self.last.filter(|_| self.on) else {
            return self.span(span, f);
        };
        let out = f();
        let t1 = Instant::now();
        self.calls[span as usize] += 1;
        self.nanos[span as usize] += (t1 - t0).as_nanos() as u64;
        self.last = Some(t1);
        out
    }

    /// Add `n` to a report-derived count.
    pub fn count(&mut self, count: Count, n: u64) {
        self.counts[count as usize] += n;
    }

    /// Calls recorded for `span`.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    /// Seconds recorded for `span`.
    pub fn seconds(&self, span: Span) -> f64 {
        self.nanos[span as usize] as f64 / 1e9
    }

    /// Seconds recorded across every span.
    pub fn total_seconds(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 / 1e9
    }

    /// Accumulated value of `count`.
    pub fn counted(&self, count: Count) -> u64 {
        self.counts[count as usize]
    }
}
