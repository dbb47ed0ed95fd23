//! The overlay: membership, join/leave/failure, and prefix routing.
//!
//! The whole network lives in one process, exactly as the paper ran
//! FreePastry ("the peer nodes were configured to run in a single Java
//! VM"). Every node still keeps *its own* routing table and leaf set, and
//! routing consults only per-node state hop by hop — the overlay struct
//! merely plays the role of the wire plus the converged maintenance
//! protocols:
//!
//! * leaf sets are repaired eagerly on join/leave (Pastry's leaf-set
//!   protocol is eager and its converged result is exact, so we install
//!   that result directly);
//! * routing-table entries pointing at dead nodes are discovered and
//!   evicted lazily during routing, with Pastry's fallback rule (§2.1 of
//!   the Pastry paper: forward to any known node at least as good in
//!   prefix and strictly closer numerically).

use std::collections::BTreeSet;

use std::sync::Arc;
use tap_id::{IdHashMap, IdHashSet};

use rand::Rng;
use tap_id::Id;
use tap_metrics::{Counter, Histogram, Registry};

use crate::config::PastryConfig;
use crate::leafset::LeafSet;
use crate::routing_table::RoutingTable;

/// Per-node overlay state.
#[derive(Debug, Clone)]
pub struct NodeHandle {
    /// The node's identifier.
    pub id: Id,
    /// Its prefix routing table.
    pub table: RoutingTable,
    /// Its leaf set.
    pub leafset: LeafSet,
}

/// Why a route could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The starting node is not a live member.
    UnknownSource(Id),
    /// The overlay has no live nodes at all.
    EmptyOverlay,
    /// No candidate made numeric progress toward the key (leaf sets would
    /// have to be corrupted for this to happen; surfaced, never masked).
    Stuck {
        /// Node at which progress stopped.
        at: Id,
        /// Key being routed.
        key: Id,
    },
    /// Hop count exceeded a sanity bound (routing loop).
    Loop,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::UnknownSource(id) => write!(f, "unknown source node {id:?}"),
            RouteError::EmptyOverlay => write!(f, "overlay has no live nodes"),
            RouteError::Stuck { at, key } => {
                write!(f, "routing stuck at {at:?} for key {key:?}")
            }
            RouteError::Loop => write!(f, "routing loop detected"),
        }
    }
}

impl std::error::Error for RouteError {}

/// The result of routing a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Every node the message visited, starting with the source and ending
    /// with the root.
    pub path: Vec<Id>,
    /// The key's root: the live node numerically closest to it.
    pub root: Id,
}

impl RouteOutcome {
    /// Number of overlay hops taken (`path.len() - 1`).
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Cached instrument handles; route() is the simulator's hottest loop.
#[derive(Clone)]
struct OverlayInstruments {
    registry: Registry,
    route_hops: Arc<Histogram>,
    leafset_repairs: Arc<Counter>,
    table_evictions: Arc<Counter>,
    stale_leafset_refs: Arc<Counter>,
}

impl OverlayInstruments {
    fn new(registry: Registry) -> Self {
        OverlayInstruments {
            route_hops: registry.histogram("pastry.route.hops"),
            leafset_repairs: registry.counter("pastry.leafset.repairs"),
            table_evictions: registry.counter("pastry.table.evictions"),
            stale_leafset_refs: registry.counter("pastry.stale_leafset_ref"),
            registry,
        }
    }
}

/// A simulated Pastry overlay.
///
/// Cloning is copy-on-write: node handles (and, one level down, routing
/// table rows and leaf-set sides) are `Arc`-shared with the clone, and a
/// mutation copies only the state it touches. [`Overlay::checkpoint`] /
/// [`Overlay::rollback`] expose the same machinery as an explicit
/// save/restore pair, so a sweep point costs only the nodes it kills or
/// repairs instead of a full deep copy of the network.
#[derive(Clone)]
pub struct Overlay {
    config: PastryConfig,
    /// Live node handles. Always holds exactly the ids in `ring` — the
    /// hot paths prefer `nodes.contains_key` (one fold-hash probe) over
    /// `ring.contains` (a deep `BTreeSet` descent) for membership.
    nodes: IdHashMap<Arc<NodeHandle>>,
    ring: BTreeSet<Id>,
    /// Dense membership list for O(1) *uniform* random-node sampling
    /// (successor-of-a-random-probe sampling would be biased by ring-gap
    /// size, which skews relay selection statistics in the experiments).
    order: Vec<Id>,
    pos: IdHashMap<usize>,
    instruments: OverlayInstruments,
}

/// A saved membership state produced by [`Overlay::checkpoint`]: the ring
/// indexes plus one `Arc` per node handle (pointer-sized, not
/// table-sized). Restoring with [`Overlay::rollback`] re-shares every
/// handle the mutations in between had copied.
#[derive(Clone)]
pub struct OverlayCheckpoint {
    nodes: IdHashMap<Arc<NodeHandle>>,
    ring: BTreeSet<Id>,
    order: Vec<Id>,
    pos: IdHashMap<usize>,
}

impl OverlayCheckpoint {
    /// Number of nodes captured in the checkpoint.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the checkpoint captured an empty overlay.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl Overlay {
    /// An empty overlay recording into its own private metrics registry
    /// (share one across subsystems with [`Overlay::use_metrics`]).
    pub fn new(config: PastryConfig) -> Self {
        config.validate();
        Overlay {
            config,
            nodes: IdHashMap::default(),
            ring: BTreeSet::new(),
            order: Vec::new(),
            pos: IdHashMap::default(),
            instruments: OverlayInstruments::new(Registry::new()),
        }
    }

    /// Record into `registry` from now on. Clones of the overlay share the
    /// same registry handle.
    pub fn use_metrics(&mut self, registry: Registry) {
        self.instruments = OverlayInstruments::new(registry);
    }

    /// The metrics registry this overlay records into.
    pub fn metrics(&self) -> &Registry {
        &self.instruments.registry
    }

    /// The overlay's configuration.
    pub fn config(&self) -> &PastryConfig {
        &self.config
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the overlay has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Whether `id` is a live member.
    pub fn is_live(&self, id: Id) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Iterate over all live node ids (ring order).
    pub fn ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.ring.iter().copied()
    }

    /// Borrow a node's state.
    pub fn node(&self, id: Id) -> Option<&NodeHandle> {
        self.nodes.get(&id).map(|n| &**n)
    }

    /// Record (counter + journal) a leaf-set reference to a node that is
    /// no longer live — e.g. one removed earlier in the same repair
    /// batch. The reference is skipped, never followed.
    fn note_stale_leafset_ref(&self, referenced: Id) {
        self.instruments.stale_leafset_refs.inc();
        self.instruments.registry.emit(
            0,
            "pastry.stale_leafset_ref",
            format!("skipped repair via dead leafset member {referenced:?}"),
        );
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Save the current membership state. Costs one `Arc` bump per node
    /// plus the ring indexes — no routing table or leaf set is copied.
    pub fn checkpoint(&self) -> OverlayCheckpoint {
        OverlayCheckpoint {
            nodes: self.nodes.clone(),
            ring: self.ring.clone(),
            order: self.order.clone(),
            pos: self.pos.clone(),
        }
    }

    /// Restore a state saved by [`Overlay::checkpoint`], discarding every
    /// membership mutation made since. Handles the mutations had copied
    /// become shared with the checkpoint again; config and metrics wiring
    /// are untouched (counters keep their accumulated values — a rollback
    /// undoes the network, not the measurement).
    pub fn rollback(&mut self, cp: &OverlayCheckpoint) {
        self.nodes = cp.nodes.clone();
        self.ring = cp.ring.clone();
        self.order = cp.order.clone();
        self.pos = cp.pos.clone();
    }

    /// A fully-owned copy sharing no node state with `self` — what
    /// `clone()` used to cost before snapshots. Kept as the oracle the
    /// snapshot proptests compare COW clones against.
    pub fn deep_clone(&self) -> Overlay {
        Overlay {
            config: self.config,
            nodes: self
                .nodes
                .iter()
                .map(|(&id, n)| {
                    (
                        id,
                        Arc::new(NodeHandle {
                            id: n.id,
                            table: n.table.deep_clone(),
                            leafset: n.leafset.deep_clone(),
                        }),
                    )
                })
                .collect(),
            ring: self.ring.clone(),
            order: self.order.clone(),
            pos: self.pos.clone(),
            instruments: self.instruments.clone(),
        }
    }

    /// How many node handles are physically shared with `other`
    /// (diagnostics for the snapshot tests and benches).
    pub fn handles_shared_with(&self, other: &Overlay) -> usize {
        self.nodes
            .iter()
            .filter(|(id, n)| other.nodes.get(id).is_some_and(|o| Arc::ptr_eq(n, o)))
            .count()
    }

    /// A uniformly random live node (exact uniformity via a dense index).
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Id> {
        if self.order.is_empty() {
            return None;
        }
        Some(self.order[rng.gen_range(0..self.order.len())])
    }

    // ------------------------------------------------------------------
    // Oracle views (global knowledge; used for replica placement and for
    // validating that decentralized routing agrees with ground truth).
    // ------------------------------------------------------------------

    /// The first live id clockwise from `from`, inclusive.
    fn successor_inclusive(&self, from: Id) -> Id {
        debug_assert!(!self.ring.is_empty());
        self.ring
            .range(from..)
            .next()
            .or_else(|| self.ring.iter().next())
            .copied()
            .expect("non-empty ring")
    }

    /// Up to `n` live ids clockwise from `from` (exclusive), in ring order.
    pub fn successors(&self, from: Id, n: usize) -> Vec<Id> {
        let mut out = Vec::with_capacity(n);
        for id in self
            .ring
            .range((std::ops::Bound::Excluded(from), std::ops::Bound::Unbounded))
            .chain(self.ring.range(..from))
        {
            if out.len() == n {
                break;
            }
            out.push(*id);
        }
        out
    }

    /// Up to `n` live ids counter-clockwise from `from` (exclusive).
    pub fn predecessors(&self, from: Id, n: usize) -> Vec<Id> {
        let mut out = Vec::with_capacity(n);
        for id in self.ring.range(..from).rev().chain(
            self.ring
                .range((std::ops::Bound::Excluded(from), std::ops::Bound::Unbounded))
                .rev(),
        ) {
            if out.len() == n {
                break;
            }
            out.push(*id);
        }
        out
    }

    /// Oracle: the live node numerically closest to `key` (the key's root).
    pub fn owner_of(&self, key: Id) -> Option<Id> {
        if self.ring.is_empty() {
            return None;
        }
        let succ = self.successor_inclusive(key);
        if succ == key {
            return Some(succ);
        }
        let pred = self
            .ring
            .range(..key)
            .next_back()
            .or_else(|| self.ring.iter().next_back())
            .copied()
            .expect("non-empty ring");
        Some(match key.cmp_distance(succ, pred) {
            std::cmp::Ordering::Greater => pred,
            _ => succ,
        })
    }

    /// Oracle: the `k` live nodes numerically closest to `key`, nearest
    /// first — PAST's replica set for the key.
    pub fn k_closest(&self, key: Id, k: usize) -> Vec<Id> {
        let take = k.min(self.ring.len());
        // Candidates: the k nearest on each side (the k closest overall
        // are among them), merged by ring distance.
        // Each is keyed by `(distance, id)` once — the order
        // `cmp_distance` defines — rather than per comparison.
        let mut cands: Vec<(Id, Id)> = self
            .successors(key, take)
            .into_iter()
            .chain(self.ring.contains(&key).then_some(key))
            .chain(self.predecessors(key, take))
            .map(|c| (key.ring_distance(c), c))
            .collect();
        cands.sort_unstable();
        cands.dedup();
        // Collected from a borrowed iterator, so the result gets a buffer
        // of exactly `take` ids: replica stores keep it for the object's
        // lifetime, and reusing `cands`' wider buffer would hold twice
        // the memory per stored object.
        cands[..take.min(cands.len())]
            .iter()
            .map(|&(_, c)| c)
            .collect()
    }

    /// Oracle: every live node in nearest-first order from `key` — the
    /// lazy equivalent of `k_closest(key, len())`, emitting the same
    /// sequence without materialising or sorting the whole ring. Callers
    /// that stop after a few items (e.g. "closest responsive node") pay
    /// O(taken) instead of O(N log N).
    ///
    /// Works by merging the clockwise and counter-clockwise ring walks:
    /// the unvisited ids always form one contiguous arc whose *farthest*
    /// point from `key` is interior, so the nearest unvisited id is one of
    /// the arc's two endpoints — comparing the frontiers with
    /// [`Id::cmp_distance`] (the exact comparator `k_closest` sorts by,
    /// ties and all) picks it.
    pub fn closest_iter(&self, key: Id) -> impl Iterator<Item = Id> + '_ {
        use std::ops::Bound;
        let total = self.ring.len();
        let mut succ = self
            .ring
            .range((Bound::Excluded(key), Bound::Unbounded))
            .chain(self.ring.range(..key))
            .copied()
            .peekable();
        let mut pred = self
            .ring
            .range(..key)
            .rev()
            .chain(
                self.ring
                    .range((Bound::Excluded(key), Bound::Unbounded))
                    .rev(),
            )
            .copied()
            .peekable();
        let mut emit_key = self.ring.contains(&key);
        let mut produced = 0usize;
        std::iter::from_fn(move || {
            if produced >= total {
                return None;
            }
            produced += 1;
            if emit_key {
                emit_key = false;
                return Some(key);
            }
            let next = match (succ.peek().copied(), pred.peek().copied()) {
                (Some(s), Some(p)) => {
                    if s == p {
                        // The arc is down to its last id: both frontiers
                        // point at it; consume both.
                        pred.next();
                        s
                    } else if key.cmp_distance(s, p) == std::cmp::Ordering::Greater {
                        p
                    } else {
                        s
                    }
                }
                (Some(s), None) => s,
                (None, Some(p)) => p,
                (None, None) => unreachable!("produced < total implies an unvisited id"),
            };
            if succ.peek() == Some(&next) {
                succ.next();
            } else {
                pred.next();
            }
            Some(next)
        })
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Add a node with a fresh random id; returns the id.
    pub fn add_random_node<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Id {
        loop {
            let id = Id::random(rng);
            if self.add_node(id) {
                return id;
            }
        }
    }

    /// Add a node with identifier `id`. Returns `false` (no-op) if the id
    /// is already taken.
    ///
    /// Models the Pastry join: route from a distant bootstrap node toward
    /// `id`; nodes met on the way donate routing-table rows; the root
    /// donates its leaf set; everyone in the new leaf set learns about the
    /// newcomer.
    pub fn add_node(&mut self, id: Id) -> bool {
        if self.nodes.contains_key(&id) {
            return false;
        }
        let half = self.config.leaf_half();
        let mut table = RoutingTable::new(id, self.config.b);
        let mut leafset = LeafSet::new(id, half);

        if !self.ring.is_empty() {
            // Bootstrap from roughly the antipode so the join path has
            // realistic length and donates a full set of rows.
            let bootstrap = self.successor_inclusive(id.flip_bit(0));
            let outcome = self
                .route(bootstrap, id)
                .expect("routing within a consistent overlay cannot fail");

            // Row i of the i-th node on the path matches the new node on at
            // least i digits (Pastry join, §3 of the Pastry paper).
            for (i, hop) in outcome.path.iter().enumerate() {
                let donor = &self.nodes[hop];
                table.absorb_row(&donor.table, i);
                // Later rows from the root are also valid donations.
                if *hop == outcome.root {
                    for r in i..donor.table.depth() {
                        table.absorb_row(&donor.table, r);
                    }
                }
                table.consider(*hop);
            }

            // Exact leaf set (the converged result of leaf-set exchange
            // with the root).
            leafset.rebuild(self.successors(id, half), self.predecessors(id, half));
            for m in leafset.members().collect::<Vec<_>>() {
                table.consider(m);
            }
        }

        // Announce to affected peers: every node that should hold the
        // newcomer in its leaf set is, by window symmetry, a member of the
        // newcomer's leaf set. Each affected peer re-derives its leaf set
        // (the converged result of Pastry's leaf-set exchange).
        let members: Vec<Id> = leafset.members().collect();
        self.ring.insert(id);
        self.pos.insert(id, self.order.len());
        self.order.push(id);
        self.nodes
            .insert(id, Arc::new(NodeHandle { id, table, leafset }));
        let half = self.config.leaf_half();
        for m in &members {
            let cw = self.successors(*m, half);
            let ccw = self.predecessors(*m, half);
            // A member can be stale when callers interleave joins with
            // batched removals; skip-and-journal instead of panicking.
            let repaired = match self.nodes.get_mut(m) {
                Some(slot) => {
                    let peer = Arc::make_mut(slot);
                    peer.leafset.rebuild(cw, ccw);
                    peer.table.consider(id);
                    true
                }
                None => false,
            };
            if repaired {
                self.instruments.leafset_repairs.inc();
            } else {
                self.note_stale_leafset_ref(*m);
            }
        }
        true
    }

    /// Remove a node (graceful leave and fail-stop failure look identical
    /// one repair round later, which is the granularity the paper's
    /// experiments measure at).
    ///
    /// Idempotent: removing an id that is not (or no longer) live returns
    /// `false` and changes nothing, so overlapping churn units may race
    /// to kill the same node without panicking.
    pub fn remove_node(&mut self, id: Id) -> bool {
        if !self.ring.remove(&id) {
            return false;
        }
        self.nodes.remove(&id);
        self.detach_from_index(id);

        // Repair leaf sets of the window around the departed node.
        let half = self.config.leaf_half();
        let affected: Vec<Id> = self
            .successors(id, half)
            .into_iter()
            .chain(self.predecessors(id, half))
            .collect();
        for a in affected {
            self.repair_survivor(a, &|x| x == id);
        }
        true
    }

    /// Remove a whole batch of nodes at once (the fail-stop mass-failure
    /// scenario of Fig. 2): every id is detached first, then each
    /// surviving neighbour's leaf set is repaired exactly once against
    /// the post-failure ring — `O(batch + affected)` work instead of one
    /// full repair round per removal. Duplicate and unknown ids are
    /// ignored. Returns how many nodes were actually removed.
    ///
    /// Consumes no randomness and repairs survivors in id order, so it is
    /// safe inside deterministic trial workers.
    pub fn remove_nodes(&mut self, ids: &[Id]) -> usize {
        // Phase 1: detach everything, keeping each departed node's handle
        // — its leaf set names the survivors that must repair.
        let mut departed: Vec<Arc<NodeHandle>> = Vec::new();
        for &id in ids {
            if !self.ring.remove(&id) {
                continue;
            }
            if let Some(handle) = self.nodes.remove(&id) {
                departed.push(handle);
            }
            self.detach_from_index(id);
        }
        if departed.is_empty() {
            return 0;
        }

        // Phase 2: collect repair candidates from the departed nodes' own
        // leaf sets (window symmetry: any survivor whose leaf set held a
        // dead node appears in that dead node's leaf set). A member that
        // was itself removed earlier in the same batch is a stale
        // reference — skip and journal it, exactly the case the old
        // one-at-a-time repair path turned into a panic.
        let mut candidates: BTreeSet<Id> = BTreeSet::new();
        for handle in &departed {
            for m in handle.leafset.members() {
                if self.nodes.contains_key(&m) {
                    candidates.insert(m);
                } else {
                    self.note_stale_leafset_ref(m);
                }
            }
        }

        let removed: IdHashSet = departed.iter().map(|h| h.id).collect();
        for a in candidates {
            self.repair_survivor(a, &|x| removed.contains(&x));
        }
        departed.len()
    }

    /// Drop `id` from the dense sampling index via swap-remove. Tolerates
    /// an already-detached id (the index simply stays unchanged).
    fn detach_from_index(&mut self, id: Id) {
        let Some(idx) = self.pos.remove(&id) else {
            return;
        };
        let Some(last) = self.order.pop() else {
            return;
        };
        if last != id {
            self.order[idx] = last;
            self.pos.insert(last, idx);
        }
    }

    /// Re-derive survivor `a`'s leaf set against the current (post-
    /// removal) ring when it references a dead node or is short, and
    /// evict dead routing-table entries. `dead` decides which ids count
    /// as departed. Skips (and journals) `a` itself when it is not live.
    fn repair_survivor(&mut self, a: Id, dead: &dyn Fn(Id) -> bool) {
        let half = self.config.leaf_half();
        // Read-only probe first so an untouched survivor stays shared
        // with any snapshot.
        let (needs_leafset, needs_eviction) = match self.nodes.get(&a) {
            Some(node) => (
                node.leafset.members().any(dead) || node.leafset.len() < 2 * half,
                node.table.entries().any(dead),
            ),
            None => {
                self.note_stale_leafset_ref(a);
                return;
            }
        };
        if !needs_leafset && !needs_eviction {
            return;
        }
        let cw = self.successors(a, half);
        let ccw = self.predecessors(a, half);
        let repaired = match self.nodes.get_mut(&a) {
            Some(slot) => {
                let node = Arc::make_mut(slot);
                if needs_leafset {
                    node.leafset.rebuild(cw, ccw);
                }
                if needs_eviction {
                    node.table.evict_where(dead);
                }
                needs_leafset
            }
            None => false,
        };
        if repaired {
            self.instruments.leafset_repairs.inc();
        }
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Route `key` from node `from` using only per-node state, repairing
    /// dead routing-table entries as they are discovered.
    ///
    /// Returns the full path (source first, root last).
    pub fn route(&mut self, from: Id, key: Id) -> Result<RouteOutcome, RouteError> {
        if self.ring.is_empty() {
            return Err(RouteError::EmptyOverlay);
        }
        if !self.nodes.contains_key(&from) {
            return Err(RouteError::UnknownSource(from));
        }
        let mut current = from;
        let mut path = vec![from];
        // Prefix hops strictly lengthen the shared prefix and ring-mode
        // hops strictly shrink ring distance, so the true bound is
        // digits + N; this is a defensive cap well above realistic paths.
        let max_hops = self.config.digits() + self.ring.len() + 16;
        // Once a hop is taken on pure ring progress (a greedy step that may
        // shorten the shared prefix), prefix hops are disabled for the rest
        // of the route: mixing the two metrics can oscillate (prefix hops
        // may regress ring distance, leaf-set steps may regress the shared
        // prefix), but each metric alone is monotone. A route also flips to
        // ring mode the moment it would revisit a node, which makes loops
        // impossible by construction.
        // Revisit detection scans `path` directly: paths are O(log N)
        // short, so a linear scan beats allocating a hash set per route.
        let mut ring_mode = false;

        loop {
            if path.len() > max_hops {
                return Err(RouteError::Loop);
            }
            let (next, went_greedy) = self.forward_from(current, key, ring_mode)?;
            match next {
                None => {
                    self.instruments.route_hops.record(path.len() as u64 - 1);
                    return Ok(RouteOutcome {
                        path,
                        root: current,
                    });
                }
                Some(n) => {
                    if !ring_mode && path.contains(&n) {
                        // Prefix routing is about to cycle; re-decide this
                        // hop on pure ring progress.
                        ring_mode = true;
                        continue;
                    }
                    ring_mode |= went_greedy;
                    debug_assert!(self.ring.contains(&n), "forwarded to dead node");
                    path.push(n);
                    current = n;
                }
            }
        }
    }

    /// One forwarding decision at `current` for `key`. `Ok((None, _))`
    /// means `current` is the root; the boolean reports whether the step
    /// was pure greedy (no prefix guarantee). Evicts dead table entries it
    /// trips over. Exposed crate-wide so [`crate::secure`] can walk routes
    /// while interposing per-node adversarial behaviour.
    pub(crate) fn forward_from(
        &mut self,
        current: Id,
        key: Id,
        ring_mode: bool,
    ) -> Result<(Option<Id>, bool), RouteError> {
        // Phase 1: leaf set covers the key → exact final step(s).
        let (covers, leaf_next) = {
            let node = &self.nodes[&current];
            if node.leafset.covers(key) {
                let best = node.leafset.closest_to(key);
                (true, if best == current { None } else { Some(best) })
            } else {
                (false, None)
            }
        };
        if covers {
            if let Some(n) = leaf_next {
                debug_assert!(self.ring.contains(&n), "leaf sets are eagerly maintained");
            }
            return Ok((leaf_next, false));
        }

        // Phase 2: routing table, canonical slot (skipped in ring mode).
        if !ring_mode {
            let hop = self.nodes[&current].table.next_hop(key);
            if let Some(h) = hop {
                if self.nodes.contains_key(&h) {
                    return Ok((Some(h), false));
                }
                // Stale entry: lazy repair.
                if let Some(slot) = self.nodes.get_mut(&current) {
                    Arc::make_mut(slot).table.evict(h);
                }
                self.instruments.table_evictions.inc();
            }
        }

        // Phase 3: rare-case fallback over table ∪ leaf set. First apply
        // Pastry's rule (live, shares at least as long a prefix, strictly
        // closer); if no such node is known — which can happen with
        // sparsely populated tables — fall back to pure greedy progress by
        // ring distance. Greedy is guaranteed to progress whenever the
        // leaf set does not cover the key: the leaf-set edge on the key's
        // side is strictly closer, so routing still terminates at the root.
        let node = &self.nodes[&current];
        let own_prefix = current.shared_prefix_digits(key, self.config.b);
        let mut best_pastry: Option<Id> = None;
        let mut best_greedy: Option<Id> = None;
        let mut stale = Vec::new();
        for c in node.table.entries().chain(node.leafset.members()) {
            if !self.nodes.contains_key(&c) {
                stale.push(c);
                continue;
            }
            if !c.closer_to(key, current) {
                continue;
            }
            if best_greedy.is_none_or(|b| c.closer_to(key, b)) {
                best_greedy = Some(c);
            }
            if c.shared_prefix_digits(key, self.config.b) >= own_prefix
                && best_pastry.is_none_or(|b| c.closer_to(key, b))
            {
                best_pastry = Some(c);
            }
        }
        if !stale.is_empty() {
            if let Some(slot) = self.nodes.get_mut(&current) {
                let node = Arc::make_mut(slot);
                for s in &stale {
                    node.table.evict(*s);
                }
            }
            for _ in &stale {
                self.instruments.table_evictions.inc();
            }
        }
        if !ring_mode {
            if let Some(b) = best_pastry {
                return Ok((Some(b), false));
            }
        }
        match best_greedy {
            Some(b) => Ok((Some(b), true)),
            // Not covered by the leaf set yet nobody is closer: with exact
            // leaf sets this means current *is* the root of a sparse ring
            // (fewer nodes than a leaf-set side). Confirm against local
            // knowledge before declaring success.
            None => {
                let node = &self.nodes[&current];
                if node.leafset.len() < 2 * self.config.leaf_half() {
                    Ok((None, false))
                } else {
                    Err(RouteError::Stuck { at: current, key })
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Diagnostics / test support
    // ------------------------------------------------------------------

    /// Assert every leaf set matches the oracle ring exactly. Test helper;
    /// O(N·L·log N).
    pub fn assert_leafsets_exact(&self) {
        let half = self.config.leaf_half();
        for (&id, node) in &self.nodes {
            let want_cw = self.successors(id, half);
            let mut want_ccw = self.predecessors(id, half);
            // Small rings: sides overlap; `rebuild` keeps shared nodes on
            // the clockwise side only.
            want_ccw.retain(|x| !want_cw.contains(x));
            assert_eq!(
                node.leafset.clockwise(),
                &want_cw[..],
                "clockwise leaf set of {id:?} drifted"
            );
            assert_eq!(
                node.leafset.counter_clockwise(),
                &want_ccw[..],
                "counter-clockwise leaf set of {id:?} drifted"
            );
        }
    }

    /// Assert routing-table structural invariants for every node.
    pub fn assert_tables_structurally_valid(&self) {
        for node in self.nodes.values() {
            node.table.assert_invariants();
        }
    }

    /// Mean routing-table occupancy (diagnostics).
    pub fn mean_table_occupancy(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let total: usize = self.nodes.values().map(|n| n.table.occupancy()).sum();
        total as f64 / self.nodes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(n: usize, seed: u64) -> (Overlay, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ov = Overlay::new(PastryConfig::paper_defaults());
        for _ in 0..n {
            ov.add_random_node(&mut rng);
        }
        (ov, rng)
    }

    #[test]
    fn singleton_overlay_routes_to_itself() {
        let (mut ov, mut rng) = build(1, 1);
        let only = ov.ids().next().unwrap();
        let key = Id::random(&mut rng);
        let out = ov.route(only, key).unwrap();
        assert_eq!(out.root, only);
        assert_eq!(out.hops(), 0);
    }

    #[test]
    fn route_reaches_oracle_owner() {
        let (mut ov, mut rng) = build(300, 2);
        for _ in 0..100 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            let want = ov.owner_of(key).unwrap();
            let got = ov.route(src, key).unwrap();
            assert_eq!(got.root, want, "route disagrees with oracle");
            assert_eq!(*got.path.first().unwrap(), src);
            assert_eq!(*got.path.last().unwrap(), want);
        }
    }

    #[test]
    fn route_rarely_revisits_nodes() {
        // A route may re-enter at most one pre-ring-mode node when it flips
        // to monotone ring progress; beyond that, revisits are a loop bug.
        let (mut ov, mut rng) = build(200, 3);
        for _ in 0..50 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            let out = ov.route(src, key).unwrap();
            let distinct: std::collections::HashSet<_> = out.path.iter().collect();
            assert!(
                out.path.len() <= distinct.len() + 1,
                "more than one revisit in {:?}",
                out.path
            );
            assert!(!out.path.is_empty());
        }
    }

    #[test]
    fn hop_counts_scale_logarithmically() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ov = Overlay::new(PastryConfig::paper_defaults());
        for _ in 0..1000 {
            ov.add_random_node(&mut rng);
        }
        let mut total = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            total += ov.route(src, key).unwrap().hops();
        }
        let mean = total as f64 / trials as f64;
        // log_16(1000) ≈ 2.5; allow generous slack but catch linear blowup.
        assert!(
            mean < 6.0,
            "mean hops {mean} too high for 1000 nodes (expect ~log16 N)"
        );
        assert!(mean > 1.0, "mean hops {mean} implausibly low");
    }

    #[test]
    fn leafsets_exact_after_joins() {
        let (ov, _) = build(150, 5);
        ov.assert_leafsets_exact();
        ov.assert_tables_structurally_valid();
    }

    #[test]
    fn leafsets_exact_after_removals() {
        let (mut ov, mut rng) = build(150, 6);
        let ids: Vec<Id> = ov.ids().collect();
        for id in ids.iter().take(75) {
            assert!(ov.remove_node(*id));
        }
        ov.assert_leafsets_exact();
        // Routing still agrees with the oracle.
        for _ in 0..50 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            assert_eq!(ov.route(src, key).unwrap().root, ov.owner_of(key).unwrap());
        }
    }

    #[test]
    fn interleaved_churn_preserves_correctness() {
        let (mut ov, mut rng) = build(100, 7);
        for round in 0..20 {
            // Remove a random node, add a fresh one.
            let victim = ov.random_node(&mut rng).unwrap();
            ov.remove_node(victim);
            ov.add_random_node(&mut rng);
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            assert_eq!(
                ov.route(src, key).unwrap().root,
                ov.owner_of(key).unwrap(),
                "round {round}"
            );
        }
        ov.assert_leafsets_exact();
    }

    #[test]
    fn mass_failure_routing_survives() {
        // Kill 30% of nodes simultaneously (the Fig. 2 scenario), then
        // verify routing still reaches the post-failure oracle owner.
        let (mut ov, mut rng) = build(400, 8);
        let ids: Vec<Id> = ov.ids().collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 10 < 3 {
                ov.remove_node(*id);
            }
        }
        for _ in 0..100 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            assert_eq!(ov.route(src, key).unwrap().root, ov.owner_of(key).unwrap());
        }
    }

    #[test]
    fn k_closest_matches_brute_force() {
        let (ov, mut rng) = build(120, 9);
        let all: Vec<Id> = ov.ids().collect();
        for _ in 0..40 {
            let key = Id::random(&mut rng);
            for k in [1, 3, 5] {
                let got = ov.k_closest(key, k);
                let mut brute = all.clone();
                brute.sort_by(|a, b| key.cmp_distance(*a, *b));
                brute.truncate(k);
                assert_eq!(got, brute, "k={k}");
            }
        }
    }

    #[test]
    fn k_closest_caps_at_population() {
        let (ov, mut rng) = build(2, 10);
        let key = Id::random(&mut rng);
        assert_eq!(ov.k_closest(key, 5).len(), 2);
    }

    #[test]
    fn closest_iter_matches_k_closest_exactly() {
        for (n, seed) in [(1usize, 20u64), (2, 21), (3, 22), (57, 23), (200, 24)] {
            let (ov, mut rng) = build(n, seed);
            let mut keys: Vec<Id> = (0..16).map(|_| Id::random(&mut rng)).collect();
            // Also probe with keys that ARE ring members (emit-self path).
            keys.extend(ov.ids().take(4));
            for key in keys {
                let lazy: Vec<Id> = ov.closest_iter(key).collect();
                let full = ov.k_closest(key, n);
                assert_eq!(lazy, full, "n={n} seed={seed}");
                // The iterator is fused at the population size.
                assert_eq!(ov.closest_iter(key).count(), n);
                // Prefixes agree too (lazy use never over- or under-takes).
                for k in [1usize, 2, 7] {
                    let prefix: Vec<Id> = ov.closest_iter(key).take(k).collect();
                    assert_eq!(prefix, ov.k_closest(key, k), "k={k}");
                }
            }
        }
    }

    #[test]
    fn owner_of_exact_key_is_that_node() {
        let (ov, _) = build(50, 11);
        for id in ov.ids().collect::<Vec<_>>() {
            assert_eq!(ov.owner_of(id), Some(id));
        }
    }

    #[test]
    fn duplicate_join_rejected() {
        let (mut ov, _) = build(10, 12);
        let id = ov.ids().next().unwrap();
        assert!(!ov.add_node(id));
        assert_eq!(ov.len(), 10);
    }

    #[test]
    fn double_remove_is_idempotent() {
        // Overlapping churn units may race to kill the same node; the
        // second kill must be a clean no-op, not a panic.
        let (mut ov, mut rng) = build(60, 17);
        let victim = ov.random_node(&mut rng).unwrap();
        assert!(ov.remove_node(victim));
        assert!(!ov.remove_node(victim), "second kill is a no-op");
        assert!(!ov.remove_node(victim), "and so is the third");
        assert_eq!(ov.len(), 59);
        ov.assert_leafsets_exact();
        // The batch form tolerates duplicates and already-dead ids too.
        let v2 = ov.random_node(&mut rng).unwrap();
        assert_eq!(ov.remove_nodes(&[v2, v2, victim]), 1);
        assert_eq!(ov.len(), 58);
        ov.assert_leafsets_exact();
        // Sampling still works over the compacted dense index.
        for _ in 0..20 {
            let s = ov.random_node(&mut rng).unwrap();
            assert!(ov.is_live(s));
        }
    }

    #[test]
    fn batch_removal_journals_stale_leafset_refs() {
        // Kill a contiguous arc of the ring in one batch: each departed
        // node's leaf set references neighbours removed in the same
        // batch, which the repair walk must skip-and-journal rather than
        // panic on.
        let (mut ov, mut rng) = build(120, 18);
        let start = ov.ids().next().unwrap();
        let mut batch = vec![start];
        batch.extend(ov.successors(start, 5));
        let stale = ov.metrics().counter("pastry.stale_leafset_ref");
        assert_eq!(stale.get(), 0);
        assert_eq!(ov.remove_nodes(&batch), 6);
        assert!(
            stale.get() > 0,
            "adjacent kills must hit (and journal) stale leafset refs"
        );
        assert_eq!(ov.len(), 114);
        ov.assert_leafsets_exact();
        for _ in 0..30 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            assert_eq!(ov.route(src, key).unwrap().root, ov.owner_of(key).unwrap());
        }
    }

    #[test]
    fn batch_removal_matches_sequential_removal() {
        // The batch API must converge to the same membership state as
        // one-at-a-time removal — only the repair work differs.
        let (mut a, mut rng) = build(200, 21);
        let mut b = a.deep_clone();
        let victims: Vec<Id> = (0..60)
            .map(|_| a.random_node(&mut rng).unwrap())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for &v in &victims {
            a.remove_node(v);
        }
        assert_eq!(b.remove_nodes(&victims), victims.len());
        assert_eq!(a.len(), b.len());
        a.assert_leafsets_exact();
        b.assert_leafsets_exact();
        let mut rng2 = StdRng::seed_from_u64(77);
        for _ in 0..40 {
            let src = a.random_node(&mut rng2).unwrap();
            let key = Id::random(&mut rng2);
            assert!(b.is_live(src), "same membership");
            assert_eq!(
                a.route(src, key).unwrap().root,
                b.route(src, key).unwrap().root
            );
        }
    }

    #[test]
    fn checkpoint_rollback_restores_membership() {
        let (mut ov, mut rng) = build(150, 19);
        let before: Vec<Id> = ov.ids().collect();
        let cp = ov.checkpoint();
        assert_eq!(cp.len(), 150);
        assert!(!cp.is_empty());
        // Mutate hard: kill 40 nodes, add 15 fresh ones, route a bit.
        let victims: Vec<Id> = before.iter().take(40).copied().collect();
        ov.remove_nodes(&victims);
        for _ in 0..15 {
            ov.add_random_node(&mut rng);
        }
        for _ in 0..20 {
            let src = ov.random_node(&mut rng).unwrap();
            ov.route(src, Id::random(&mut rng)).unwrap();
        }
        assert_ne!(ov.ids().collect::<Vec<_>>(), before);
        ov.rollback(&cp);
        assert_eq!(ov.ids().collect::<Vec<_>>(), before);
        ov.assert_leafsets_exact();
        ov.assert_tables_structurally_valid();
        // Rolled-back state routes identically to a pristine deep clone.
        let mut oracle = ov.deep_clone();
        let mut rng2 = StdRng::seed_from_u64(123);
        for _ in 0..40 {
            let src = ov.random_node(&mut rng2).unwrap();
            let key = Id::random(&mut rng2);
            assert_eq!(
                ov.route(src, key).unwrap().path,
                oracle.route(src, key).unwrap().path
            );
        }
    }

    #[test]
    fn cow_clones_isolate_writes_both_ways() {
        let (mut ov, mut rng) = build(100, 20);
        let mut snap = ov.clone();
        assert_eq!(ov.handles_shared_with(&snap), 100, "clone is all-shared");
        // Writes on the original never surface in the snapshot...
        let victim = ov.random_node(&mut rng).unwrap();
        assert!(ov.remove_node(victim));
        assert!(snap.is_live(victim), "snapshot must not see the kill");
        snap.assert_leafsets_exact();
        // ...and writes on the snapshot never surface in the original.
        let victim2 = loop {
            let v = snap.random_node(&mut rng).unwrap();
            if ov.is_live(v) {
                break v;
            }
        };
        assert!(snap.remove_node(victim2));
        assert!(ov.is_live(victim2), "original must not see snapshot kill");
        ov.assert_leafsets_exact();
        snap.assert_leafsets_exact();
        // Untouched nodes remain physically shared.
        assert!(ov.handles_shared_with(&snap) > 0);
    }

    #[test]
    fn remove_unknown_is_noop() {
        let (mut ov, mut rng) = build(10, 13);
        assert!(!ov.remove_node(Id::random(&mut rng)));
        assert_eq!(ov.len(), 10);
    }

    #[test]
    fn route_from_dead_node_fails() {
        let (mut ov, mut rng) = build(10, 14);
        let victim = ov.random_node(&mut rng).unwrap();
        ov.remove_node(victim);
        let key = Id::random(&mut rng);
        assert_eq!(
            ov.route(victim, key),
            Err(RouteError::UnknownSource(victim))
        );
    }

    #[test]
    fn random_node_is_roughly_uniform() {
        let (ov, mut rng) = build(20, 15);
        let mut counts: std::collections::HashMap<Id, usize> = std::collections::HashMap::new();
        for _ in 0..4000 {
            *counts.entry(ov.random_node(&mut rng).unwrap()).or_default() += 1;
        }
        assert_eq!(counts.len(), 20, "every node should be sampled");
    }

    #[test]
    fn tiny_ring_smaller_than_leafset() {
        // 5 nodes with |L| = 16: every leaf set holds everyone; routing is
        // one leaf-set step.
        let (mut ov, mut rng) = build(5, 16);
        for _ in 0..20 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            let out = ov.route(src, key).unwrap();
            assert_eq!(out.root, ov.owner_of(key).unwrap());
            assert!(out.hops() <= 1);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_route_agrees_with_oracle_under_arbitrary_churn(
            seed in any::<u64>(),
            script in proptest::collection::vec(any::<u8>(), 10..60),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ov = Overlay::new(PastryConfig::paper_defaults());
            for _ in 0..40 {
                ov.add_random_node(&mut rng);
            }
            for op in script {
                match op % 3 {
                    0 => {
                        ov.add_random_node(&mut rng);
                    }
                    1 if ov.len() > 5 => {
                        let victim = ov.random_node(&mut rng).unwrap();
                        ov.remove_node(victim);
                    }
                    _ => {
                        let src = ov.random_node(&mut rng).unwrap();
                        let key = Id::random(&mut rng);
                        let got = ov.route(src, key).unwrap();
                        prop_assert_eq!(got.root, ov.owner_of(key).unwrap());
                    }
                }
            }
            ov.assert_leafsets_exact();
            ov.assert_tables_structurally_valid();
        }

        #[test]
        fn prop_snapshots_match_deep_clones_and_stay_isolated(
            seed in any::<u64>(),
            script in proptest::collection::vec(any::<u8>(), 8..40),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ov = Overlay::new(PastryConfig::paper_defaults());
            for _ in 0..32 {
                ov.add_random_node(&mut rng);
            }

            // A pristine deep clone and a checkpoint taken at the same
            // instant, plus a live COW snapshot that must never observe
            // the writes applied to `ov` below.
            let oracle = ov.deep_clone();
            let cp = ov.checkpoint();
            let witness = ov.clone();
            let mut witness_ids: Vec<Id> = witness.ids().collect();
            witness_ids.sort();

            for op in script {
                match op % 3 {
                    0 => {
                        ov.add_random_node(&mut rng);
                    }
                    1 if ov.len() > 5 => {
                        let victim = ov.random_node(&mut rng).unwrap();
                        ov.remove_node(victim);
                    }
                    2 if ov.len() > 8 => {
                        let mut victims: Vec<Id> = (0..3)
                            .filter_map(|_| ov.random_node(&mut rng))
                            .collect();
                        victims.sort();
                        victims.dedup();
                        ov.remove_nodes(&victims);
                    }
                    _ => {}
                }
            }

            // Two live snapshots never observe each other's writes.
            let mut still: Vec<Id> = witness.ids().collect();
            still.sort();
            prop_assert_eq!(&still, &witness_ids);

            // Rollback restores the pre-script membership exactly…
            ov.rollback(&cp);
            let mut rolled: Vec<Id> = ov.ids().collect();
            rolled.sort();
            let mut pristine: Vec<Id> = oracle.ids().collect();
            pristine.sort();
            prop_assert_eq!(rolled, pristine);

            // …and the rolled-back overlay routes identically to the
            // pristine deep clone, path for path, for every probed key.
            // Routing mutates (lazy table eviction), so each side probes
            // its own clone; observable behavior must not differ.
            let mut probe = ov.clone();
            let mut oracle_probe = oracle.deep_clone();
            for _ in 0..16 {
                let src = probe.random_node(&mut rng).unwrap();
                let key = Id::random(&mut rng);
                let got = probe.route(src, key).unwrap();
                let want = oracle_probe.route(src, key).unwrap();
                prop_assert_eq!(got.path, want.path);
            }
            ov.assert_leafsets_exact();
            ov.assert_tables_structurally_valid();
        }

        #[test]
        fn prop_k_closest_matches_brute_force_on_ties(
            nodes in proptest::collection::vec(any::<u8>(), 1..40),
            key in any::<u8>(),
            odd in any::<bool>(),
            k in 1usize..12,
        ) {
            // Nodes on even points of a small arc straddling zero; odd
            // keys sit midway between two of them, even keys on one.
            let at = |x: u8| Id::from_u64(2 * x as u64).wrapping_sub(Id::from_u64(256));
            let mut ov = Overlay::new(PastryConfig::paper_defaults());
            for x in &nodes {
                ov.add_node(at(*x));
            }
            let key = at(key).wrapping_add(Id::from_u64(u64::from(odd)));
            let mut brute: Vec<Id> = ov.ids().collect();
            brute.sort_by(|a, b| key.cmp_distance(*a, *b));
            brute.truncate(k);
            prop_assert_eq!(ov.k_closest(key, k), brute);
        }

        #[test]
        fn prop_k_closest_is_sorted_and_distinct(
            seed in any::<u64>(),
            k in 1usize..8,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ov = Overlay::new(PastryConfig::paper_defaults());
            for _ in 0..30 {
                ov.add_random_node(&mut rng);
            }
            let key = Id::random(&mut rng);
            let closest = ov.k_closest(key, k);
            prop_assert_eq!(closest.len(), k.min(30));
            for w in closest.windows(2) {
                prop_assert_ne!(w[0], w[1]);
                prop_assert_ne!(
                    key.cmp_distance(w[0], w[1]),
                    std::cmp::Ordering::Greater,
                    "k_closest must be sorted by distance"
                );
            }
        }
    }
}
