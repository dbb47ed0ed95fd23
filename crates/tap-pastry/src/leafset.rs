//! Leaf sets: the `|L|` nodes numerically closest to a node, half clockwise
//! and half counter-clockwise on the ring.
//!
//! The leaf set serves two roles Pastry's correctness rests on: the final
//! routing step (if the key falls inside the leaf-set span, the closest
//! leaf is the root) and replica placement (PAST stores an object on the
//! root plus its nearest leaves). Leaf sets are kept eagerly consistent
//! under churn by [`crate::Overlay`].
//!
//! Both sides are `Arc`-shared: cloning a leaf set is two pointer bumps,
//! and a mutation copies only the one side it writes
//! ([`Arc::make_mut`]) — the copy-on-write contract overlay snapshots
//! rely on.

use std::sync::Arc;

use tap_id::Id;

/// A node's leaf set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafSet {
    owner: Id,
    half: usize,
    /// Clockwise (successor-side) neighbours, nearest first.
    cw: Arc<Vec<Id>>,
    /// Counter-clockwise (predecessor-side) neighbours, nearest first.
    ccw: Arc<Vec<Id>>,
}

impl LeafSet {
    /// An empty leaf set for `owner` keeping `half` entries per side.
    pub fn new(owner: Id, half: usize) -> Self {
        LeafSet {
            owner,
            half,
            cw: Arc::new(Vec::new()),
            ccw: Arc::new(Vec::new()),
        }
    }

    /// The node this leaf set belongs to.
    pub fn owner(&self) -> Id {
        self.owner
    }

    /// Clockwise neighbours, nearest first.
    pub fn clockwise(&self) -> &[Id] {
        &self.cw
    }

    /// Counter-clockwise neighbours, nearest first.
    pub fn counter_clockwise(&self) -> &[Id] {
        &self.ccw
    }

    /// All members (both sides), without the owner.
    pub fn members(&self) -> impl Iterator<Item = Id> + '_ {
        self.cw.iter().chain(self.ccw.iter()).copied()
    }

    /// Number of members currently known.
    pub fn len(&self) -> usize {
        self.cw.len() + self.ccw.len()
    }

    /// True when no neighbours are known (singleton ring).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replace the whole set from an authoritative neighbour listing.
    ///
    /// `cw`/`ccw` must be sorted nearest-first; trimmed to `half` per side.
    /// On rings smaller than `2·half + 1` the two directions overlap; each
    /// node is kept only on its clockwise side so that [`LeafSet::len`]
    /// counts *distinct* members — routing uses `len < 2·half` to recognize
    /// a ring it can see in its entirety.
    pub fn rebuild(&mut self, cw: Vec<Id>, ccw: Vec<Id>) {
        debug_assert!(is_sorted_by_cw_distance(self.owner, &cw));
        debug_assert!(is_sorted_by_ccw_distance(self.owner, &ccw));
        let mut cw = cw;
        cw.truncate(self.half);
        let mut ccw = ccw;
        ccw.retain(|id| !cw.contains(id));
        ccw.truncate(self.half);
        // A no-op rebuild keeps both sides shared with any snapshot.
        if *self.cw != cw {
            self.cw = Arc::new(cw);
        }
        if *self.ccw != ccw {
            self.ccw = Arc::new(ccw);
        }
    }

    /// Insert a node, keeping each side sorted and trimmed. Returns whether
    /// the set changed. The node lands on the side where it is nearer.
    pub fn insert(&mut self, id: Id) -> bool {
        if id == self.owner || self.cw.contains(&id) || self.ccw.contains(&id) {
            return false;
        }
        let cw_d = self.owner.clockwise_distance(id);
        let ccw_d = self.owner.counter_clockwise_distance(id);
        let cw_side = cw_d <= ccw_d;
        let owner = self.owner;
        let dist = |x: Id| {
            if cw_side {
                owner.clockwise_distance(x)
            } else {
                owner.counter_clockwise_distance(x)
            }
        };
        let key = if cw_side { cw_d } else { ccw_d };
        // Find the slot read-only; copy the side only when we will write.
        let side_ref = if cw_side { &self.cw } else { &self.ccw };
        let pos = side_ref
            .iter()
            .position(|&x| dist(x) > key)
            .unwrap_or(side_ref.len());
        if pos >= self.half {
            return false;
        }
        let side = Arc::make_mut(if cw_side { &mut self.cw } else { &mut self.ccw });
        side.insert(pos, id);
        side.truncate(self.half);
        true
    }

    /// Remove a departed node. Returns whether it was present.
    pub fn remove(&mut self, id: Id) -> bool {
        if let Some(p) = self.cw.iter().position(|&x| x == id) {
            Arc::make_mut(&mut self.cw).remove(p);
            return true;
        }
        if let Some(p) = self.ccw.iter().position(|&x| x == id) {
            Arc::make_mut(&mut self.ccw).remove(p);
            return true;
        }
        false
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: Id) -> bool {
        self.cw.contains(&id) || self.ccw.contains(&id)
    }

    /// Whether `key` lies within the span covered by the leaf set — i.e.
    /// between the farthest counter-clockwise and farthest clockwise
    /// members (inclusive). When it does, the routing root is a member of
    /// `leafset ∪ {owner}` and routing can finish in one exact step.
    pub fn covers(&self, key: Id) -> bool {
        if self.cw.is_empty() && self.ccw.is_empty() {
            return true; // singleton: the owner is root for everything
        }
        let cw_edge = self.cw.last().copied().unwrap_or(self.owner);
        let ccw_edge = self.ccw.last().copied().unwrap_or(self.owner);
        // Arc from ccw_edge clockwise to cw_edge, inclusive on both ends.
        key == ccw_edge || key.between_cw(ccw_edge, cw_edge)
    }

    /// A fully-owned copy sharing no allocation with `self` (the deep
    /// oracle for the snapshot proptests).
    pub fn deep_clone(&self) -> LeafSet {
        LeafSet {
            owner: self.owner,
            half: self.half,
            cw: Arc::new(self.cw.as_ref().clone()),
            ccw: Arc::new(self.ccw.as_ref().clone()),
        }
    }

    /// How many of the two sides are physically shared with `other`
    /// (0, 1 or 2 — diagnostics for the snapshot tests).
    pub fn sides_shared_with(&self, other: &LeafSet) -> usize {
        usize::from(Arc::ptr_eq(&self.cw, &other.cw))
            + usize::from(Arc::ptr_eq(&self.ccw, &other.ccw))
    }

    /// The member of `leafset ∪ {owner}` numerically closest to `key`
    /// (deterministic tie-break via [`Id::cmp_distance`]).
    pub fn closest_to(&self, key: Id) -> Id {
        // Each candidate's distance is computed once; `(distance, id)`
        // pairs order exactly as `cmp_distance` does.
        let mut best = (key.ring_distance(self.owner), self.owner);
        for m in self.members() {
            best = best.min((key.ring_distance(m), m));
        }
        best.1
    }
}

fn is_sorted_by_cw_distance(owner: Id, xs: &[Id]) -> bool {
    xs.windows(2)
        .all(|w| owner.clockwise_distance(w[0]) <= owner.clockwise_distance(w[1]))
}

fn is_sorted_by_ccw_distance(owner: Id, xs: &[Id]) -> bool {
    xs.windows(2)
        .all(|w| owner.counter_clockwise_distance(w[0]) <= owner.counter_clockwise_distance(w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(v: u64) -> Id {
        Id::from_u64(v)
    }

    fn set_with(owner: u64, members: &[u64]) -> LeafSet {
        let mut ls = LeafSet::new(id(owner), 4);
        for &m in members {
            ls.insert(id(m));
        }
        ls
    }

    #[test]
    fn insert_sorts_by_side_distance() {
        let ls = set_with(100, &[110, 105, 90, 95, 120]);
        assert_eq!(ls.clockwise(), &[id(105), id(110), id(120)]);
        assert_eq!(ls.counter_clockwise(), &[id(95), id(90)]);
    }

    #[test]
    fn insert_dedups_and_ignores_owner() {
        let mut ls = set_with(100, &[105]);
        assert!(!ls.insert(id(105)));
        assert!(!ls.insert(id(100)));
        assert_eq!(ls.len(), 1);
    }

    #[test]
    fn insert_trims_to_half() {
        let mut ls = LeafSet::new(id(100), 4); // half = 4... per side
        for m in [101, 102, 103, 104, 105, 106] {
            ls.insert(id(m));
        }
        assert_eq!(ls.clockwise(), &[id(101), id(102), id(103), id(104)]);
        // A nearer node displaces the farthest.
        assert!(!ls.insert(id(101)), "already present");
        let mut ls2 = ls.clone();
        assert!(!ls2.insert(id(106)), "beyond capacity and farther");
    }

    #[test]
    fn nearer_node_displaces_farther() {
        let mut ls = LeafSet::new(id(100), 2); // one per side... half=2
        ls.insert(id(110));
        ls.insert(id(120));
        assert_eq!(ls.clockwise(), &[id(110), id(120)]);
        assert!(ls.insert(id(105)));
        assert_eq!(ls.clockwise(), &[id(105), id(110)]);
    }

    #[test]
    fn remove_either_side() {
        let mut ls = set_with(100, &[105, 95]);
        assert!(ls.remove(id(105)));
        assert!(ls.remove(id(95)));
        assert!(!ls.remove(id(42)));
        assert!(ls.is_empty());
    }

    #[test]
    fn covers_and_closest() {
        let ls = set_with(100, &[105, 110, 95, 90]);
        assert!(ls.covers(id(100)));
        assert!(ls.covers(id(107)));
        assert!(ls.covers(id(90)), "ccw edge inclusive");
        assert!(ls.covers(id(110)), "cw edge inclusive");
        assert!(!ls.covers(id(111)));
        assert!(!ls.covers(id(89)));
        assert_eq!(ls.closest_to(id(104)), id(105));
        assert_eq!(ls.closest_to(id(101)), id(100), "owner can be closest");
        assert_eq!(ls.closest_to(id(93)), id(95));
    }

    #[test]
    fn covers_wrapping_ring() {
        let mut ls = LeafSet::new(Id::from_u64(2), 4);
        ls.insert(Id::MAX); // predecessor across zero
        ls.insert(Id::from_u64(5));
        assert!(ls.covers(Id::ZERO));
        assert!(ls.covers(Id::from_u64(4)));
        assert!(!ls.covers(Id::from_u64(9)));
    }

    #[test]
    fn singleton_covers_everything() {
        let ls = LeafSet::new(id(7), 8);
        assert!(ls.covers(Id::MAX));
        assert_eq!(ls.closest_to(Id::MAX), id(7));
    }

    #[test]
    fn clones_share_sides_until_written() {
        let mut ls = set_with(100, &[105, 110, 95]);
        let snap = ls.clone();
        assert_eq!(ls.sides_shared_with(&snap), 2);
        // Reads and no-op writes keep both sides shared.
        assert!(ls.covers(id(107)));
        assert!(!ls.insert(id(105)));
        assert!(!ls.remove(id(42)));
        assert_eq!(ls.sides_shared_with(&snap), 2);
        // Writing the clockwise side copies it; ccw stays shared.
        assert!(ls.insert(id(103)));
        assert_eq!(ls.sides_shared_with(&snap), 1);
        assert_eq!(
            snap.clockwise(),
            &[id(105), id(110)],
            "snapshot must not see the insert"
        );
        // A rebuild that changes nothing re-shares nothing but keeps the
        // current allocations; one that changes a side swaps it out.
        let before = ls.clone();
        ls.rebuild(vec![id(103), id(105), id(110)], vec![id(95)]);
        assert_eq!(ls.sides_shared_with(&before), 2, "no-op rebuild");
        // deep_clone shares nothing but compares equal.
        let deep = ls.deep_clone();
        assert_eq!(deep, ls);
        assert_eq!(deep.sides_shared_with(&ls), 0);
    }

    #[test]
    fn rebuild_replaces_and_trims() {
        let mut ls = LeafSet::new(id(0), 2);
        ls.rebuild(vec![id(1), id(2), id(3)], vec![Id::MAX]);
        assert_eq!(ls.clockwise(), &[id(1), id(2)]);
        assert_eq!(ls.counter_clockwise(), &[Id::MAX]);
    }

    proptest! {
        #[test]
        fn prop_closest_is_truly_closest(
            owner in any::<[u8; 20]>(),
            members in proptest::collection::vec(any::<[u8; 20]>(), 1..12),
            key in any::<[u8; 20]>(),
        ) {
            let owner = Id::from_bytes(owner);
            let key = Id::from_bytes(key);
            let mut ls = LeafSet::new(owner, 8);
            for m in &members {
                ls.insert(Id::from_bytes(*m));
            }
            let best = ls.closest_to(key);
            let candidates: Vec<Id> =
                ls.members().chain(std::iter::once(owner)).collect();
            for c in candidates {
                prop_assert_ne!(
                    key.cmp_distance(c, best),
                    std::cmp::Ordering::Less,
                    "member closer than closest_to result"
                );
            }
        }

        #[test]
        fn prop_closest_to_matches_brute_force_on_ties(
            owner in any::<u8>(),
            members in proptest::collection::vec(any::<u8>(), 0..20),
            key in any::<u8>(),
        ) {
            // Even points on a small arc straddling zero, odd keys: many
            // keys are equidistant from two members, and arcs wrap.
            let at = |x: u8| Id::from_u64(2 * x as u64).wrapping_sub(Id::from_u64(256));
            let owner = at(owner);
            let key = at(key).wrapping_add(Id::from_u64(1));
            let mut ls = LeafSet::new(owner, 4);
            for m in &members {
                ls.insert(at(*m));
            }
            let brute = ls
                .members()
                .chain(std::iter::once(owner))
                .min_by(|a, b| key.cmp_distance(*a, *b))
                .unwrap();
            prop_assert_eq!(ls.closest_to(key), brute);
        }

        #[test]
        fn prop_sides_stay_sorted_under_churn(
            owner in any::<[u8; 20]>(),
            ops in proptest::collection::vec((any::<[u8; 20]>(), any::<bool>()), 0..40),
        ) {
            let owner = Id::from_bytes(owner);
            let mut ls = LeafSet::new(owner, 6);
            for (bytes, remove) in ops {
                let x = Id::from_bytes(bytes);
                if remove {
                    ls.remove(x);
                } else {
                    ls.insert(x);
                }
                prop_assert!(super::is_sorted_by_cw_distance(owner, ls.clockwise()));
                prop_assert!(super::is_sorted_by_ccw_distance(owner, ls.counter_clockwise()));
                prop_assert!(ls.clockwise().len() <= 6);
                prop_assert!(ls.counter_clockwise().len() <= 6);
            }
        }
    }
}
