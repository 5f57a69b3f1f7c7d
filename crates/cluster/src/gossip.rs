//! MOSIX/openMosix probabilistic load dissemination.
//!
//! openMosix nodes do not query a central server: every time unit each
//! node sends its own load, plus a random half of what it knows about
//! other nodes, to one randomly chosen peer (Barak & Litman's MOSIX
//! information dissemination, inherited by openMosix's oM_infoD). Each
//! node therefore holds a **stale, partial load vector** — the balancer
//! must decide from that, not from ground truth. Staleness is the reason
//! suboptimal migrations happen, which is precisely why the paper argues
//! cheap freezes matter (§7).

use ampom_sim::rng::SimRng;
use ampom_sim::time::SimTime;

/// One entry of a node's load vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadEntry {
    /// The reported load (run-queue length).
    pub load: f64,
    /// When the owner measured it.
    pub measured_at: SimTime,
}

/// A node's (stale, partial) view of cluster load.
#[derive(Debug, Clone)]
pub struct LoadView {
    entries: Vec<Option<LoadEntry>>,
    me: usize,
}

impl LoadView {
    /// A fresh view for node `me` of an `n`-node cluster: it knows only
    /// itself.
    pub fn new(n: usize, me: usize) -> Self {
        assert!(me < n);
        let mut entries = vec![None; n];
        entries[me] = Some(LoadEntry {
            load: 0.0,
            measured_at: SimTime::ZERO,
        });
        LoadView { entries, me }
    }

    /// Updates this node's own entry.
    pub fn set_own(&mut self, load: f64, now: SimTime) {
        self.entries[self.me] = Some(LoadEntry {
            load,
            measured_at: now,
        });
    }

    /// Merges a received entry under the pinned freshness rule of
    /// [`merge_wins`]: strictly fresher wins; at equal timestamps the
    /// higher load wins.
    pub fn merge(&mut self, node: usize, entry: LoadEntry) {
        match self.entries[node] {
            Some(existing) if !merge_wins(existing, entry) => {}
            _ => self.entries[node] = Some(entry),
        }
    }

    /// The entry for `node`, if known.
    pub fn entry(&self, node: usize) -> Option<LoadEntry> {
        self.entries[node]
    }

    /// How many peers this node knows about (excluding itself).
    pub fn known_peers(&self) -> usize {
        self.entries
            .iter()
            .enumerate()
            .filter(|&(i, e)| i != self.me && e.is_some())
            .count()
    }

    /// The least-loaded node this view knows of (other than `me`),
    /// ignoring entries older than `max_age` relative to `now`.
    pub fn least_loaded_peer(
        &self,
        now: SimTime,
        max_age: ampom_sim::time::SimDuration,
    ) -> Option<(usize, f64)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.me)
            .filter_map(|(i, e)| e.map(|e| (i, e)))
            .filter(|(_, e)| now.saturating_since(e.measured_at) <= max_age)
            .map(|(i, e)| (i, e.load))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// A random half of the known entries (the MOSIX gossip payload),
    /// always including this node's own entry first.
    pub fn gossip_payload(&self, rng: &mut SimRng) -> Vec<(usize, LoadEntry)> {
        let mut known: Vec<(usize, LoadEntry)> = self
            .entries
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.me)
            .filter_map(|(i, e)| e.map(|e| (i, e)))
            .collect();
        rng.shuffle(&mut known);
        known.truncate(known.len() / 2);
        let mut payload = vec![(self.me, self.entries[self.me].expect("own entry"))];
        payload.extend(known);
        payload
    }
}

/// The pinned merge rule: does `incoming` replace `existing`?
///
/// * A strictly fresher measurement always wins.
/// * At **equal timestamps** the **higher load** wins. Equal-timestamp
///   conflicts are routine at scale: the balancer's pessimistic
///   post-migration bump carries the same tick timestamp as the owner's
///   own measurement, and two gossip paths can deliver both within one
///   round. Higher-load-wins keeps the pessimism (no herding onto a node
///   that was just picked) and, unlike first-or-last-writer-wins, is
///   commutative and associative — the merged view is independent of
///   delivery order, which the deterministic parallel engine relies on.
/// * An equal-timestamp, equal-load entry does not replace (no-op).
pub fn merge_wins(existing: LoadEntry, incoming: LoadEntry) -> bool {
    incoming.measured_at > existing.measured_at
        || (incoming.measured_at == existing.measured_at && incoming.load > existing.load)
}

/// A bounded, age-stamped load window — the 1000-node form of
/// [`LoadView`].
///
/// A full `LoadView` holds one slot per cluster node, which is fine at 16
/// nodes and pure waste at 1000+: MOSIX's dissemination deliberately keeps
/// only a *window* of the freshest vector entries per node, because stale
/// entries are worse than no entries. `WindowView` keeps at most
/// `capacity` peer entries, rejects entries already older than the
/// staleness bound at merge time, and evicts the stalest entry when full
/// (ties broken by the higher node id, so eviction is deterministic).
///
/// The entries live in `window` in slot order: an eviction moves the last
/// slot's entry into the victim's slot and puts the newcomer last (a
/// `swap_remove` then a `push`), and [`WindowView::payload`] shuffles
/// exactly that order, so the order is part of the observable behaviour.
/// Two indexes sit beside it: a presence bitset over node ids (one bit
/// per node seen, grown on demand) that answers "not in the window"
/// without a scan, and an indexed min-heap of slots keyed by
/// `(measured_at, Reverse(node))` whose root is the eviction victim.
///
/// Node ids must fit in a `u32`.
#[derive(Debug, Clone)]
pub struct WindowView {
    me: usize,
    own: LoadEntry,
    window: Vec<Slot>,
    capacity: usize,
    /// Bit `n` is set while node `n` holds a slot.
    present: Vec<u64>,
    /// Slot numbers ordered as a binary min-heap, stalest at the root.
    heap: Vec<u16>,
}

/// One window slot. With a `u32` node id the slot's heap position fills
/// what would otherwise be padding.
#[derive(Debug, Clone, Copy)]
struct Slot {
    node: u32,
    /// This slot's index in `WindowView::heap`.
    heap_pos: u16,
    entry: LoadEntry,
}

impl WindowView {
    /// The largest capacity a window can have: slots are indexed by
    /// `u16`.
    pub const MAX_CAPACITY: usize = u16::MAX as usize;

    /// A fresh window for node `me` holding at most `capacity` peers.
    ///
    /// Panics unless `1 <= capacity <= WindowView::MAX_CAPACITY`.
    pub fn new(me: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "WindowView needs a positive capacity");
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "WindowView capacity {capacity} exceeds {}",
            Self::MAX_CAPACITY
        );
        WindowView {
            me,
            own: LoadEntry {
                load: 0.0,
                measured_at: SimTime::ZERO,
            },
            window: Vec::with_capacity(capacity.min(1024)),
            capacity,
            present: Vec::new(),
            heap: Vec::with_capacity(capacity.min(1024)),
        }
    }

    /// This node's id.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Updates this node's own entry.
    pub fn set_own(&mut self, load: f64, now: SimTime) {
        self.own = LoadEntry {
            load,
            measured_at: now,
        };
    }

    /// This node's own entry.
    pub fn own(&self) -> LoadEntry {
        self.own
    }

    /// Forgets everything but the own entry (a restarted node rejoins
    /// with an empty window).
    pub fn reset(&mut self, now: SimTime) {
        for i in 0..self.window.len() {
            self.unmark(self.window[i].node as usize);
        }
        self.window.clear();
        self.heap.clear();
        self.own = LoadEntry {
            load: 0.0,
            measured_at: now,
        };
    }

    fn is_present(&self, node: usize) -> bool {
        self.present
            .get(node / 64)
            .is_some_and(|word| word & (1 << (node % 64)) != 0)
    }

    fn mark(&mut self, node: usize) {
        let word = node / 64;
        if word >= self.present.len() {
            self.present.resize(word + 1, 0);
        }
        self.present[word] |= 1 << (node % 64);
    }

    fn unmark(&mut self, node: usize) {
        self.present[node / 64] &= !(1 << (node % 64));
    }

    /// The slot holding `node`, scanning only when the bitset says it is
    /// there.
    fn slot_of(&self, node: usize) -> Option<usize> {
        if !self.is_present(node) {
            return None;
        }
        self.window.iter().position(|s| s.node as usize == node)
    }

    /// The entry for `node`, if inside the window.
    pub fn entry(&self, node: usize) -> Option<LoadEntry> {
        if node == self.me {
            return Some(self.own);
        }
        self.slot_of(node).map(|slot| self.window[slot].entry)
    }

    /// How many peers the window currently holds.
    pub fn known_peers(&self) -> usize {
        self.window.len()
    }

    /// Age of the stalest window entry at `now` (zero for an empty
    /// window).
    pub fn max_entry_age(&self, now: SimTime) -> ampom_sim::time::SimDuration {
        self.heap
            .first()
            .map_or(ampom_sim::time::SimDuration::ZERO, |&root| {
                now.saturating_since(self.window[root as usize].entry.measured_at)
            })
    }

    /// Merges a received entry under the staleness bound: entries already
    /// older than `max_age` at merge time are refused outright (a windowed
    /// view never spends a slot on an entry it would not act on), fresher
    /// entries win per [`merge_wins`], and a full window evicts its
    /// stalest entry. Returns `true` when the window changed.
    pub fn merge(
        &mut self,
        node: usize,
        entry: LoadEntry,
        now: SimTime,
        max_age: ampom_sim::time::SimDuration,
    ) -> bool {
        if node == self.me {
            return false;
        }
        if now.saturating_since(entry.measured_at) > max_age {
            return false;
        }
        if let Some(slot) = self.slot_of(node) {
            if !merge_wins(self.window[slot].entry, entry) {
                return false;
            }
            // A winning entry is never staler, so the slot can only sink.
            self.window[slot].entry = entry;
            self.sift_down(self.window[slot].heap_pos as usize);
            return true;
        }
        let id = u32::try_from(node).expect("WindowView node ids fit in a u32");
        if self.window.len() < self.capacity {
            let slot = self.window.len();
            self.window.push(Slot {
                node: id,
                heap_pos: slot as u16,
                entry,
            });
            self.heap.push(slot as u16);
            self.sift_up(slot);
        } else {
            // Evict the stalest entry, the heap root; ties were broken
            // toward the higher node id by the heap key, so eviction is a
            // pure function of the window contents.
            let victim = self.heap[0] as usize;
            let held = self.window[victim].entry;
            if !merge_wins(held, entry) && held.measured_at >= entry.measured_at {
                // The incoming entry is staler than everything held.
                return false;
            }
            self.unmark(self.window[victim].node as usize);
            // `swap_remove` then `push`: the last slot's entry moves into
            // the victim's slot, keeping its heap position, and the
            // newcomer takes the last slot at the heap root.
            self.window.swap_remove(victim);
            let last = self.window.len();
            if victim != last {
                self.heap[self.window[victim].heap_pos as usize] = victim as u16;
            }
            self.window.push(Slot {
                node: id,
                heap_pos: 0,
                entry,
            });
            self.heap[0] = last as u16;
            self.sift_down(0);
        }
        self.mark(node);
        true
    }

    /// Slot `slot`'s eviction key: staler first, then the higher node
    /// id. Packed into one integer so the sift loops compare without
    /// branching on the tie.
    fn key(&self, slot: u16) -> u128 {
        let s = &self.window[slot as usize];
        (u128::from(s.entry.measured_at.as_nanos()) << 64) | u128::from(u32::MAX - s.node)
    }

    /// Puts `slot` at heap position `i`.
    fn place(&mut self, i: usize, slot: u16) {
        self.heap[i] = slot;
        self.window[slot as usize].heap_pos = i as u16;
    }

    fn sift_up(&mut self, mut i: usize) {
        let slot = self.heap[i];
        let key = self.key(slot);
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.heap[parent];
            if key >= self.key(above) {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, slot);
    }

    fn sift_down(&mut self, mut i: usize) {
        let slot = self.heap[i];
        let key = self.key(slot);
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let (mut child, mut child_key) = (left, self.key(self.heap[left]));
            if left + 1 < len {
                let right_key = self.key(self.heap[left + 1]);
                child += usize::from(right_key < child_key);
                child_key = child_key.min(right_key);
            }
            if child_key >= key {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, slot);
    }

    /// The least-loaded known peer with a fresh-enough entry, ties broken
    /// toward the lower node id (deterministic regardless of window
    /// order).
    pub fn least_loaded_peer(
        &self,
        now: SimTime,
        max_age: ampom_sim::time::SimDuration,
    ) -> Option<(usize, f64)> {
        self.window
            .iter()
            .filter(|s| now.saturating_since(s.entry.measured_at) <= max_age)
            .map(|s| (s.node as usize, s.entry.load))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// The MOSIX gossip payload: this node's own entry first, then a
    /// random half of the window. Shuffling slot numbers instead of the
    /// entries makes the same draws and so the same permutation.
    pub fn payload(&self, rng: &mut SimRng) -> Vec<(usize, LoadEntry)> {
        let mut order: Vec<u16> = (0..self.window.len() as u16).collect();
        rng.shuffle(&mut order);
        order.truncate(order.len() / 2);
        let mut payload = Vec::with_capacity(order.len() + 1);
        payload.push((self.me, self.own));
        payload.extend(order.iter().map(|&slot| {
            let s = &self.window[slot as usize];
            (s.node as usize, s.entry)
        }));
        payload
    }
}

/// One node's gossip plan for a tick: the chosen peer and the payload it
/// sends there. Pure in `(view, rng)`, so an engine can compute all
/// plans in parallel from an immutable snapshot and apply them in node
/// order — the deliveries are then independent of the thread count.
pub fn plan_gossip(
    view: &WindowView,
    nodes: usize,
    rng: &mut SimRng,
) -> Option<(usize, Vec<(usize, LoadEntry)>)> {
    if nodes < 2 {
        return None;
    }
    let mut target = rng.below(nodes as u64 - 1) as usize;
    if target >= view.me() {
        target += 1;
    }
    Some((target, view.payload(rng)))
}

/// Gossip parameters.
#[derive(Debug, Clone, Copy)]
pub struct GossipConfig {
    /// Entries older than this are not trusted for decisions.
    pub max_age: ampom_sim::time::SimDuration,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            max_age: ampom_sim::time::SimDuration::from_secs(8),
        }
    }
}

/// One gossip round: every node sends its payload to one random peer.
pub fn gossip_round(views: &mut [LoadView], now: SimTime, rng: &mut SimRng) {
    let n = views.len();
    if n < 2 {
        return;
    }
    // Collect sends first so a round is "simultaneous" (no intra-round
    // relaying), then deliver.
    let mut deliveries: Vec<(usize, Vec<(usize, LoadEntry)>)> = Vec::with_capacity(n);
    for (i, view) in views.iter().enumerate() {
        let mut target = rng.below(n as u64 - 1) as usize;
        if target >= i {
            target += 1;
        }
        let mut forked = rng.fork(now.as_nanos() ^ i as u64);
        deliveries.push((target, view.gossip_payload(&mut forked)));
    }
    for (target, payload) in deliveries {
        for (node, entry) in payload {
            if node != target {
                views[target].merge(node, entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_sim::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn fresh_view_knows_only_itself() {
        let v = LoadView::new(8, 3);
        assert_eq!(v.known_peers(), 0);
        assert!(v.entry(3).is_some());
        assert!(v.entry(0).is_none());
    }

    #[test]
    fn merge_keeps_fresher_entry() {
        let mut v = LoadView::new(4, 0);
        v.merge(
            1,
            LoadEntry {
                load: 5.0,
                measured_at: t(10),
            },
        );
        v.merge(
            1,
            LoadEntry {
                load: 9.0,
                measured_at: t(5),
            },
        ); // staler
        assert_eq!(v.entry(1).unwrap().load, 5.0);
        v.merge(
            1,
            LoadEntry {
                load: 2.0,
                measured_at: t(20),
            },
        ); // fresher
        assert_eq!(v.entry(1).unwrap().load, 2.0);
    }

    #[test]
    fn least_loaded_respects_staleness() {
        let mut v = LoadView::new(4, 0);
        v.merge(
            1,
            LoadEntry {
                load: 1.0,
                measured_at: t(0),
            },
        );
        v.merge(
            2,
            LoadEntry {
                load: 3.0,
                measured_at: t(9),
            },
        );
        let now = t(10);
        // Node 1 is cheaper but its entry is 10 s old; with max_age 8 s it
        // is distrusted.
        let pick = v.least_loaded_peer(now, SimDuration::from_secs(8));
        assert_eq!(pick, Some((2, 3.0)));
        // With a looser bound node 1 wins.
        let pick = v.least_loaded_peer(now, SimDuration::from_secs(60));
        assert_eq!(pick, Some((1, 1.0)));
    }

    #[test]
    fn gossip_spreads_information() {
        let n = 16;
        let mut views: Vec<LoadView> = (0..n).map(|i| LoadView::new(n, i)).collect();
        let mut rng = SimRng::seed_from_u64(11);
        for (i, v) in views.iter_mut().enumerate() {
            v.set_own(i as f64, t(0));
        }
        for round in 0..20 {
            gossip_round(&mut views, t(round), &mut rng);
        }
        // After 20 rounds of push gossip every node should know most of
        // the cluster.
        let avg_known: f64 = views.iter().map(|v| v.known_peers() as f64).sum::<f64>() / n as f64;
        assert!(avg_known > (n - 1) as f64 * 0.7, "avg known {avg_known}");
    }

    #[test]
    fn gossip_payload_contains_self_first() {
        let mut v = LoadView::new(8, 2);
        v.set_own(4.0, t(1));
        v.merge(
            0,
            LoadEntry {
                load: 1.0,
                measured_at: t(1),
            },
        );
        v.merge(
            5,
            LoadEntry {
                load: 2.0,
                measured_at: t(1),
            },
        );
        let mut rng = SimRng::seed_from_u64(3);
        let payload = v.gossip_payload(&mut rng);
        assert_eq!(payload[0].0, 2);
        assert_eq!(payload[0].1.load, 4.0);
        // Half of the two known peers = 1 extra entry.
        assert_eq!(payload.len(), 2);
    }

    #[test]
    fn merge_equal_timestamp_higher_load_wins() {
        // Regression for the previously unpinned tie-break: the old rule
        // (`existing.measured_at >= entry.measured_at` keeps existing)
        // silently dropped the balancer's pessimistic bump whenever it
        // carried the same tick timestamp as the owner's measurement.
        let mut v = LoadView::new(4, 0);
        v.merge(
            1,
            LoadEntry {
                load: 2.0,
                measured_at: t(7),
            },
        );
        v.merge(
            1,
            LoadEntry {
                load: 3.0,
                measured_at: t(7),
            },
        ); // same timestamp, higher load: wins
        assert_eq!(v.entry(1).unwrap().load, 3.0);
        v.merge(
            1,
            LoadEntry {
                load: 1.0,
                measured_at: t(7),
            },
        ); // same timestamp, lower load: loses
        assert_eq!(v.entry(1).unwrap().load, 3.0);
    }

    #[test]
    fn merge_rule_is_order_independent() {
        // Any delivery order of the same entry set converges to the same
        // view — the property the parallel engine's sequential-apply
        // phase relies on.
        let entries = [
            LoadEntry {
                load: 2.0,
                measured_at: t(7),
            },
            LoadEntry {
                load: 5.0,
                measured_at: t(7),
            },
            LoadEntry {
                load: 9.0,
                measured_at: t(3),
            },
            LoadEntry {
                load: 1.0,
                measured_at: t(7),
            },
        ];
        // All 4! orders, generated by repeated rotation/swap: simplest is
        // to test a handful of distinct permutations.
        let orders: [[usize; 4]; 6] = [
            [0, 1, 2, 3],
            [3, 2, 1, 0],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [1, 3, 0, 2],
            [2, 0, 3, 1],
        ];
        for order in orders {
            let mut v = LoadView::new(2, 0);
            for &k in &order {
                v.merge(1, entries[k]);
            }
            let got = v.entry(1).unwrap();
            assert_eq!((got.load, got.measured_at), (5.0, t(7)), "order {order:?}");
        }
    }

    #[test]
    fn window_refuses_stale_entries_at_merge_time() {
        let mut w = WindowView::new(0, 8);
        let max_age = SimDuration::from_secs(8);
        assert!(!w.merge(
            1,
            LoadEntry {
                load: 1.0,
                measured_at: t(0),
            },
            t(20),
            max_age,
        ));
        assert_eq!(w.known_peers(), 0);
        assert!(w.merge(
            1,
            LoadEntry {
                load: 1.0,
                measured_at: t(15),
            },
            t(20),
            max_age,
        ));
        assert_eq!(w.known_peers(), 1);
    }

    #[test]
    fn window_evicts_stalest_deterministically() {
        let mut w = WindowView::new(0, 2);
        let max_age = SimDuration::from_secs(3600);
        w.merge(
            1,
            LoadEntry {
                load: 1.0,
                measured_at: t(10),
            },
            t(10),
            max_age,
        );
        w.merge(
            2,
            LoadEntry {
                load: 2.0,
                measured_at: t(10),
            },
            t(10),
            max_age,
        );
        // Full window; a fresher entry for node 3 evicts the stalest.
        // Both held entries share t(10), so the tie goes to the higher
        // node id: node 2 is evicted.
        assert!(w.merge(
            3,
            LoadEntry {
                load: 9.0,
                measured_at: t(11),
            },
            t(11),
            max_age,
        ));
        assert_eq!(w.known_peers(), 2);
        assert!(w.entry(1).is_some());
        assert!(w.entry(2).is_none());
        assert!(w.entry(3).is_some());
        // An entry staler than everything held is refused even though the
        // window is full of other nodes.
        assert!(!w.merge(
            4,
            LoadEntry {
                load: 0.1,
                measured_at: t(9),
            },
            t(11),
            max_age,
        ));
        assert!(w.entry(4).is_none());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn window_wider_than_u16_slots_panics() {
        WindowView::new(0, WindowView::MAX_CAPACITY + 1);
    }

    #[test]
    fn window_least_loaded_breaks_ties_by_node_id() {
        let mut w = WindowView::new(0, 8);
        let max_age = SimDuration::from_secs(60);
        for node in [5, 2, 7] {
            w.merge(
                node,
                LoadEntry {
                    load: 1.0,
                    measured_at: t(1),
                },
                t(1),
                max_age,
            );
        }
        assert_eq!(w.least_loaded_peer(t(2), max_age), Some((2, 1.0)));
    }

    #[test]
    fn plan_gossip_never_targets_self() {
        let mut w = WindowView::new(3, 8);
        w.set_own(1.0, t(0));
        let mut rng = SimRng::seed_from_u64(99);
        for _ in 0..200 {
            let (target, payload) = plan_gossip(&w, 8, &mut rng).unwrap();
            assert_ne!(target, 3);
            assert!(target < 8);
            assert_eq!(payload[0].0, 3);
        }
        assert!(plan_gossip(&w, 1, &mut rng).is_none());
    }

    #[test]
    fn single_node_cluster_gossips_harmlessly() {
        let mut views = vec![LoadView::new(1, 0)];
        let mut rng = SimRng::seed_from_u64(1);
        gossip_round(&mut views, t(0), &mut rng);
        assert_eq!(views[0].known_peers(), 0);
    }
}
