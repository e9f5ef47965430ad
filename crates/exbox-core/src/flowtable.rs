//! Slab-backed flow state for the million-flow gateway.
//!
//! The paper sizes ExBox for one cell (≈34 LiveLab users); the
//! roadmap's north star is 10⁵–10⁶ flows per gateway. At that scale
//! the per-flow layer — not the model evaluation — dominates, and the
//! stock `std::collections::HashMap<FlowKey, _>` has three problems:
//!
//! 1. SipHash is an order of magnitude slower than needed for a
//!    fixed-layout 13-byte key;
//! 2. iteration order is unspecified, so every poll had to collect
//!    and **sort** all keys (O(N log N) plus a fresh allocation) to
//!    stay deterministic;
//! 3. values move on rehash, so nothing outside the map can hold a
//!    stable reference to a flow (needed by the due list).
//!
//! The layer is parts over one key index, `exbox-net`'s keyed
//! [`FlowIndex`], whose bucket says where a flow is
//! ([`Place`]) beside the key's packed words:
//!
//! * an arena — a dense slab (`Vec` + free list) of flow states,
//!   addressed by stable [`FlowSlot`] handles and threaded by an
//!   intrusive doubly-linked list, so iteration is **insertion
//!   order**: deterministic, allocation-free, and independent of
//!   hash-table geometry. Determinism contract (DESIGN.md §6): the
//!   iteration order seen by `run_poll` is part of the contract, and
//!   insertion order is a pure function of the operation sequence;
//! * a rejected-flow FIFO — a ring of stamped records whose live one
//!   is the key's `Place::Rejected(stamp)` (stale entries are skipped
//!   by stamp mismatch, never searched for), with occupancy and
//!   capacity-pressure reporting;
//! * [`TimerWheel`] — the due list over poll ticks (a flat `Vec`; the
//!   name is the one `bench/` imports): flows carry a next-evaluation
//!   deadline, so an incremental poll visits only the flows due this
//!   window — O(due), not O(all). The ledger's `flash_state` workload
//!   (`bench/`) measures it end to end — each step is an executed poll
//!   over ≈3 × 10⁴ live flows — and the
//!   `core.flowtable.wheel_schedule_ns` / `wheel_advance_ns_per_due`
//!   probes give the per-layer cost.
//!
//! The gateway's flow engine composes one index with an arena, a FIFO
//! and the early classifier's window arena, so a flow it knows is one
//! bucket whatever its place. [`FlowMap`] (index + arena) and
//! [`RejectedRing`] (index + FIFO) are the same parts standing alone,
//! for their property tests and the ledger's layer probes. The
//! shard-routing [`hash_flow_key`] is a different function, kept only
//! for routing; no index computes it, so a shard's buckets do not
//! inherit the bits routing fixes within the shard.

use std::collections::VecDeque;

/// The seedless FxHash-style flow hash behind the gateway's shard
/// routing; defined next to [`FlowKey`]. The flow index does not use
/// it.
pub use exbox_net::hash_flow_key;
use exbox_net::index::{place_value, PLACE_VALUES};
use exbox_net::{FlowIndex, FlowKey, IndexKey, Place, Spot};

/// Absent link marker for the intrusive lists.
const NIL: u32 = u32::MAX;

/// Stable handle to an occupied arena slot: an arena index plus a
/// generation stamp. The index is reused after removal but the
/// generation is bumped, so a stale handle (e.g. a due-list entry for
/// a departed flow) dereferences to `None` instead of aliasing the
/// slot's new tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSlot {
    index: u32,
    gen: u32,
}

impl FlowSlot {
    /// The arena index (dense, `< capacity`), the value of the flow's
    /// `Place::Admitted`.
    pub fn index(self) -> u32 {
        self.index
    }
}

const OCCUPIED: &str = "an indexed slot is occupied";

#[derive(Debug)]
struct Slot<V> {
    /// Generation stamp; bumped on removal so stale [`FlowSlot`]s
    /// miss.
    gen: u32,
    /// Previous occupied slot in insertion order (`NIL` at head).
    prev: u32,
    /// Next occupied slot in insertion order; doubles as the
    /// free-list link while vacant.
    next: u32,
    /// `Some` while occupied.
    data: Option<(FlowKey, V)>,
}

/// Dense slab of flow states with a free list and an intrusive
/// insertion-order list. It hashes nothing: an index maps a key to its
/// slot — [`FlowMap`]'s own, or the flow engine's shared one.
///
/// Insertion-order rules (the part the determinism contract cares
/// about): a pushed flow appends at the tail, a taken one leaves the
/// list, so removing and re-inserting a key moves it to the tail.
/// Iteration never allocates and never observes hash-table geometry.
#[derive(Debug)]
pub(crate) struct Arena<V> {
    slots: Vec<Slot<V>>,
    free_head: u32,
    head: u32,
    tail: u32,
    len: usize,
}

impl<V> Arena<V> {
    pub(crate) fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Live flows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when no flow is stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Store `key`'s state at the iteration tail, in the free list's
    /// head slot, else a fresh one.
    ///
    /// # Panics
    /// Past [`PLACE_VALUES`] slots, the most a `Place::Admitted` names.
    pub(crate) fn push(&mut self, key: FlowKey, value: V) -> FlowSlot {
        let index = if self.free_head != NIL {
            let index = self.free_head;
            self.free_head = self.slots[index as usize].next;
            index
        } else {
            let index = place_value(self.slots.len(), "an arena slot");
            self.slots.push(Slot {
                gen: 0,
                prev: NIL,
                next: NIL,
                data: None,
            });
            index
        };
        let tail = self.tail;
        let s = &mut self.slots[index as usize];
        s.data = Some((key, value));
        (s.prev, s.next) = (tail, NIL);
        let gen = s.gen;
        if tail != NIL {
            self.slots[tail as usize].next = index;
        } else {
            self.head = index;
        }
        self.tail = index;
        self.len += 1;
        FlowSlot { index, gen }
    }

    /// The flow in occupied slot `index` (an index entry's slot).
    pub(crate) fn at(&self, index: u32) -> (&FlowKey, &V) {
        let (k, v) = self.slots[index as usize].data.as_ref().expect(OCCUPIED);
        (k, v)
    }

    /// The handle and mutable state of occupied slot `index`.
    #[inline]
    pub(crate) fn at_mut(&mut self, index: u32) -> (FlowSlot, &mut V) {
        let s = &mut self.slots[index as usize];
        let gen = s.gen;
        let (_, v) = s.data.as_mut().expect(OCCUPIED);
        (FlowSlot { index, gen }, v)
    }

    /// Free occupied slot `index`, returning its flow. Bumps the slot
    /// generation, invalidating every outstanding handle to it.
    pub(crate) fn take(&mut self, index: u32) -> (FlowKey, V) {
        let (prev, next) = {
            let s = &self.slots[index as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        let s = &mut self.slots[index as usize];
        let flow = s.data.take().expect(OCCUPIED);
        s.gen = s.gen.wrapping_add(1);
        (s.prev, s.next) = (NIL, self.free_head);
        self.free_head = index;
        self.len -= 1;
        flow
    }

    /// Dereference a handle; `None` if the flow departed (generation
    /// mismatch) — stale handles are safe, never aliased.
    pub(crate) fn get_slot(&self, slot: FlowSlot) -> Option<(&FlowKey, &V)> {
        let s = self.slots.get(slot.index as usize)?;
        if s.gen != slot.gen {
            return None;
        }
        s.data.as_ref().map(|(k, v)| (k, v))
    }

    /// Mutable [`Arena::get_slot`].
    pub(crate) fn get_slot_mut(&mut self, slot: FlowSlot) -> Option<(&FlowKey, &mut V)> {
        let s = self.slots.get_mut(slot.index as usize)?;
        if s.gen != slot.gen {
            return None;
        }
        s.data.as_mut().map(|(k, v)| (&*k, v))
    }

    /// First flow in insertion order (the oldest admission).
    pub(crate) fn front(&self) -> Option<(FlowSlot, &FlowKey, &V)> {
        let s = self.slots.get(self.head as usize)?;
        let (k, v) = s.data.as_ref().expect(OCCUPIED);
        let slot = FlowSlot {
            index: self.head,
            gen: s.gen,
        };
        Some((slot, k, v))
    }

    /// Insertion-order iteration (allocation-free).
    pub(crate) fn iter(&self) -> FlowIter<'_, V> {
        FlowIter {
            arena: self,
            cursor: self.head,
        }
    }

    /// Mutable insertion-order pass over all values.
    pub(crate) fn for_each_value_mut(&mut self, mut f: impl FnMut(&mut V)) {
        let mut cursor = self.head;
        while cursor != NIL {
            let s = &mut self.slots[cursor as usize];
            let (_, v) = s.data.as_mut().expect(OCCUPIED);
            f(v);
            cursor = s.next;
        }
    }

    /// Append every live handle, in insertion order, to `out` — the
    /// poll path's scratch-buffer fill (no allocation once the buffer
    /// has grown to the high-water mark).
    pub(crate) fn collect_slots(&self, out: &mut Vec<FlowSlot>) {
        let mut cursor = self.head;
        while cursor != NIL {
            let s = &self.slots[cursor as usize];
            out.push(FlowSlot {
                index: cursor,
                gen: s.gen,
            });
            cursor = s.next;
        }
    }
}

/// Insertion-order iterator over a [`FlowMap`].
#[derive(Debug)]
pub struct FlowIter<'a, V> {
    arena: &'a Arena<V>,
    cursor: u32,
}

impl<'a, V> Iterator for FlowIter<'a, V> {
    type Item = (&'a FlowKey, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let s = &self.arena.slots[self.cursor as usize];
        self.cursor = s.next;
        s.data.as_ref().map(|(k, v)| (k, v))
    }
}

/// Slab-backed flow store: an arena for the states and an index of
/// its own mapping each key to `Place::Admitted(slot)`. Drop-in
/// replacement for `HashMap<FlowKey, V>` (property-tested against
/// exactly that reference model in `tests/flowtable_props.rs`) for up
/// to 2^29 live flows; an insert past that panics.
///
/// Insertion-order rules: a fresh key appends at the tail; overwriting
/// an existing key keeps its position and its handle; removing and
/// re-inserting a key moves it to the tail.
#[derive(Debug)]
pub struct FlowMap<V> {
    index: FlowIndex,
    arena: Arena<V>,
}

impl<V> Default for FlowMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FlowMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        FlowMap {
            index: FlowIndex::new(),
            arena: Arena::new(),
        }
    }

    /// Live flows.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when no flow is stored.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The arena slot `key` is stored in: one hash, one probe.
    fn slot_index(&self, key: &FlowKey) -> Option<u32> {
        match self.index.get(&self.index.key(key))? {
            Place::Admitted(index) => Some(index),
            _ => None,
        }
    }

    /// True when `key` is stored.
    pub fn contains_key(&self, key: &FlowKey) -> bool {
        self.slot_index(key).is_some()
    }

    /// Shared access by key.
    pub fn get(&self, key: &FlowKey) -> Option<&V> {
        Some(self.arena.at(self.slot_index(key)?).1)
    }

    /// Mutable access by key.
    pub fn get_mut(&mut self, key: &FlowKey) -> Option<&mut V> {
        let index = self.slot_index(key)?;
        Some(self.arena.at_mut(index).1)
    }

    /// The stable handle for `key`, if stored.
    pub fn slot_of(&self, key: &FlowKey) -> Option<FlowSlot> {
        let index = self.slot_index(key)?;
        Some(FlowSlot {
            index,
            gen: self.arena.slots[index as usize].gen,
        })
    }

    /// Dereference a handle; `None` if the flow departed (generation
    /// mismatch) — stale handles are safe, never aliased.
    pub fn get_slot(&self, slot: FlowSlot) -> Option<(&FlowKey, &V)> {
        self.arena.get_slot(slot)
    }

    /// Mutable [`FlowMap::get_slot`].
    pub fn get_slot_mut(&mut self, slot: FlowSlot) -> Option<(&FlowKey, &mut V)> {
        self.arena.get_slot_mut(slot)
    }

    /// Insert or overwrite, returning the stable handle. A fresh key
    /// appends at the iteration tail; an existing key keeps both its
    /// position and its handle. One probe: a fresh key is recorded in
    /// the bucket that probe ended on.
    pub fn insert(&mut self, key: FlowKey, value: V) -> FlowSlot {
        let hashed = self.index.key(&key);
        let (spot, place) = self.index.find(&hashed);
        if let Some(Place::Admitted(index)) = place {
            let (slot, v) = self.arena.at_mut(index);
            *v = value;
            return slot;
        }
        let slot = self.arena.push(key, value);
        self.index.put(spot, &hashed, Place::Admitted(slot.index));
        slot
    }

    /// Remove by key, returning the value. Bumps the slot generation,
    /// invalidating every outstanding handle to it.
    pub fn remove(&mut self, key: &FlowKey) -> Option<V> {
        let hashed = self.index.key(key);
        match self.index.remove(&hashed)? {
            Place::Admitted(index) => Some(self.arena.take(index).1),
            _ => None,
        }
    }

    /// Insertion-order iteration (allocation-free).
    pub fn iter(&self) -> FlowIter<'_, V> {
        self.arena.iter()
    }

    /// First flow in insertion order (the oldest admission).
    pub fn front(&self) -> Option<(&FlowKey, &V)> {
        self.arena.front().map(|(_, k, v)| (k, v))
    }

    /// Mutable insertion-order pass over all values.
    pub fn for_each_value_mut(&mut self, f: impl FnMut(&mut V)) {
        self.arena.for_each_value_mut(f);
    }

    /// Append every live handle, in insertion order, to `out`.
    pub fn collect_slots(&self, out: &mut Vec<FlowSlot>) {
        self.arena.collect_slots(out);
    }
}

/// How one rejected-set insert went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingInsert {
    /// Old records evicted to stay within capacity (0 or 1).
    pub evicted: u64,
    /// True exactly once, when a full accounting window closed with
    /// the eviction rate caught up to the insertion rate — the set is
    /// thrashing at capacity and the operator should size it up.
    pub pressure: bool,
}

/// Accounting window (inserts) for the eviction-pressure warning.
const PRESSURE_WINDOW: u64 = 256;

/// The bounded rejected-flow FIFO over an index it is handed: each
/// record gets a fresh stamp, kept modulo [`PLACE_VALUES`] (2^29) both
/// in the ring and in the key's `Place::Rejected`. Forgetting a record
/// only unindexes the key, leaving a stale ring entry that eviction
/// recognises by stamp mismatch and skips for free — no linear search,
/// ever. The ring is swept wholesale once it outgrows twice the live
/// set, so it never holds more than `2 · cap + 1` entries; stamps
/// within that span are distinct while the span is a place value
/// (`2 · cap + 1 < 2^29`), which [`RejectFifo::new`] asserts.
#[derive(Debug)]
pub(crate) struct RejectFifo {
    cap: usize,
    /// `(address word, port word, stamp)` in insertion order.
    ring: VecDeque<(u64, u64, u32)>,
    live: usize,
    next_stamp: u32,
    inserts: u64,
    evictions: u64,
    window_started_at: (u64, u64),
    pressure_reported: bool,
}

impl RejectFifo {
    /// A FIFO keeping at most `cap` live records (minimum 1).
    ///
    /// # Panics
    /// If `2 · cap + 1` reaches 2^29 (`cap` past 2^28 − 1): stamps
    /// would alias.
    pub(crate) fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        place_value(
            cap.saturating_mul(2) + 1,
            "the rejected-flow stamp span (2 · capacity + 1)",
        );
        RejectFifo {
            cap,
            ring: VecDeque::new(),
            live: 0,
            next_stamp: 0,
            inserts: 0,
            evictions: 0,
            window_started_at: (0, 0),
            pressure_reported: false,
        }
    }

    /// Live records.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Lifetime capacity evictions.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// File `key` — which [`FlowIndex::find`] found at `spot`, in no
    /// place or any but rejected — as rejected: retag or fill its
    /// bucket, queue the record and evict the oldest live ones past
    /// capacity (one hash and one probe each).
    pub(crate) fn file(&mut self, index: &mut FlowIndex, spot: Spot, key: &IndexKey) -> RingInsert {
        let stamp = self.next_stamp;
        self.next_stamp = (stamp + 1) % PLACE_VALUES;
        index.put(spot, key, Place::Rejected(stamp));
        let (addr, ports) = key.words();
        self.ring.push_back((addr, ports, stamp));
        self.live += 1;
        self.inserts += 1;
        let mut evicted = 0;
        while self.live > self.cap {
            let Some((addr, ports, stamp)) = self.ring.pop_front() else {
                break;
            };
            // Stale entries (forgotten or re-filed since) don't count:
            // the live record lives further back.
            let (at, place) = index.find(&index.key_words(addr, ports));
            if place == Some(Place::Rejected(stamp)) {
                index.remove_at(at);
                self.live -= 1;
                evicted += 1;
            }
        }
        self.evictions += evicted;
        if self.ring.len() > 2 * self.live.max(self.cap) {
            self.ring.retain(|&(addr, ports, stamp)| {
                index.get(&index.key_words(addr, ports)) == Some(Place::Rejected(stamp))
            });
        }
        RingInsert {
            evicted,
            pressure: self.check_pressure(),
        }
    }

    /// A live record's key was unindexed (its flow departed).
    pub(crate) fn forget(&mut self) {
        self.live -= 1;
    }

    /// Close accounting windows of [`PRESSURE_WINDOW`] inserts; fire
    /// once when a window's evictions caught up with its inserts.
    fn check_pressure(&mut self) -> bool {
        let (win_ins, win_ev) = self.window_started_at;
        if self.inserts - win_ins < PRESSURE_WINDOW {
            return false;
        }
        let evicted_in_window = self.evictions - win_ev;
        self.window_started_at = (self.inserts, self.evictions);
        if !self.pressure_reported && evicted_in_window >= PRESSURE_WINDOW {
            self.pressure_reported = true;
            return true;
        }
        false
    }
}

/// Bounded rejected-flow set: the rejected-flow FIFO over an index of
/// its own. Holds at most `cap` records and evicts the oldest first;
/// removal is O(1).
#[derive(Debug)]
pub struct RejectedRing {
    index: FlowIndex,
    fifo: RejectFifo,
}

impl RejectedRing {
    /// A ring remembering at most `cap` rejected flows (minimum 1).
    ///
    /// # Panics
    /// Past 2^28 − 1 records: record stamps are kept modulo 2^29 in the
    /// flow index.
    pub fn new(cap: usize) -> Self {
        RejectedRing {
            index: FlowIndex::new(),
            fifo: RejectFifo::new(cap),
        }
    }

    /// True when `key` is currently remembered as rejected.
    pub fn contains(&self, key: &FlowKey) -> bool {
        self.index.get(&self.index.key(key)).is_some()
    }

    /// Forget a rejection record (the flow departed); true when there
    /// was one. O(1): the ring entry goes stale instead of being
    /// searched out.
    pub fn remove(&mut self, key: &FlowKey) -> bool {
        let hashed = self.index.key(key);
        let had = self.index.remove(&hashed).is_some();
        if had {
            self.fifo.forget();
        }
        had
    }

    /// Live records (the `middlebox.rejected_occupancy` gauge).
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// True when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime inserts of fresh records.
    pub fn inserts(&self) -> u64 {
        self.fifo.inserts
    }

    /// Lifetime capacity evictions.
    pub fn evictions(&self) -> u64 {
        self.fifo.evictions
    }

    /// Insert a rejection record; reports evictions and (once) the
    /// capacity-pressure condition. A key already remembered is left
    /// as it is.
    pub fn insert(&mut self, key: FlowKey) -> RingInsert {
        let hashed = self.index.key(&key);
        match self.index.find(&hashed) {
            (_, Some(_)) => RingInsert::default(),
            (spot, None) => self.fifo.file(&mut self.index, spot, &hashed),
        }
    }
}

/// Due list over poll ticks. One tick = one executed poll. The engine
/// only ever schedules for the next tick and advances one tick per
/// poll, so a plain list in schedule order is already in deadline
/// order; any other deadline is honoured by sorting at `advance`.
/// Entries are [`FlowSlot`]s — a departed flow's entry goes stale
/// (generation mismatch) and the poll skips it, so nothing ever
/// cancels a timer.
#[derive(Debug, Default)]
pub struct TimerWheel {
    entries: Vec<(FlowSlot, u64)>,
    now: u64,
}

impl TimerWheel {
    /// A wheel at tick 0 with nothing scheduled.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Scheduled entries (including stale ones not yet drained).
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// Schedule `flow` to come due at `deadline` (clamped to the next
    /// tick if already past). Duplicate scheduling is the *caller's*
    /// job to avoid — the flow-state layer keeps a next-deadline field
    /// per flow for exactly that.
    pub fn schedule(&mut self, flow: FlowSlot, deadline: u64) {
        self.entries.push((flow, deadline.max(self.now + 1)));
    }

    /// Advance to tick `to`, appending every due entry (deadline ≤
    /// `to`) to `due` in deadline order (FIFO within a tick).
    pub fn advance(&mut self, to: u64, due: &mut Vec<FlowSlot>) {
        self.now = self.now.max(to);
        // Checked first because the stable sort allocates its merge
        // buffer even for one sorted run — the engine's every poll.
        if !self.entries.is_sorted_by_key(|&(_, at)| at) {
            self.entries.sort_by_key(|&(_, at)| at);
        }
        let n = self.entries.partition_point(|&(_, at)| at <= to);
        due.extend(self.entries.drain(..n).map(|(flow, _)| flow));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exbox_net::Protocol;

    fn key(n: u32) -> FlowKey {
        FlowKey::synthetic(n, n, 1, Protocol::Tcp)
    }

    #[test]
    fn flowmap_insert_get_remove_roundtrip() {
        let mut m: FlowMap<u32> = FlowMap::new();
        assert!(m.is_empty());
        for n in 0..1000 {
            m.insert(key(n), n);
        }
        assert_eq!(m.len(), 1000);
        for n in 0..1000 {
            assert_eq!(m.get(&key(n)), Some(&n));
        }
        for n in (0..1000).step_by(2) {
            assert_eq!(m.remove(&key(n)), Some(n));
        }
        assert_eq!(m.len(), 500);
        for n in 0..1000 {
            assert_eq!(m.contains_key(&key(n)), n % 2 == 1);
        }
    }

    #[test]
    fn flowmap_iterates_in_insertion_order_across_churn() {
        let mut m: FlowMap<u32> = FlowMap::new();
        for n in 0..10 {
            m.insert(key(n), n);
        }
        m.remove(&key(3));
        m.remove(&key(0));
        m.insert(key(42), 42); // reuses a freed slot, still appends
        m.insert(key(3), 33); // re-insert moves to the tail
        let order: Vec<u32> = m.iter().map(|(_, v)| *v).collect();
        assert_eq!(order, vec![1, 2, 4, 5, 6, 7, 8, 9, 42, 33]);
        assert_eq!(m.front().map(|(_, v)| *v), Some(1));
    }

    #[test]
    fn flowmap_overwrite_keeps_position_and_slot() {
        let mut m: FlowMap<u32> = FlowMap::new();
        let s1 = m.insert(key(1), 10);
        m.insert(key(2), 20);
        let s1b = m.insert(key(1), 11);
        assert_eq!(s1, s1b, "overwrite must keep the handle");
        let order: Vec<u32> = m.iter().map(|(_, v)| *v).collect();
        assert_eq!(order, vec![11, 20]);
    }

    #[test]
    fn stale_slots_miss_after_reuse() {
        let mut m: FlowMap<u32> = FlowMap::new();
        let s = m.insert(key(1), 10);
        assert!(m.get_slot(s).is_some());
        m.remove(&key(1));
        assert_eq!(m.get_slot(s), None, "stale handle must miss");
        let s2 = m.insert(key(2), 20); // reuses index 0, new gen
        assert_eq!(s2.index(), s.index());
        assert_eq!(m.get_slot(s), None, "old gen must still miss");
        assert_eq!(m.get_slot(s2).map(|(_, v)| *v), Some(20));
    }

    #[test]
    fn collect_slots_matches_iter() {
        let mut m: FlowMap<u32> = FlowMap::new();
        for n in 0..100 {
            m.insert(key(n), n);
        }
        for n in (0..100).step_by(3) {
            m.remove(&key(n));
        }
        let mut slots = Vec::new();
        m.collect_slots(&mut slots);
        let via_slots: Vec<u32> = slots
            .iter()
            .map(|&s| *m.get_slot(s).expect("fresh handles are live").1)
            .collect();
        let via_iter: Vec<u32> = m.iter().map(|(_, v)| *v).collect();
        assert_eq!(via_slots, via_iter);
    }

    #[test]
    fn rejected_ring_bounded_fifo_with_stale_skip() {
        let mut r = RejectedRing::new(2);
        assert_eq!(r.insert(key(1)).evicted, 0);
        assert_eq!(r.insert(key(2)).evicted, 0);
        // Departure: index drops the record, ring entry goes stale.
        r.remove(&key(1));
        assert!(!r.contains(&key(1)));
        assert_eq!(r.len(), 1);
        // Two more inserts: capacity 2, the stale entry for key 1 is
        // skipped at eviction time, key 2 (oldest live) is evicted.
        assert_eq!(r.insert(key(3)).evicted, 0);
        let ins = r.insert(key(4));
        assert_eq!(ins.evicted, 1);
        assert!(!r.contains(&key(2)));
        assert!(r.contains(&key(3)) && r.contains(&key(4)));
        assert_eq!(r.evictions(), 1);
    }

    #[test]
    fn rejected_ring_reinsert_after_eviction() {
        let mut r = RejectedRing::new(1);
        r.insert(key(1));
        r.insert(key(2)); // evicts 1
        assert!(!r.contains(&key(1)));
        r.insert(key(1)); // evicts 2
        assert!(r.contains(&key(1)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn rejected_ring_reports_pressure_once() {
        let mut r = RejectedRing::new(4);
        let mut fired = 0;
        // Thrash far past the window: every insert beyond capacity
        // evicts, so the first full window must fire, later ones not.
        for n in 0..3 * PRESSURE_WINDOW as u32 + 8 {
            if r.insert(key(n)).pressure {
                fired += 1;
            }
        }
        assert_eq!(fired, 1, "pressure must warn exactly once");
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn wheel_due_at_exact_ticks() {
        let mut w = TimerWheel::new();
        let mut m: FlowMap<u32> = FlowMap::new();
        let s1 = m.insert(key(1), 1);
        let s2 = m.insert(key(2), 2);
        let s3 = m.insert(key(3), 3);
        w.schedule(s1, 1);
        w.schedule(s2, 3);
        w.schedule(s3, 200);
        let mut due = Vec::new();
        w.advance(1, &mut due);
        assert_eq!(due, vec![s1]);
        due.clear();
        w.advance(2, &mut due);
        assert!(due.is_empty());
        w.advance(3, &mut due);
        assert_eq!(due, vec![s2]);
        due.clear();
        w.advance(199, &mut due);
        assert!(due.is_empty());
        w.advance(200, &mut due);
        assert_eq!(due, vec![s3]);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn wheel_clamps_past_deadlines_forward() {
        let mut w = TimerWheel::new();
        let mut m: FlowMap<u32> = FlowMap::new();
        let s = m.insert(key(1), 1);
        let mut due = Vec::new();
        w.advance(10, &mut due);
        w.schedule(s, 4); // already past: clamps to tick 11
        w.advance(11, &mut due);
        assert_eq!(due, vec![s]);
    }

    #[test]
    fn wheel_far_deadlines_fire_in_their_window() {
        let mut w = TimerWheel::new();
        let mut m: FlowMap<u32> = FlowMap::new();
        let mut due = Vec::new();
        // Deadlines spread over seven orders of magnitude.
        let deadlines = [63u64, 64, 4_095, 4_096, 262_143, 20_000_000];
        let slots: Vec<FlowSlot> = deadlines
            .iter()
            .enumerate()
            .map(|(i, _)| m.insert(key(i as u32), i as u32))
            .collect();
        for (s, d) in slots.iter().zip(deadlines) {
            w.schedule(*s, d);
        }
        let mut fired: Vec<(u64, FlowSlot)> = Vec::new();
        let mut t = 0;
        while w.pending() > 0 {
            t += 1_000;
            due.clear();
            w.advance(t, &mut due);
            for s in &due {
                fired.push((t, *s));
            }
        }
        assert_eq!(fired.len(), deadlines.len());
        for ((at, s), d) in fired.iter().zip(deadlines) {
            assert_eq!(*s, slots[deadlines.iter().position(|&x| x == d).unwrap()]);
            assert!(
                *at >= d && at - d < 1_000,
                "deadline {d} fired at {at}, outside its advance window"
            );
        }
    }

    #[test]
    #[should_panic(expected = "stamp span (2 · capacity + 1): 536870913 is past 2^29 - 1")]
    fn a_ring_past_the_stamp_bits_is_refused() {
        let widest = RejectedRing::new((1 << 28) - 1);
        assert!(widest.is_empty());
        RejectedRing::new(1 << 28);
    }

    /// Stamps wrap modulo 2^29 with stale entries on both sides of the
    /// wrap: the ring still evicts exactly the oldest live record.
    #[test]
    fn stamps_wrap_without_confusing_records() {
        let mut r = RejectedRing::new(2);
        r.fifo.next_stamp = PLACE_VALUES - 3;
        let mut model: VecDeque<u32> = VecDeque::new();
        for step in 0u32..40 {
            let n = step % 5;
            if step % 3 == 2 {
                assert_eq!(r.remove(&key(n)), model.contains(&n));
                model.retain(|&m| m != n);
            } else {
                let fresh = !model.contains(&n);
                let ins = r.insert(key(n));
                if fresh {
                    model.push_back(n);
                }
                let evicted = model.len().saturating_sub(2);
                model.drain(..evicted);
                assert_eq!(ins.evicted, evicted as u64, "step {step}");
            }
            for m in 0..5 {
                assert_eq!(r.contains(&key(m)), model.contains(&m), "step {step}");
            }
        }
        assert!(r.fifo.next_stamp < 40, "the stamps wrapped");
    }
}
