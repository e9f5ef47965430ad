//! Slab-backed flow state for the million-flow gateway.
//!
//! The paper sizes ExBox for one cell (≈34 LiveLab users); the
//! roadmap's north star is 10⁵–10⁶ flows per gateway. At that scale
//! the per-flow layer — not the model evaluation — dominates, and the
//! stock `std::collections::HashMap<FlowKey, _>` has three problems:
//!
//! 1. SipHash is an order of magnitude slower than needed for a
//!    fixed-layout 13-byte key, and these tables are not where an
//!    outsider's keys land first: a key enters them only after its
//!    flow sent a whole classification window and was decided (the
//!    first-packet table is the early classifier's, which is keyed);
//! 2. iteration order is unspecified, so every poll had to collect
//!    and **sort** all keys (O(N log N) plus a fresh allocation) to
//!    stay deterministic;
//! 3. values move on rehash, so nothing outside the map can hold a
//!    stable reference to a flow (needed by the timer wheel).
//!
//! [`FlowMap`] replaces it: a dense slab arena (`Vec` + free list)
//! holding the flow states, addressed by stable [`FlowSlot`] handles,
//! indexed by an open-addressed table, and threaded by an intrusive
//! doubly-linked list so iteration is **insertion order**:
//! deterministic, allocation-free, and independent of hash-table
//! geometry. Determinism contract (DESIGN.md §6): the iteration order
//! seen by `run_poll` is part of the contract, and insertion order is
//! a pure function of the operation sequence.
//!
//! The index works on a key's two packed words ([`FlowKey::words`]):
//! a bucket holds them, so a probe compares two `u64`s, and
//! `table_hash` folds them through two 64×64→128-bit multiplies by
//! fixed words — no per-process seed, no dependency. A caller that asks several tables about one
//! key packs and hashes it once (a `HashedKey`). The shard-routing
//! [`hash_flow_key`] is a different, costlier function, kept only for
//! routing; the tables never compute it, so their buckets do not
//! inherit the bits routing fixes within a shard.
//!
//! [`RejectedRing`] is the bounded rejected-flow set on the same
//! index: a generation-stamped FIFO ring (stale entries are skipped by
//! stamp mismatch, never searched for) with occupancy and
//! capacity-pressure reporting.
//!
//! [`TimerWheel`] is the due list over poll ticks (a flat `Vec`; the
//! name is the one `bench/` imports): flows carry a next-evaluation
//! deadline, so an incremental poll visits only the flows due this
//! window — O(due), not O(all). The ledger's `flash_state` workload
//! (`bench/`) measures it end to end — each step is an executed poll
//! over ≈3 × 10⁴ live flows — and the
//! `core.flowtable.wheel_schedule_ns` / `wheel_advance_ns_per_due`
//! probes give the per-layer cost.

use std::collections::VecDeque;

/// The seedless FxHash-style flow hash behind the gateway's shard
/// routing; defined next to [`FlowKey`]. The tables here do not use it.
pub use exbox_net::hash_flow_key;
use exbox_net::FlowKey;

/// Absent link marker for the intrusive lists.
const NIL: u32 = u32::MAX;

/// Bits of an index bucket's tag below the port word: the [`FlowMap`]
/// slot index. A port word uses 40 bits, so an arena holds at most
/// 2²⁴ slots.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Fixed words [`table_hash`] masks a key's words with. The client
/// half of the first lies in 224.0.0.0/4 (multicast), which is never a
/// unicast client address, so no real key's address word cancels it;
/// the second has bits above the 40 a port word uses, so no port word
/// cancels it.
const SEED: [u64; 2] = [0xe3b0_c442_98fc_1c14, 0x9a5f_2d47_b1e6_3c8b];

/// A 64×64→128-bit product folded to 64 bits.
#[inline]
fn fold(x: u64, y: u64) -> u64 {
    let p = u128::from(x) * u128::from(y);
    p as u64 ^ (p >> 64) as u64
}

/// The tables' hash of a key's packed words (the shape of the early
/// classifier's keyed hash, with fixed words for its secret): the two
/// masked words fold through one product, and a second product with
/// an odd constant spreads the result into the low bits that pick the
/// bucket. A product is zero when one factor is — here, a key whose
/// address word equals `SEED[0]` — so the port word enters the second
/// product too, and even such keys spread by their ports.
#[inline]
fn table_hash(addr: u64, ports: u64) -> u64 {
    fold(
        fold(addr ^ SEED[0], ports ^ SEED[1]) ^ ports,
        0x9e37_79b9_7f4a_7c15,
    )
}

/// A flow key as the tables see it: its packed words
/// ([`FlowKey::words`]) and their [`table_hash`], computed once and
/// handed to every table asked about the key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HashedKey {
    addr: u64,
    ports: u64,
    hash: u64,
}

impl HashedKey {
    /// Pack and hash `key`.
    #[inline]
    pub(crate) fn of(key: &FlowKey) -> Self {
        let (addr, ports) = key.words();
        Self::from_words(addr, ports)
    }

    /// Hash already-packed words.
    #[inline]
    pub(crate) fn from_words(addr: u64, ports: u64) -> Self {
        HashedKey {
            addr,
            ports,
            hash: table_hash(addr, ports),
        }
    }

    /// The packed words.
    #[inline]
    pub(crate) fn words(&self) -> (u64, u64) {
        (self.addr, self.ports)
    }
}

/// Stable handle to an occupied [`FlowMap`] slot: an arena index plus
/// a generation stamp. The index is reused after removal but the
/// generation is bumped, so a stale handle (e.g. a timer-wheel entry
/// for a departed flow) dereferences to `None` instead of aliasing
/// the slot's new tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSlot {
    index: u32,
    gen: u32,
}

impl FlowSlot {
    /// The arena index (dense, `< capacity`); mainly for diagnostics.
    pub fn index(self) -> u32 {
        self.index
    }
}

/// One index bucket: a key's packed words and what the table stores
/// for it, in 16 bytes for the [`FlowMap`] index and 24 for the
/// [`RejectedRing`]'s. All-zero is empty: a port word never is zero.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket<E> {
    /// The key's address word.
    addr: u64,
    /// The key's port word `<< SLOT_BITS`, or'd with the `FlowMap`
    /// slot index (0 in the ring's index).
    tag: u64,
    /// The ring's stamp; nothing in the `FlowMap` index.
    extra: E,
}

impl<E> Bucket<E> {
    #[inline]
    fn is_empty(&self) -> bool {
        self.tag == 0
    }

    #[inline]
    fn holds(&self, key: &HashedKey) -> bool {
        self.addr == key.addr && self.tag >> SLOT_BITS == key.ports
    }

    #[inline]
    fn slot(&self) -> u32 {
        (self.tag & SLOT_MASK) as u32
    }

    /// The bucket this entry's probe starts from.
    #[inline]
    fn home(&self, mask: usize) -> usize {
        table_hash(self.addr, self.tag >> SLOT_BITS) as usize & mask
    }
}

/// Open-addressed key → bucket table: linear probing, backward-shift
/// deletion (no tombstones), power-of-two capacity, ≤ 7/8 load.
/// Shared by the [`FlowMap`] index (`E = ()`, the slot index in the
/// tag) and the [`RejectedRing`] index (`E = u64`, the stamp). Never
/// iterated, so its bucket order is invisible to the determinism
/// contract. Every operation takes a [`HashedKey`], so a caller that
/// asks several tables about one key hashes it once.
#[derive(Debug, Clone)]
struct FxTable<E> {
    buckets: Vec<Bucket<E>>,
    len: usize,
}

impl<E: Copy + Default> FxTable<E> {
    fn new() -> Self {
        FxTable {
            buckets: vec![Bucket::default(); 16],
            len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    #[inline]
    fn get(&self, key: &HashedKey) -> Option<Bucket<E>> {
        let mask = self.mask();
        let mut i = key.hash as usize & mask;
        loop {
            let b = self.buckets[i];
            if b.holds(key) {
                return Some(b);
            }
            if b.is_empty() {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert unless the key is present; an existing entry is left as
    /// it is and returned.
    fn insert(&mut self, key: &HashedKey, slot: u32, extra: E) -> Option<Bucket<E>> {
        if (self.len + 1) * 8 >= self.buckets.len() * 7 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = key.hash as usize & mask;
        loop {
            let b = &mut self.buckets[i];
            if b.holds(key) {
                return Some(*b);
            }
            if b.is_empty() {
                *b = Bucket {
                    addr: key.addr,
                    tag: key.ports << SLOT_BITS | u64::from(slot),
                    extra,
                };
                self.len += 1;
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn remove(&mut self, key: &HashedKey) -> Option<Bucket<E>> {
        let mask = self.mask();
        let mut i = key.hash as usize & mask;
        loop {
            let b = self.buckets[i];
            if b.holds(key) {
                break;
            }
            if b.is_empty() {
                return None;
            }
            i = (i + 1) & mask;
        }
        let removed = std::mem::take(&mut self.buckets[i]);
        self.len -= 1;
        // Backward-shift deletion: pull displaced entries over the
        // hole so probe chains stay contiguous without tombstones.
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let b = self.buckets[j];
            if b.is_empty() {
                break;
            }
            let home = b.home(mask);
            // Move the entry back iff its home does not lie in the
            // cyclic interval (hole, j] — i.e. the probe from `home`
            // passes through `hole`.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = std::mem::take(&mut self.buckets[j]);
                hole = j;
            }
        }
        Some(removed)
    }

    fn grow(&mut self) {
        let doubled = self.buckets.len() * 2;
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::default(); doubled]);
        let mask = self.mask();
        for b in old.into_iter().filter(|b| !b.is_empty()) {
            let mut i = b.home(mask);
            while !self.buckets[i].is_empty() {
                i = (i + 1) & mask;
            }
            self.buckets[i] = b;
        }
    }
}

/// The arena index of a fresh slot appended to an arena of `len`.
/// Panics past 2²⁴ slots, the most an index bucket can address.
fn fresh_slot(len: usize) -> u32 {
    assert!(len as u64 <= SLOT_MASK, "FlowMap holds at most 2^24 flows");
    len as u32
}

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

/// Slab-backed flow store: dense arena + free list for the states, an
/// `FxTable` for key lookup, and an intrusive doubly-linked list
/// for deterministic insertion-order iteration. Drop-in replacement
/// for `HashMap<FlowKey, V>` on the packet path (property-tested
/// against exactly that reference model in `tests/flowtable_props.rs`)
/// for up to 2²⁴ live flows; an insert past that panics.
///
/// Insertion-order rules (the part the determinism contract cares
/// about): a fresh key appends at the tail; overwriting an existing
/// key keeps its position; removing and re-inserting a key moves it
/// to the tail. Iteration never allocates and never observes
/// hash-table geometry.
#[derive(Debug)]
pub struct FlowMap<V> {
    slots: Vec<Slot<V>>,
    index: FxTable<()>,
    free_head: u32,
    head: u32,
    tail: u32,
    len: usize,
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
            slots: Vec::new(),
            index: FxTable::new(),
            free_head: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Live flows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no flow is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `key` is stored.
    pub fn contains_key(&self, key: &FlowKey) -> bool {
        self.contains_hashed(&HashedKey::of(key))
    }

    /// [`contains_key`](Self::contains_key) given the packed key.
    #[inline]
    pub(crate) fn contains_hashed(&self, key: &HashedKey) -> bool {
        self.index.get(key).is_some()
    }

    /// Shared access by key.
    pub fn get(&self, key: &FlowKey) -> Option<&V> {
        let idx = self.index.get(&HashedKey::of(key))?.slot();
        self.slots[idx as usize].data.as_ref().map(|(_, v)| v)
    }

    /// Mutable access by key.
    pub fn get_mut(&mut self, key: &FlowKey) -> Option<&mut V> {
        self.get_mut_hashed(&HashedKey::of(key)).map(|(_, v)| v)
    }

    /// The stable handle and mutable access for a packed key, in one
    /// index probe.
    #[inline]
    pub(crate) fn get_mut_hashed(&mut self, key: &HashedKey) -> Option<(FlowSlot, &mut V)> {
        let index = self.index.get(key)?.slot();
        let s = &mut self.slots[index as usize];
        let gen = s.gen;
        s.data.as_mut().map(|(_, v)| (FlowSlot { index, gen }, v))
    }

    /// The stable handle for `key`, if stored.
    pub fn slot_of(&self, key: &FlowKey) -> Option<FlowSlot> {
        let idx = self.index.get(&HashedKey::of(key))?.slot();
        Some(FlowSlot {
            index: idx,
            gen: self.slots[idx as usize].gen,
        })
    }

    /// Dereference a handle; `None` if the flow departed (generation
    /// mismatch) — stale handles are safe, never aliased.
    pub fn get_slot(&self, slot: FlowSlot) -> Option<(&FlowKey, &V)> {
        let s = self.slots.get(slot.index as usize)?;
        if s.gen != slot.gen {
            return None;
        }
        s.data.as_ref().map(|(k, v)| (k, v))
    }

    /// Mutable [`FlowMap::get_slot`].
    pub fn get_slot_mut(&mut self, slot: FlowSlot) -> Option<(&FlowKey, &mut V)> {
        let s = self.slots.get_mut(slot.index as usize)?;
        if s.gen != slot.gen {
            return None;
        }
        s.data.as_mut().map(|(k, v)| (&*k, v))
    }

    /// Insert or overwrite, returning the stable handle. A fresh key
    /// appends at the iteration tail; an existing key keeps both its
    /// position and its handle.
    pub fn insert(&mut self, key: FlowKey, value: V) -> FlowSlot {
        self.insert_hashed(&HashedKey::of(&key), key, value)
    }

    /// [`insert`](Self::insert) given `key` already packed and hashed
    /// as `hashed`. One index
    /// probe: the slot a fresh key would take (the free list's head,
    /// else the arena's end) is offered to the index, which either
    /// records it or answers with the key's existing slot.
    pub(crate) fn insert_hashed(&mut self, hashed: &HashedKey, key: FlowKey, value: V) -> FlowSlot {
        debug_assert_eq!(*hashed, HashedKey::of(&key));
        let reuse = self.free_head != NIL;
        let idx = if reuse {
            self.free_head
        } else {
            fresh_slot(self.slots.len())
        };
        if let Some(b) = self.index.insert(hashed, idx, ()) {
            let idx = b.slot();
            let s = &mut self.slots[idx as usize];
            s.data = Some((key, value));
            return FlowSlot {
                index: idx,
                gen: s.gen,
            };
        }
        if reuse {
            self.free_head = self.slots[idx as usize].next;
        } else {
            self.slots.push(Slot {
                gen: 0,
                prev: NIL,
                next: NIL,
                data: None,
            });
        }
        let gen = self.slots[idx as usize].gen;
        self.slots[idx as usize].data = Some((key, value));
        self.slots[idx as usize].prev = self.tail;
        self.slots[idx as usize].next = NIL;
        if self.tail != NIL {
            self.slots[self.tail as usize].next = idx;
        } else {
            self.head = idx;
        }
        self.tail = idx;
        self.len += 1;
        FlowSlot { index: idx, gen }
    }

    /// Remove by key, returning the value. Bumps the slot generation,
    /// invalidating every outstanding handle to it.
    pub fn remove(&mut self, key: &FlowKey) -> Option<V> {
        self.remove_hashed(&HashedKey::of(key))
    }

    /// [`remove`](Self::remove) given the packed key.
    pub(crate) fn remove_hashed(&mut self, key: &HashedKey) -> Option<V> {
        let idx = self.index.remove(key)?.slot();
        let (prev, next) = {
            let s = &self.slots[idx as usize];
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
        let s = &mut self.slots[idx as usize];
        let (_, value) = s.data.take().expect("indexed slot must be occupied");
        s.gen = s.gen.wrapping_add(1);
        s.prev = NIL;
        s.next = self.free_head;
        self.free_head = idx;
        self.len -= 1;
        Some(value)
    }

    /// Insertion-order iteration (allocation-free).
    pub fn iter(&self) -> FlowIter<'_, V> {
        FlowIter {
            map: self,
            cursor: self.head,
        }
    }

    /// First flow in insertion order (the oldest admission).
    pub fn front(&self) -> Option<(&FlowKey, &V)> {
        if self.head == NIL {
            return None;
        }
        self.slots[self.head as usize]
            .data
            .as_ref()
            .map(|(k, v)| (k, v))
    }

    /// Mutable insertion-order pass over all values.
    pub fn for_each_value_mut(&mut self, mut f: impl FnMut(&mut V)) {
        let mut cursor = self.head;
        while cursor != NIL {
            let s = &mut self.slots[cursor as usize];
            let (_, v) = s.data.as_mut().expect("linked slot must be occupied");
            f(v);
            cursor = s.next;
        }
    }

    /// Append every live handle, in insertion order, to `out` —
    /// the poll path's scratch-buffer fill (no allocation once the
    /// buffer has grown to the high-water mark).
    pub fn collect_slots(&self, out: &mut Vec<FlowSlot>) {
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
    map: &'a FlowMap<V>,
    cursor: u32,
}

impl<'a, V> Iterator for FlowIter<'a, V> {
    type Item = (&'a FlowKey, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let s = &self.map.slots[self.cursor as usize];
        self.cursor = s.next;
        s.data.as_ref().map(|(k, v)| (k, v))
    }
}

/// How one [`RejectedRing::insert`] went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Bounded rejected-flow set as a generation-stamped FIFO ring over
/// the packed-key index. Each insert gets a fresh stamp recorded both
/// in the ring and the index; [`RejectedRing::remove`] only deletes
/// from the index, leaving a stale ring entry that eviction recognises
/// by stamp mismatch and skips for free — no linear search, ever. The
/// ring is swept wholesale once it outgrows twice the live set, so
/// memory stays O(capacity).
#[derive(Debug)]
pub struct RejectedRing {
    cap: usize,
    /// `(address word, port word, stamp)` in insertion order.
    ring: VecDeque<(u64, u64, u64)>,
    index: FxTable<u64>,
    next_stamp: u64,
    inserts: u64,
    evictions: u64,
    window_started_at: (u64, u64),
    pressure_reported: bool,
}

impl RejectedRing {
    /// A ring remembering at most `cap` rejected flows (minimum 1).
    pub fn new(cap: usize) -> Self {
        RejectedRing {
            cap: cap.max(1),
            ring: VecDeque::new(),
            index: FxTable::new(),
            next_stamp: 0,
            inserts: 0,
            evictions: 0,
            window_started_at: (0, 0),
            pressure_reported: false,
        }
    }

    /// True when `key` is currently remembered as rejected.
    pub fn contains(&self, key: &FlowKey) -> bool {
        self.contains_hashed(&HashedKey::of(key))
    }

    /// [`contains`](Self::contains) given the packed key.
    #[inline]
    pub(crate) fn contains_hashed(&self, key: &HashedKey) -> bool {
        self.index.get(key).is_some()
    }

    /// Forget a rejection record (the flow departed); true when there
    /// was one. O(1): the ring entry goes stale instead of being
    /// searched out.
    pub fn remove(&mut self, key: &FlowKey) -> bool {
        self.remove_hashed(&HashedKey::of(key))
    }

    /// [`remove`](Self::remove) given the packed key.
    pub(crate) fn remove_hashed(&mut self, key: &HashedKey) -> bool {
        self.index.remove(key).is_some()
    }

    /// Live records (the `middlebox.rejected_occupancy` gauge).
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// True when nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// Lifetime inserts of fresh records.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Lifetime capacity evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Insert a rejection record; reports evictions and (once) the
    /// capacity-pressure condition.
    pub fn insert(&mut self, key: FlowKey) -> RingInsert {
        self.insert_hashed(&HashedKey::of(&key))
    }

    /// [`insert`](Self::insert) given the packed key.
    pub(crate) fn insert_hashed(&mut self, key: &HashedKey) -> RingInsert {
        let stamp = self.next_stamp;
        if self.index.insert(key, 0, stamp).is_some() {
            return RingInsert {
                evicted: 0,
                pressure: false,
            };
        }
        self.next_stamp += 1;
        self.ring.push_back((key.addr, key.ports, stamp));
        self.inserts += 1;
        let mut evicted = 0;
        while self.index.len > self.cap {
            match self.ring.pop_front() {
                Some((addr, ports, old_stamp)) => {
                    // Stale entries (removed or re-inserted since)
                    // don't count: the live record lives further back.
                    let old = HashedKey::from_words(addr, ports);
                    if self.index.get(&old).map(|b| b.extra) == Some(old_stamp) {
                        self.index.remove(&old);
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        self.evictions += evicted;
        if self.ring.len() > 2 * self.index.len.max(self.cap) {
            let index = &self.index;
            self.ring.retain(|&(addr, ports, stamp)| {
                index
                    .get(&HashedKey::from_words(addr, ports))
                    .map(|b| b.extra)
                    == Some(stamp)
            });
        }
        RingInsert {
            evicted,
            pressure: self.check_pressure(),
        }
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
    use std::net::Ipv4Addr;

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
    fn fxtable_backward_shift_keeps_probes_reachable() {
        // Three keys homed on the last bucket of a fresh table fill it
        // and wrap to buckets 0 and 1; removing the first must shift
        // both back across the wrap with their slots intact.
        let mut t: FxTable<()> = FxTable::new();
        let last = t.mask();
        let wrapping: Vec<HashedKey> = (0..)
            .map(|n| HashedKey::of(&key(n)))
            .filter(|k| k.hash as usize & last == last)
            .take(3)
            .collect();
        for (slot, k) in (7..).zip(&wrapping) {
            assert!(t.insert(k, slot, ()).is_none());
        }
        assert!(t.buckets[0].holds(&wrapping[1]) && t.buckets[1].holds(&wrapping[2]));
        assert_eq!(t.remove(&wrapping[0]).map(|b| b.slot()), Some(7));
        assert!(t.buckets[last].holds(&wrapping[1]) && t.buckets[0].holds(&wrapping[2]));
        assert!(t.buckets[1].is_empty());
        assert_eq!(t.get(&wrapping[1]).map(|b| b.slot()), Some(8));
        assert_eq!(t.get(&wrapping[2]).map(|b| b.slot()), Some(9));

        // Dense churn at small capacity forces more wraparound probes
        // and backward-shift deletions across the table boundary.
        let mut t: FxTable<u64> = FxTable::new();
        let hashed = |n: u32| HashedKey::of(&key(n));
        let stamp = |t: &FxTable<u64>, k: &HashedKey| t.get(k).map(|b| b.extra);
        for round in 0u32..50 {
            for n in 0..12 {
                let k = hashed(round * 12 + n);
                assert!(t.insert(&k, 0, n.into()).is_none());
                let present = t.insert(&k, 0, 99).map(|b| b.extra);
                assert_eq!(present, Some(n.into()), "present: left as it is");
            }
            for n in 0..12 {
                let k = hashed(round * 12 + n);
                if n % 3 != 0 {
                    assert_eq!(t.remove(&k).map(|b| b.extra), Some(n.into()));
                    assert_eq!(stamp(&t, &k), None);
                }
            }
            for n in 0..12 {
                let k = hashed(round * 12 + n);
                if n % 3 == 0 {
                    assert_eq!(stamp(&t, &k), Some(n.into()));
                }
            }
        }
    }

    #[test]
    fn buckets_hold_the_packed_words_in_16_and_24_bytes() {
        assert_eq!(std::mem::size_of::<Bucket<()>>(), 16);
        assert_eq!(std::mem::size_of::<Bucket<u64>>(), 24);
        // The widest port word and the highest slot share one tag.
        let widest = FlowKey::new(
            Ipv4Addr::BROADCAST,
            u16::MAX,
            Ipv4Addr::BROADCAST,
            u16::MAX,
            Protocol::Udp,
        );
        let (k, top) = (HashedKey::of(&widest), SLOT_MASK as u32);
        let mut t: FxTable<()> = FxTable::new();
        t.insert(&k, top, ());
        assert_eq!(t.get(&k).map(|b| b.slot()), Some(top));
        assert!(t.get(&HashedKey::of(&key(1))).is_none());
    }

    #[test]
    #[should_panic(expected = "at most 2^24 flows")]
    fn the_arena_stops_at_2_24_slots() {
        assert_eq!(fresh_slot(SLOT_MASK as usize), (1 << 24) - 1);
        fresh_slot(1 << 24);
    }

    /// Buckets a lookup of each stored key visits: the most and the
    /// mean.
    fn probe_lengths<E: Copy + Default>(t: &FxTable<E>) -> (usize, f64) {
        let mask = t.mask();
        let lengths: Vec<usize> = t
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, b)| (i.wrapping_sub(b.home(mask)) & mask) + 1)
            .collect();
        let total: usize = lengths.iter().sum();
        let longest = lengths.into_iter().max().unwrap_or(0);
        (longest, total as f64 / t.len.max(1) as f64)
    }

    fn filled(keys: impl IntoIterator<Item = FlowKey>) -> FxTable<()> {
        let mut t = FxTable::new();
        for k in keys {
            t.insert(&HashedKey::of(&k), 0, ());
        }
        t
    }

    /// Linear probing at the table's ≤ 7/8 load: 10⁵ keys hashed by a
    /// random function fill 131 072 buckets to 0.76 and give a mean
    /// lookup of about 2.6 buckets and a longest of 120–180 (eight
    /// random seeds). A hash that clusters these keys breaks both.
    fn assert_spread(name: &str, t: &FxTable<()>) {
        let (longest, mean) = probe_lengths(t);
        assert!(
            longest <= 256 && mean <= 3.0,
            "{name}: longest probe {longest}, mean {mean:.2}"
        );
    }

    #[test]
    fn probes_stay_short_for_synthetic_and_ledger_shaped_keys() {
        const N: u32 = 100_000;
        // The ledger's session keys: the session id split into a
        // 16-bit client and a flow port, one server per class.
        let session = |id: u32| {
            FlowKey::synthetic(id % 65_536, id / 65_536, (id % 6) as u8 + 1, Protocol::Tcp)
        };
        let tables = [
            ("synthetic", filled((0..N).map(key))),
            ("ledger", filled((0..N).map(session))),
            // One shard of two: routing fixes bits of its own hash,
            // which must not leave the table's buckets half used.
            (
                "ledger shard",
                filled(
                    (0..2 * N)
                        .map(session)
                        .filter(|k| crate::gateway::route(k, 2) == 0),
                ),
            ),
        ];
        for (name, t) in &tables {
            assert!(t.len >= 95_000, "{name}: {} keys", t.len);
            assert_spread(name, t);
        }
    }

    #[test]
    fn keys_cancelling_the_seed_word_still_spread() {
        // The first seed word's client half is multicast, so no unicast
        // client's address word cancels it ...
        let client = Ipv4Addr::from((SEED[0] >> 32) as u32);
        assert!(client.is_multicast());
        assert_ne!(SEED[1] >> 40, 0, "no port word cancels the second");
        // ... and a key that does zeroes the first product, but its
        // port word still spreads it over the buckets.
        let server = Ipv4Addr::from(SEED[0] as u32);
        let keys: Vec<FlowKey> = (0..10_000u32)
            .map(|n| FlowKey::new(client, n as u16, server, 443, Protocol::Udp))
            .collect();
        assert_eq!(keys[0].words().0, SEED[0]);
        assert_spread("seed-cancelling", &filled(keys));
    }
}
