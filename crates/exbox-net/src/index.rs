//! The flow index: one keyed, open-addressed table from a flow key's
//! packed words to where the flow is.
//!
//! A flow the gateway knows is in exactly one place — its first
//! packets are being classified, or it was admitted, or it was
//! rejected — and a [`FlowIndex`] bucket says which, beside the key's
//! two packed words ([`FlowKey::words`]), in 16 bytes: the address
//! word, and a tag holding the port word narrowed to 33 bits (the
//! protocol byte, 6 or 17, kept as one bit) over a [`Place`] (two kind
//! bits, never both zero, and a 29-bit value — a window slot, an arena
//! slot or a ring stamp). So finding a flow, whatever its place, is one
//! hash and one probe, and a flow that changes place is retagged in its
//! bucket instead of leaving one table for another. A bucket whose tag
//! is zero is empty. The index owns the value limit: an owner that
//! needs a value calls [`place_value`], which refuses one past
//! [`PLACE_VALUES`] with one message.
//!
//! The table is open-addressed: linear probing, backward-shift deletion
//! (no tombstones), power-of-two capacity, ≤ 7/8 load. It is the one
//! probe loop there is; the gateway's flow engine, the early
//! classifier's own `observe`, and `exbox-core`'s `FlowMap` and
//! `RejectedRing` are compositions of it.
//!
//! **Where the secret enters.** A key enters on the first packet of any
//! flow, so whoever can open flows chooses every entry. Bucket choice
//! therefore mixes in a 128-bit secret each index draws from `std`'s
//! `RandomState` when it is built — the collision-crafting protection a
//! default `HashMap` gives, at two multiplies a key instead of SipHash.
//! Nothing iterates the table, so no output depends on where a key
//! landed.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

use crate::packet::{FlowKey, Protocol};

/// Bits of a [`Place`]'s value.
const VALUE_BITS: u32 = 29;
/// Values a [`Place`] carries: arena and window slots stay below this,
/// ring stamps are kept modulo it.
pub const PLACE_VALUES: u32 = 1 << VALUE_BITS;
const VALUE_MASK: u64 = PLACE_VALUES as u64 - 1;
/// Bits of a bucket's tag below the narrowed port word (33 bits): the
/// place's two kind bits over its value.
const PLACE_BITS: u32 = VALUE_BITS + 2;

/// `n` as the value of a [`Place`], for an owner that cannot go on
/// without it (an arena slot, a stamp span).
///
/// # Panics
/// When `n` is [`PLACE_VALUES`] or more; the message names `what`.
pub fn place_value(n: usize, what: &str) -> u32 {
    assert!(
        n < PLACE_VALUES as usize,
        "{what}: {n} is past 2^{VALUE_BITS} - 1, the most a flow index place holds"
    );
    n as u32
}

/// Where a flow is. Each value is below [`PLACE_VALUES`]; the index
/// stores what it is given, and the owner of each kind gets its values
/// from [`place_value`] or stays below [`PLACE_VALUES`] itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// Admitted, its state in this arena slot.
    Admitted(u32),
    /// Rejected, its record stamped with this (modulo [`PLACE_VALUES`]).
    Rejected(u32),
    /// Being classified, its first packets in this window slot.
    Classifying(u32),
}

impl Place {
    /// Kind codes 1–3 over the value: a packed place is never zero.
    #[inline]
    fn pack(self) -> u64 {
        let (kind, value) = match self {
            Place::Admitted(v) => (1, v),
            Place::Rejected(v) => (2, v),
            Place::Classifying(v) => (3, v),
        };
        debug_assert!(value < PLACE_VALUES, "{self:?} past 2^{VALUE_BITS} - 1");
        kind << VALUE_BITS | u64::from(value)
    }

    #[inline]
    fn unpack(bits: u64) -> Place {
        let value = (bits & VALUE_MASK) as u32;
        match bits >> VALUE_BITS & 3 {
            1 => Place::Admitted(value),
            2 => Place::Rejected(value),
            _ => Place::Classifying(value),
        }
    }
}

/// A port word ([`FlowKey::words`]: 40 bits, protocol byte 6 or 17) in
/// the 33 bits a bucket keeps: the two ports, and the protocol byte's
/// low bit, which tells 6 from 17.
#[inline]
fn narrow(ports: u64) -> u64 {
    ports >> 8 << 1 | ports & 1
}

/// The port word [`narrow`] kept.
#[inline]
fn widen(narrowed: u64) -> u64 {
    let protocol = if narrowed & 1 == 0 {
        Protocol::Tcp
    } else {
        Protocol::Udp
    };
    narrowed >> 1 << 8 | u64::from(protocol.ip_proto())
}

/// A 64×64→128-bit product folded to 64 bits.
#[inline]
fn fold(x: u64, y: u64) -> u64 {
    let p = u128::from(x) * u128::from(y);
    p as u64 ^ (p >> 64) as u64
}

/// A flow key as one index sees it: its packed words and their hash
/// under that index's secret. Hash a key once per operation and hand it
/// to every call that operation makes.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexKey {
    addr: u64,
    ports: u64,
    hash: u64,
}

impl IndexKey {
    /// The packed words ([`FlowKey::words`]).
    #[inline]
    pub fn words(&self) -> (u64, u64) {
        (self.addr, self.ports)
    }
}

impl fmt::Debug for IndexKey {
    /// The words only: a hash is a function of the secret.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexKey")
            .field("addr", &self.addr)
            .field("ports", &self.ports)
            .finish_non_exhaustive()
    }
}

/// Where a [`FlowIndex::find`] ended: the key's bucket, or the empty
/// bucket an insert of the key would fill. A spot belongs to the key it
/// was found for, and only until the index next inserts or removes a
/// key — an insert may fill that bucket or regrow the table, a removal
/// shifts entries back over the hole — while a retag leaves every spot
/// as it is. [`put`](FlowIndex::put) and
/// [`remove_at`](FlowIndex::remove_at) refuse (panic on) a spot from
/// before the last insert or removal, so a stale spot never writes a
/// duplicate or unreachable entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Spot {
    at: usize,
    /// The index's insert-and-removal count when the spot was found.
    edits: u64,
}

#[derive(Clone, Copy, Default)]
struct Bucket {
    /// The key's address word.
    addr: u64,
    /// The key's narrowed port word `<< PLACE_BITS`, or'd with its
    /// packed place; zero in an empty bucket.
    tag: u64,
}

impl Bucket {
    #[inline]
    fn is_empty(&self) -> bool {
        self.tag == 0
    }

    /// True when this occupied bucket is `key`'s. (An empty bucket's
    /// words match the all-zero TCP key; probes test emptiness first.)
    #[inline]
    fn holds(&self, key: &IndexKey) -> bool {
        self.addr == key.addr && self.tag >> PLACE_BITS == narrow(key.ports)
    }
}

/// Keyed open-addressed index from a flow key's packed words to its
/// [`Place`]; see the module docs.
pub struct FlowIndex {
    secret: [u64; 2],
    buckets: Vec<Bucket>,
    len: usize,
    /// Inserts and removals so far: what dates a [`Spot`].
    edits: u64,
}

impl fmt::Debug for FlowIndex {
    /// Sizes only: the secret stays out of logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowIndex")
            .field("len", &self.len)
            .field("buckets", &self.buckets.len())
            .finish_non_exhaustive()
    }
}

impl Default for FlowIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowIndex {
    /// An empty index with a secret of its own.
    pub fn new() -> Self {
        let state = RandomState::new();
        Self::with_secret([state.hash_one(0u8), state.hash_one(1u8)])
    }

    /// An empty index hashing with `secret`. The second word gets its
    /// top bit set, so no port word (40 bits) cancels it.
    pub(crate) fn with_secret(secret: [u64; 2]) -> Self {
        FlowIndex {
            secret: [secret[0], secret[1] | 1 << 63],
            buckets: vec![Bucket::default(); 16],
            len: 0,
            edits: 0,
        }
    }

    /// Keyed multiply-fold (the wyhash short-input shape): the masked
    /// words fold through one product, the port word is xored back in,
    /// and a product with an odd constant spreads the result into the
    /// low bits that pick the bucket. A product is zero when a factor
    /// is — a key whose address word equals the first secret word — so
    /// the port word re-enters, and even such keys spread by their
    /// ports.
    #[inline]
    fn hash(&self, addr: u64, ports: u64) -> u64 {
        fold(
            fold(addr ^ self.secret[0], ports ^ self.secret[1]) ^ ports,
            0x9e37_79b9_7f4a_7c15,
        )
    }

    /// Pack and hash `flow`.
    #[inline]
    pub fn key(&self, flow: &FlowKey) -> IndexKey {
        let (addr, ports) = flow.words();
        self.key_words(addr, ports)
    }

    /// Hash already-packed words ([`FlowKey::words`], or an
    /// [`IndexKey::words`]).
    #[inline]
    pub fn key_words(&self, addr: u64, ports: u64) -> IndexKey {
        debug_assert_eq!(widen(narrow(ports)), ports, "not a port word");
        IndexKey {
            addr,
            ports,
            hash: self.hash(addr, ports),
        }
    }

    /// Keys indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The bucket an entry's probe starts from.
    #[inline]
    fn home(&self, b: &Bucket) -> usize {
        self.hash(b.addr, widen(b.tag >> PLACE_BITS)) as usize & self.mask()
    }

    #[inline]
    fn spot(&self, at: usize) -> Spot {
        Spot {
            at,
            edits: self.edits,
        }
    }

    /// The probe: `key`'s place and bucket, or the empty bucket it
    /// would take.
    #[inline]
    pub fn find(&self, key: &IndexKey) -> (Spot, Option<Place>) {
        let mask = self.mask();
        let mut i = key.hash as usize & mask;
        loop {
            let b = self.buckets[i];
            if b.is_empty() {
                return (self.spot(i), None);
            }
            if b.holds(key) {
                return (self.spot(i), Some(Place::unpack(b.tag)));
            }
            i = (i + 1) & mask;
        }
    }

    /// Refuse a spot from before the last insert or removal.
    #[inline]
    fn check(&self, spot: Spot) {
        assert!(
            spot.edits == self.edits,
            "a spot found before the index's last insert or removal"
        );
    }

    /// `key`'s place, if indexed.
    #[inline]
    pub fn get(&self, key: &IndexKey) -> Option<Place> {
        self.find(key).1
    }

    /// Record `key` at `place` in the bucket [`find`](Self::find)
    /// returned for it: a retag when the key is there, an insert when
    /// the bucket is empty (growing the table first if it is full
    /// enough).
    ///
    /// # Panics
    /// On a spot from before the last insert or removal, or one holding
    /// another key. That an empty spot was found for this `key` is
    /// checked in debug builds only, since it costs a probe.
    #[inline]
    pub fn put(&mut self, spot: Spot, key: &IndexKey, place: Place) {
        self.check(spot);
        let mut at = spot.at;
        if self.buckets[at].is_empty() {
            debug_assert_eq!(self.find(key), (spot, None), "a spot of another key");
            if (self.len + 1) * 8 >= self.buckets.len() * 7 {
                self.grow();
                at = self.find(key).0.at;
            }
            self.len += 1;
            self.edits += 1;
        } else {
            assert!(self.buckets[at].holds(key), "a spot of another key");
        }
        self.buckets[at] = Bucket {
            addr: key.addr,
            tag: narrow(key.ports) << PLACE_BITS | place.pack(),
        };
    }

    /// Unindex `key`, returning its place.
    pub fn remove(&mut self, key: &IndexKey) -> Option<Place> {
        let (spot, had) = self.find(key);
        if had.is_some() {
            self.remove_at(spot);
        }
        had
    }

    /// Empty the occupied bucket at `spot`, pulling displaced entries
    /// back over the hole so probe chains stay contiguous without
    /// tombstones.
    ///
    /// # Panics
    /// On a spot from before the last insert or removal, or an empty
    /// bucket.
    pub fn remove_at(&mut self, spot: Spot) {
        self.check(spot);
        assert!(
            !self.buckets[spot.at].is_empty(),
            "removing an empty bucket"
        );
        self.buckets[spot.at] = Bucket::default();
        self.len -= 1;
        self.edits += 1;
        let mask = self.mask();
        let (mut hole, mut j) = (spot.at, spot.at);
        loop {
            j = (j + 1) & mask;
            let b = self.buckets[j];
            if b.is_empty() {
                break;
            }
            let home = self.home(&b);
            // Move the entry back iff its home does not lie in the
            // cyclic interval (hole, j] — i.e. the probe from `home`
            // passes through `hole`.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = b;
                self.buckets[j] = Bucket::default();
                hole = j;
            }
        }
    }

    fn grow(&mut self) {
        let doubled = self.buckets.len() * 2;
        let old = std::mem::replace(&mut self.buckets, vec![Bucket::default(); doubled]);
        for b in old.into_iter().filter(|b| !b.is_empty()) {
            let key = self.key_words(b.addr, widen(b.tag >> PLACE_BITS));
            let at = self.find(&key).0.at;
            self.buckets[at] = b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{hash_flow_key, Protocol};
    use std::net::Ipv4Addr;

    fn key(n: u32) -> FlowKey {
        FlowKey::synthetic(n, n, 1, Protocol::Tcp)
    }

    /// The ledger's session keys: the session id split into a 16-bit
    /// client and a flow port, one server per class.
    fn session(id: u32) -> FlowKey {
        FlowKey::synthetic(id % 65_536, id / 65_536, (id % 6) as u8 + 1, Protocol::Tcp)
    }

    /// Buckets a lookup of each stored key visits: the most and the
    /// mean.
    fn probe_lengths(t: &FlowIndex) -> (usize, f64) {
        let mask = t.mask();
        let lengths: Vec<usize> = t
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, b)| (i.wrapping_sub(t.home(b)) & mask) + 1)
            .collect();
        let total: usize = lengths.iter().sum();
        let longest = lengths.into_iter().max().unwrap_or(0);
        (longest, total as f64 / t.len.max(1) as f64)
    }

    /// Index `key` at `place` unless it is indexed already; the place
    /// it already had, left as it is.
    fn insert(t: &mut FlowIndex, key: &IndexKey, place: Place) -> Option<Place> {
        let (spot, had) = t.find(key);
        if had.is_none() {
            t.put(spot, key, place);
        }
        had
    }

    fn filled(mut t: FlowIndex, keys: impl IntoIterator<Item = FlowKey>) -> FlowIndex {
        for k in keys {
            let k = t.key(&k);
            insert(&mut t, &k, Place::Admitted(0));
        }
        t
    }

    /// Linear probing at the table's ≤ 7/8 load: 10⁵ keys fill 131 072
    /// buckets to 0.76 and, over sixty fresh secrets, give a mean
    /// lookup of 2.54–2.68 buckets and a longest of 97–301 (the tail of
    /// linear probing is long). A hash that clusters these keys breaks
    /// the mean at once and the longest by thousands.
    fn assert_spread(name: &str, t: &FlowIndex) {
        let (longest, mean) = probe_lengths(t);
        assert!(
            longest <= 1_024 && mean <= 3.0,
            "{name}: longest probe {longest}, mean {mean:.2}"
        );
    }

    /// Fresh secrets, and the ones an adversary would pick first: the
    /// keys' own words, the lowest-weight second word, zero.
    fn secrets() -> Vec<[u64; 2]> {
        let mut s = vec![
            [key(0).words().0, 0],
            [session(0).words().0, 1 << 40],
            [0, key(0).words().1],
            [u64::MAX, u64::MAX],
        ];
        s.extend((0..4).map(|_| FlowIndex::new().secret));
        s
    }

    #[test]
    fn probes_stay_short_for_synthetic_and_ledger_shaped_keys_under_any_secret() {
        const N: u32 = 100_000;
        for secret in secrets() {
            let fresh = || FlowIndex::with_secret(secret);
            let tables = [
                ("synthetic", filled(fresh(), (0..N).map(key))),
                ("ledger", filled(fresh(), (0..N).map(session))),
                // One shard of two: routing fixes bits of its own hash,
                // which must not leave the index's buckets half used.
                (
                    "ledger shard",
                    filled(
                        fresh(),
                        (0..2 * N)
                            .map(session)
                            .filter(|k| hash_flow_key(k) & 1 == 0),
                    ),
                ),
            ];
            for (name, t) in &tables {
                assert!(t.len >= 95_000, "{name}: {} keys", t.len);
                assert_spread(&format!("{name} under {secret:x?}"), t);
            }
        }
    }

    #[test]
    fn keys_cancelling_a_secret_word_still_spread() {
        let shared = key(0);
        let with = |client: u32, client_port: u16, server: u32, server_port: u16| {
            let (client, server) = (Ipv4Addr::from(client), Ipv4Addr::from(server));
            FlowKey::new(client, client_port, server, server_port, shared.protocol)
        };
        for secret in secrets() {
            let t = FlowIndex::with_secret(secret);
            // Keys whose address word cancels the first word zero the
            // first product, but their port words still spread them.
            let (client, server) = ((t.secret[0] >> 32) as u32, t.secret[0] as u32);
            let keys: Vec<FlowKey> = (0..10_000u32)
                .map(|n| with(client, n as u16, server, 443))
                .collect();
            assert_eq!(keys[0].words().0, t.secret[0]);
            let name = format!("address-cancelling, {secret:x?}");
            assert_spread(&name, &filled(t, keys));
            // No port word cancels the second word, not even one drawn
            // equal to a port word: keys sharing that port word spread
            // by their addresses.
            let t = FlowIndex::with_secret(secret);
            assert_ne!(t.secret[1] >> 40, 0);
            let keys: Vec<FlowKey> = (0..10_000u32)
                .map(|n| with(n, shared.client_port, !n, shared.server_port))
                .collect();
            assert_eq!(keys[0].words().1, shared.words().1);
            let name = format!("port-sharing, {secret:x?}");
            assert_spread(&name, &filled(t, keys));
        }
    }

    #[test]
    fn keys_crafted_to_collide_under_one_secret_spread_under_another() {
        // An adversary who knew this index's secret could pick keys
        // sharing one home bucket: 1 024 of them, homed on bucket 0 of
        // any table up to 2^12 buckets.
        let known = FlowIndex::new();
        let crafted: Vec<FlowKey> = (0u32..)
            .map(session)
            .filter(|k| known.key(k).hash & 0xfff == 0)
            .take(1_024)
            .collect();
        let (longest, mean) = probe_lengths(&filled(known, crafted.iter().copied()));
        assert!(longest >= 1_000 && mean >= 500.0, "{longest} / {mean:.1}");
        // Any other index draws its own secret, and the same keys probe
        // like random ones there.
        for _ in 0..4 {
            let (longest, mean) = probe_lengths(&filled(FlowIndex::new(), crafted.iter().copied()));
            assert!(longest <= 64 && mean <= 3.0, "{longest} / {mean:.2}");
        }
    }

    #[test]
    fn indexes_built_in_one_process_draw_different_secrets() {
        let secrets: Vec<[u64; 2]> = (0..8).map(|_| FlowIndex::new().secret).collect();
        for (i, a) in secrets.iter().enumerate() {
            for b in &secrets[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let (a, b) = (FlowIndex::new(), FlowIndex::new());
        let moved = (0..200)
            .filter(|&n| a.key(&key(n)).hash & 0xff != b.key(&key(n)).hash & 0xff)
            .count();
        assert!(moved > 150, "only {moved} of 200 keys changed bucket");
        assert!(!format!("{a:?}").contains(&a.secret[0].to_string()));
    }

    #[test]
    fn backward_shift_keeps_probes_reachable_across_the_wrap() {
        // Three keys homed on the last bucket of a fresh table fill it
        // and wrap to buckets 0 and 1; removing the first must shift
        // both back across the wrap with their places intact.
        let mut t = FlowIndex::new();
        let last = t.mask();
        let wrapping: Vec<IndexKey> = (0..)
            .map(|n| t.key(&key(n)))
            .filter(|k| k.hash as usize & last == last)
            .take(3)
            .collect();
        for (slot, k) in (7..).zip(&wrapping) {
            assert_eq!(insert(&mut t, k, Place::Admitted(slot)), None);
        }
        assert!(t.buckets[0].holds(&wrapping[1]) && t.buckets[1].holds(&wrapping[2]));
        assert_eq!(t.remove(&wrapping[0]), Some(Place::Admitted(7)));
        assert!(t.buckets[last].holds(&wrapping[1]) && t.buckets[0].holds(&wrapping[2]));
        assert!(t.buckets[1].is_empty());
        assert_eq!(t.get(&wrapping[1]), Some(Place::Admitted(8)));
        assert_eq!(t.get(&wrapping[2]), Some(Place::Admitted(9)));

        // Dense churn at small capacity forces more wraparound probes
        // and backward-shift deletions across the table boundary; a
        // retag in place keeps the key where it is.
        let mut t = FlowIndex::new();
        for round in 0u32..50 {
            let keys: Vec<IndexKey> = (0..12).map(|n| t.key(&key(round * 12 + n))).collect();
            for (n, k) in (0..).zip(&keys) {
                assert_eq!(insert(&mut t, k, Place::Rejected(n)), None);
                assert_eq!(
                    insert(&mut t, k, Place::Admitted(99)),
                    Some(Place::Rejected(n)),
                    "present: left as it is"
                );
            }
            for (n, k) in (0..).zip(&keys) {
                if n % 3 == 0 {
                    let (spot, _) = t.find(k);
                    t.put(spot, k, Place::Classifying(n));
                    assert_eq!(t.find(k), (spot, Some(Place::Classifying(n))));
                } else {
                    assert_eq!(t.remove(k), Some(Place::Rejected(n)));
                    assert_eq!(t.get(k), None);
                }
            }
            for (n, k) in (0..).zip(&keys) {
                let want = (n % 3 == 0).then_some(Place::Classifying(n));
                assert_eq!(t.get(k), want);
            }
        }
        assert_eq!(t.len(), 50 * 4);
    }

    #[test]
    fn a_16_byte_bucket_holds_the_widest_and_narrowest_keys_at_every_place() {
        assert_eq!(std::mem::size_of::<Bucket>(), 16);
        let widest = FlowKey::new(
            Ipv4Addr::BROADCAST,
            u16::MAX,
            Ipv4Addr::BROADCAST,
            u16::MAX,
            Protocol::Udp,
        );
        // All-zero words but the protocol byte: narrowed, its tag would
        // be zero without the place's nonzero kind code.
        let narrowest = FlowKey::new(
            Ipv4Addr::UNSPECIFIED,
            0,
            Ipv4Addr::UNSPECIFIED,
            0,
            Protocol::Tcp,
        );
        let top = PLACE_VALUES - 1;
        let mut t = FlowIndex::new();
        let (wide, narrow) = (t.key(&widest), t.key(&narrowest));
        assert_eq!(t.get(&narrow), None, "an empty bucket holds no key");
        for (n, place) in [
            Place::Admitted(top),
            Place::Rejected(top),
            Place::Classifying(top),
            Place::Admitted(0),
            Place::Classifying(0),
        ]
        .into_iter()
        .enumerate()
        {
            for k in [&wide, &narrow] {
                let (spot, _) = t.find(k);
                t.put(spot, k, place);
                assert_eq!(t.get(k), Some(place));
            }
            assert_eq!(t.len(), 2, "place {n}: retagged, not inserted");
        }
        assert_eq!(t.get(&t.key(&key(1))), None);
        assert_eq!(t.remove(&narrow), Some(Place::Classifying(0)));
        assert_eq!(
            (t.get(&narrow), t.get(&wide), t.len()),
            (None, Some(Place::Classifying(0)), 1)
        );
    }

    #[test]
    #[should_panic(expected = "an arena slot: 536870912 is past 2^29 - 1")]
    fn a_place_value_past_the_bits_is_refused() {
        let top = PLACE_VALUES as usize - 1;
        assert_eq!(place_value(top, "an arena slot"), PLACE_VALUES - 1);
        place_value(top + 1, "an arena slot");
    }

    /// Two keys homed on one bucket, the second one bucket on.
    fn neighbours(t: &FlowIndex) -> (IndexKey, IndexKey) {
        let mut keys = (0..).map(|n| t.key(&key(n)));
        let first = keys.next().expect("endless");
        let home = first.hash as usize & t.mask();
        let second = keys
            .find(|k| k.hash as usize & t.mask() == home)
            .expect("endless");
        (first, second)
    }

    #[test]
    #[should_panic(expected = "a spot found before the index's last insert or removal")]
    fn a_spot_from_before_a_removal_is_refused() {
        let mut t = FlowIndex::new();
        let (first, second) = neighbours(&t);
        for k in [&first, &second] {
            insert(&mut t, k, Place::Admitted(1));
        }
        let (spot, _) = t.find(&second);
        // The backward shift moves `second` into `first`'s bucket and
        // empties the one `spot` names: a put there would index
        // `second` twice.
        t.remove(&first);
        t.put(spot, &second, Place::Rejected(0));
    }

    #[test]
    #[should_panic(expected = "a spot found before the index's last insert or removal")]
    fn a_spot_from_before_an_insert_is_refused() {
        let mut t = FlowIndex::new();
        let (first, second) = neighbours(&t);
        insert(&mut t, &first, Place::Admitted(1));
        let (spot, _) = t.find(&first);
        // An insert may fill the bucket a spot names or regrow the
        // table, so every older spot is refused — even this one, whose
        // key has not moved.
        insert(&mut t, &second, Place::Admitted(2));
        t.remove_at(spot);
    }
}
