//! Packets and flow keys.
//!
//! The datapath models packets as metadata records — timestamp, size,
//! 5-tuple, direction — rather than byte buffers. Everything the
//! middlebox does (flow accounting, QoS metering, classification,
//! shaping, admission) depends only on this metadata; the paper's own
//! classification citations note the techniques "work for encrypted
//! traffic as well", i.e. they never inspect payloads either. The
//! [`crate::pcap`] module synthesises real header bytes when a trace
//! must leave the process.

use std::fmt;
use std::net::Ipv4Addr;

use crate::time::Instant;

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// Transmission Control Protocol (IP proto 6).
    Tcp,
    /// User Datagram Protocol (IP proto 17).
    Udp,
}

impl Protocol {
    /// The IPv4 protocol number.
    pub const fn ip_proto(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        }
    }

    /// Parse from an IPv4 protocol number.
    pub const fn from_ip_proto(p: u8) -> Option<Self> {
        match p {
            6 => Some(Protocol::Tcp),
            17 => Some(Protocol::Udp),
            _ => None,
        }
    }
}

/// Direction of a packet relative to the wireless client:
/// downlink is gateway → client (the dominant direction for the
/// paper's workloads; §6.2 "we only use the downlink flows").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → network.
    Uplink,
    /// Network → client.
    Downlink,
}

impl Direction {
    /// The opposite direction.
    pub const fn reverse(self) -> Self {
        match self {
            Direction::Uplink => Direction::Downlink,
            Direction::Downlink => Direction::Uplink,
        }
    }
}

/// Canonical 5-tuple identifying a flow. By convention `client_*` is
/// the wireless-device side and `server_*` the remote side, so one key
/// covers both directions of the conversation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Wireless client address.
    pub client_ip: Ipv4Addr,
    /// Client-side transport port.
    pub client_port: u16,
    /// Remote server address.
    pub server_ip: Ipv4Addr,
    /// Server-side transport port.
    pub server_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl FlowKey {
    /// Construct a flow key.
    pub fn new(
        client_ip: Ipv4Addr,
        client_port: u16,
        server_ip: Ipv4Addr,
        server_port: u16,
        protocol: Protocol,
    ) -> Self {
        FlowKey {
            client_ip,
            client_port,
            server_ip,
            server_port,
            protocol,
        }
    }

    /// A synthetic key for simulations: client `10.0.c.d`, server
    /// `192.168.1.s`, ports derived from the ids. Distinct ids give
    /// distinct keys.
    pub fn synthetic(client_id: u32, flow_id: u32, server_id: u8, protocol: Protocol) -> Self {
        FlowKey {
            client_ip: Ipv4Addr::new(10, 0, (client_id >> 8) as u8, client_id as u8),
            client_port: 40_000 + (flow_id % 20_000) as u16,
            server_ip: Ipv4Addr::new(192, 168, 1, server_id),
            server_port: 443,
            protocol,
        }
    }

    /// The 13 significant bytes packed into two words, which the flow
    /// hashes and tables work on instead of the fields: the address
    /// word `client_ip << 32 | server_ip` and the port word
    /// `client_port << 24 | server_port << 8 | ip_proto`. The port word
    /// uses the low 40 bits and is never zero (the protocol byte is 6
    /// or 17). Distinct keys have distinct word pairs.
    #[inline]
    pub fn words(&self) -> (u64, u64) {
        let a = (u32::from(self.client_ip) as u64) << 32 | u32::from(self.server_ip) as u64;
        let b = (self.client_port as u64) << 24
            | (self.server_port as u64) << 8
            | self.protocol.ip_proto() as u64;
        (a, b)
    }
}

/// FxHash-style hash of a [`FlowKey`]: the 13 significant bytes are
/// packed into two words and folded with the rotate-xor-multiply step
/// rustc's own hash tables use, plus a final avalanche so the low
/// bits (which pick the bucket) depend on every field, an order of
/// magnitude cheaper than SipHash on this fixed layout. It is the
/// gateway's shard-routing function, seedless on purpose: routing must
/// map a flow to the same shard in every process (the stable-routing
/// contract). The flow index behind each shard hashes the same
/// [`FlowKey::words`] with a cheaper function keyed by a secret of its
/// own ([`crate::index`]).
#[inline]
pub fn hash_flow_key(key: &FlowKey) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let (a, b) = key.words();
    let mut h = 0u64;
    h = (h.rotate_left(5) ^ a).wrapping_mul(K);
    h = (h.rotate_left(5) ^ b).wrapping_mul(K);
    // Final avalanche (splitmix64 tail): FxHash concentrates entropy
    // in the high bits, the open-addressed index masks the low ones.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} <-> {}:{}/{}",
            self.client_ip,
            self.client_port,
            self.server_ip,
            self.server_port,
            match self.protocol {
                Protocol::Tcp => "tcp",
                Protocol::Udp => "udp",
            }
        )
    }
}

/// One packet observed at the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// When the packet crossed the observation point.
    pub timestamp: Instant,
    /// Total size on the wire in bytes (IP header included).
    pub size: u32,
    /// Owning flow.
    pub flow: FlowKey,
    /// Travel direction.
    pub direction: Direction,
    /// Monotone per-flow sequence number (used for loss accounting).
    pub seq: u64,
}

impl Packet {
    /// Construct a packet record.
    pub fn new(
        timestamp: Instant,
        size: u32,
        flow: FlowKey,
        direction: Direction,
        seq: u64,
    ) -> Self {
        Packet {
            timestamp,
            size,
            flow,
            direction,
            seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_numbers_roundtrip() {
        for p in [Protocol::Tcp, Protocol::Udp] {
            assert_eq!(Protocol::from_ip_proto(p.ip_proto()), Some(p));
        }
        assert_eq!(Protocol::from_ip_proto(1), None);
    }

    #[test]
    fn direction_reverse_is_involution() {
        assert_eq!(Direction::Uplink.reverse().reverse(), Direction::Uplink);
        assert_eq!(Direction::Downlink.reverse(), Direction::Uplink);
    }

    #[test]
    fn synthetic_keys_distinct() {
        let a = FlowKey::synthetic(1, 1, 1, Protocol::Udp);
        let b = FlowKey::synthetic(1, 2, 1, Protocol::Udp);
        let c = FlowKey::synthetic(2, 1, 1, Protocol::Udp);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_key_encodes_client_id_beyond_u8() {
        let k = FlowKey::synthetic(300, 0, 1, Protocol::Tcp);
        assert_eq!(k.client_ip, Ipv4Addr::new(10, 0, 1, 44));
    }

    #[test]
    fn hash_differs_across_fields() {
        let base = FlowKey::synthetic(1, 1, 1, Protocol::Tcp);
        let mut other = base;
        other.server_port = base.server_port.wrapping_add(1);
        assert_ne!(hash_flow_key(&base), hash_flow_key(&other));
        let mut udp = base;
        udp.protocol = Protocol::Udp;
        assert_ne!(hash_flow_key(&base), hash_flow_key(&udp));
    }

    #[test]
    fn display_formats() {
        let k = FlowKey::synthetic(1, 1, 2, Protocol::Tcp);
        let s = format!("{k}");
        assert!(s.contains("tcp"));
        assert!(s.contains("192.168.1.2:443"));
    }
}
