//! Property-based tests for exbox-net invariants.

use std::net::Ipv4Addr;

use exbox_net::pcap::{PcapReader, PcapWriter};
use exbox_net::shaper::LinkVerdict;
use exbox_net::{
    Direction, Duration, FlowKey, Instant, NetemLink, Packet, Protocol, QosMeter, TokenBucket,
};
use proptest::prelude::*;

fn arb_protocol() -> impl Strategy<Value = Protocol> {
    prop_oneof![Just(Protocol::Tcp), Just(Protocol::Udp)]
}

fn arb_flow_key() -> impl Strategy<Value = FlowKey> {
    (0u32..1000, 0u32..1000, 1u8..250, arb_protocol())
        .prop_map(|(c, f, s, p)| FlowKey::synthetic(c, f, s, p))
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u64..10_000_000_000,
        48u32..65_000,
        arb_flow_key(),
        prop_oneof![Just(Direction::Uplink), Just(Direction::Downlink)],
        0u64..u16::MAX as u64,
    )
        .prop_map(|(ns, size, flow, dir, seq)| {
            Packet::new(Instant::from_nanos(ns), size, flow, dir, seq)
        })
}

proptest! {
    /// pcap round-trips preserve all metadata (seq mod 2^16).
    #[test]
    fn pcap_roundtrip(pkts in prop::collection::vec(arb_packet(), 0..40)) {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for p in &pkts {
            w.write_packet(p).unwrap();
        }
        let bytes = w.finish().unwrap();
        let back = PcapReader::new(&bytes[..]).unwrap().read_all().unwrap();
        prop_assert_eq!(back.len(), pkts.len());
        for (a, b) in pkts.iter().zip(&back) {
            prop_assert_eq!(a.timestamp, b.timestamp);
            prop_assert_eq!(a.size, b.size);
            prop_assert_eq!(a.flow, b.flow);
            prop_assert_eq!(a.direction, b.direction);
            prop_assert_eq!(a.seq & 0xFFFF, b.seq);
        }
    }

    /// Token bucket never lets more than burst + rate*time through.
    #[test]
    fn token_bucket_enforces_rate(
        rate_kbps in 1u64..10_000,
        burst in 100u64..100_000,
        sizes in prop::collection::vec(1u32..2_000, 1..200),
    ) {
        let rate = rate_kbps * 1_000;
        let mut b = TokenBucket::new(rate, burst);
        let mut sent = 0u64;
        let mut t = Instant::ZERO;
        for (i, &s) in sizes.iter().enumerate() {
            t = Instant::from_micros(i as u64 * 100);
            if b.try_consume(t, s) {
                sent += s as u64;
            }
        }
        let elapsed = t.as_secs_f64();
        let ceiling = burst as f64 + elapsed * rate as f64 / 8.0 + 1.0;
        prop_assert!(sent as f64 <= ceiling, "sent {sent} > ceiling {ceiling}");
    }

    /// A lossless netem link delivers every packet, in FIFO order, no
    /// earlier than arrival + serialisation + propagation.
    #[test]
    fn netem_delivery_monotone_and_bounded(
        rate_mbps in 1u64..100,
        delay_ms in 0u64..300,
        arrivals in prop::collection::vec((0u64..1_000_000u64, 64u32..1500), 1..100),
    ) {
        let rate = rate_mbps * 1_000_000;
        let mut link = NetemLink::new(rate, Duration::from_millis(delay_ms), 0.0, 1 << 30, 1);
        let mut sorted = arrivals.clone();
        sorted.sort();
        let mut prev_delivery = Instant::ZERO;
        for (us, size) in sorted {
            let at = Instant::from_micros(us);
            match link.offer(at, size) {
                LinkVerdict::Deliver(t) => {
                    let min = at + Duration::transmission(size as u64, rate) + Duration::from_millis(delay_ms);
                    prop_assert!(t >= min, "delivered {t} before floor {min}");
                    prop_assert!(t >= prev_delivery, "FIFO violated");
                    prev_delivery = t;
                }
                v => prop_assert!(false, "lossless link dropped: {v:?}"),
            }
        }
    }

    /// QoS meter loss ratio equals drops / (drops + deliveries).
    #[test]
    fn qos_loss_ratio_exact(events in prop::collection::vec(any::<bool>(), 1..300)) {
        let mut m = QosMeter::new();
        let mut drops = 0u64;
        for (i, &delivered) in events.iter().enumerate() {
            if delivered {
                m.deliver(
                    Instant::from_millis(i as u64),
                    Instant::from_millis(i as u64 + 1),
                    100,
                );
            } else {
                m.drop_packet();
                drops += 1;
            }
        }
        let s = m.sample();
        let expect = drops as f64 / events.len() as f64;
        prop_assert!((s.loss_ratio - expect).abs() < 1e-12);
    }

    /// A QoS sample depends on the set of reports in the window, not
    /// on the order an AP's tx-status feed delivered them: any
    /// permutation of the same deliver / drop reports samples
    /// bit-identically. Exact, because bytes, counts and the delay sum
    /// are integers and the span is a min and a max. Send times come
    /// from a 40-value grid, so ties and late reports are the rule.
    #[test]
    fn qos_sample_is_order_independent(
        reports in prop::collection::vec(
            (0u64..40, 0u64..200_000, 40u32..1600, 0u8..5, any::<u64>()),
            1..120,
        ),
    ) {
        let sample = |order: &[&(u64, u64, u32, u8, u64)]| {
            let mut m = QosMeter::new();
            for &&(tick, delay_us, size, kind, _) in order {
                if kind == 0 {
                    m.drop_packet();
                } else {
                    let sent = Instant::from_millis(25 * tick);
                    m.deliver(sent, sent + Duration::from_micros(delay_us), size);
                }
            }
            let s = m.sample();
            (s.throughput_bps.to_bits(), s.mean_delay, s.loss_ratio.to_bits())
        };
        let arrived: Vec<_> = reports.iter().collect();
        let mut shuffled = arrived.clone();
        shuffled.sort_by_key(|r| r.4);
        let mut reversed = arrived.clone();
        reversed.reverse();
        prop_assert_eq!(sample(&arrived), sample(&shuffled));
        prop_assert_eq!(sample(&arrived), sample(&reversed));
    }

    /// Flow keys constructed from the synthetic helper always put the
    /// client in 10.0.0.0/8 — the invariant the pcap reader's
    /// direction heuristic relies on.
    #[test]
    fn synthetic_client_in_ten_slash_eight(c in 0u32..65_536, f in any::<u32>(), s in 1u8..255) {
        let k = FlowKey::synthetic(c, f, s, Protocol::Udp);
        prop_assert_eq!(k.client_ip.octets()[0], 10);
        prop_assert!(k.server_ip != Ipv4Addr::new(10, 0, 0, 0));
    }
}
