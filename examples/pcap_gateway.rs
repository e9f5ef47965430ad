//! Replay a pcap capture through the ExBox gateway.
//!
//! ```sh
//! cargo run --release --example pcap_gateway
//! ```
//!
//! The paper's methodology is capture-and-replay (`tcpdump` +
//! `tcpreplay`, §5.1/§6.2). This example exercises the same loop
//! in-process: generate a gateway's worth of mixed traffic, dump it
//! to a classic pcap file, read the capture back, and feed it through
//! a one-shard [`ConcurrentGateway`] with endpoint hints — printing
//! what got classified, admitted and rejected.

use std::net::Ipv4Addr;

use exbox::net::pcap::{PcapReader, PcapWriter};
use exbox::net::{AppClass, FlowKey, Packet, Protocol};
use exbox::prelude::*;
use exbox::traffic::{merge_traces, ConferencingModel, StreamingModel, TrafficModel, WebModel};

fn main() -> std::io::Result<()> {
    // 1. Generate a mixed gateway trace: 3 web, 2 streaming, 2 calls.
    let duration = Duration::from_secs(8);
    let mut traces: Vec<Vec<Packet>> = Vec::new();
    for i in 0..3u32 {
        let key = FlowKey::synthetic(i + 1, i + 1, 1, Protocol::Tcp);
        traces.push(WebModel::default().generate(key, Instant::ZERO, duration, 10 + i as u64));
    }
    for i in 0..2u32 {
        let key = FlowKey::synthetic(i + 10, i + 10, 2, Protocol::Tcp);
        traces.push(StreamingModel::default().generate(
            key,
            Instant::ZERO,
            duration,
            20 + i as u64,
        ));
    }
    for i in 0..2u32 {
        let key = FlowKey::synthetic(i + 20, i + 20, 3, Protocol::Udp);
        traces.push(ConferencingModel::default().generate(
            key,
            Instant::ZERO,
            duration,
            30 + i as u64,
        ));
    }
    let merged = merge_traces(traces);
    println!("generated {} packets across 7 flows", merged.len());

    // 2. Dump to a classic pcap (openable in Wireshark).
    let path = std::env::temp_dir().join("exbox_gateway.pcap");
    let mut writer = PcapWriter::new(std::fs::File::create(&path)?)?;
    for p in &merged {
        writer.write_packet(p)?;
    }
    writer.finish()?;
    println!("wrote {}", path.display());

    // 3. Read it back and replay through the gateway.
    let mut reader = PcapReader::new(std::fs::File::open(&path)?)?;
    let replayed = reader.read_all()?;
    assert_eq!(replayed.len(), merged.len());

    // Estimator: quick training sweep.
    let sweep = exbox::testbed::training::run_training_sweep(
        &[500_000, 4_000_000, 16_000_000],
        &[Duration::from_millis(20)],
        1,
        4,
    );
    let (estimator, _) = exbox::testbed::training::fit_estimator_from_sweep(
        &sweep,
        QoeEstimator::paper_thresholds(),
    );
    let mut gw = ConcurrentGateway::new(
        GatewayConfig::default(),
        estimator,
        AdmittanceClassifier::new(AdmittanceConfig::default()),
    );
    // Endpoint hints: each class talks to its own server (the
    // synthetic key convention: 192.168.1.<class+1>).
    for class in AppClass::ALL {
        gw.learn_server_hint(Ipv4Addr::new(192, 168, 1, class.index() as u8 + 1), class);
    }

    let mut forwarded = 0u64;
    let mut dropped = 0u64;
    for p in &replayed {
        match gw.process_packet(p, SnrLevel::High) {
            Action::Forward => forwarded += 1,
            Action::Drop => dropped += 1,
        }
    }
    println!(
        "replayed through the gateway: {} forwarded, {} dropped, {} flows admitted, matrix {}",
        forwarded,
        dropped,
        gw.admitted_flows(),
        gw.matrix()
    );
    Ok(())
}
