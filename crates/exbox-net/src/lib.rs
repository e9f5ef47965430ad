//! # exbox-net — gateway datapath substrate
//!
//! ExBox is deployed as a middlebox collocated with gateway devices
//! (paper Fig. 1): a WiFi controller or LTE PDN gateway through which
//! all client traffic flows. This crate is that datapath, built from
//! scratch:
//!
//! * [`time`] — nanosecond-precision simulated clock types shared by
//!   the whole workspace.
//! * [`packet`] — packets and 5-tuple flow keys.
//! * [`flow`] — the gateway flow table with per-flow accounting and
//!   idle eviction (the paper's `tcpdump`-style passive monitoring).
//! * [`qos`] — per-flow QoS meters: throughput, delay, loss, and the
//!   paper's scalar `QoS = throughput / delay` index (§5.3).
//! * [`shaper`] — token-bucket rate limiting plus netem-style constant
//!   delay and random loss; stands in for the paper's use of the Linux
//!   `tc`/`netem` utilities to throttle testbeds (Fig. 11, Fig. 12).
//! * [`classify`] — early traffic classification from the first few
//!   packets of a flow (the paper assumes such a module, citing its
//!   refs. 41, 58, 69, …; §4.2 "a flow needs to be admitted briefly before
//!   any admission control decision is made").
//! * [`pcap`] — classic-format pcap writer/reader so datapath traffic
//!   can be dumped and replayed, mirroring the paper's
//!   `tcpdump`/`tcpreplay` workflow.

pub mod classify;
pub mod flow;
pub mod packet;
pub mod pcap;
pub mod qos;
pub mod shaper;
pub mod time;

pub use classify::{AppClass, EarlyClassifier, FlowFeatures};
pub use flow::{FlowStats, FlowTable};
pub use packet::{hash_flow_key, Direction, FlowKey, Packet, Protocol};
pub use qos::{QosMeter, QosSample};
pub use shaper::{NetemLink, TokenBucket};
pub use time::{Duration, Instant};
