//! Per-flow QoS metering.
//!
//! The QoE Estimator needs network-side QoS measurements: the paper
//! models "QoS … as the ratio of average throughput to delay" (§5.3)
//! and polls "throughput, delay, loss" when re-evaluating admitted
//! flows (§4.3). [`QosMeter`] accumulates those three quantities for
//! one flow from delivery/drop events, and [`QosSample`] is the
//! snapshot handed to the estimator.

use crate::time::{Duration, Instant};

/// Snapshot of a flow's QoS over an observation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSample {
    /// Average delivered throughput in bits per second.
    pub throughput_bps: f64,
    /// Mean one-way delay of delivered packets.
    pub mean_delay: Duration,
    /// Fraction of packets dropped, in `[0, 1]`.
    pub loss_ratio: f64,
}

impl QosSample {
    /// The paper's scalar QoS index: average throughput divided by
    /// delay (bits/s per second of delay). Returns 0 for an idle flow
    /// and caps at `f64::MAX` rather than dividing by zero when no
    /// delay has been observed.
    pub fn qos_index(&self) -> f64 {
        let d = self.mean_delay.as_secs_f64();
        if self.throughput_bps <= 0.0 {
            0.0
        } else if d <= 0.0 {
            f64::MAX
        } else {
            self.throughput_bps / d
        }
    }

    /// Normalise the QoS index onto `[0, 1]` against a reference
    /// "excellent" index (values above the reference clamp to 1). The
    /// motivation study (Fig. 2) normalises QoE the same way.
    pub fn normalized_qos(&self, reference_index: f64) -> f64 {
        assert!(
            reference_index > 0.0,
            "reference QoS index must be positive"
        );
        (self.qos_index() / reference_index).clamp(0.0, 1.0)
    }
}

/// Accumulator for one flow's QoS statistics.
///
/// Feed it [`QosMeter::deliver`] for each packet that reached the
/// client and [`QosMeter::drop_packet`] for each loss; snapshot with
/// [`QosMeter::sample`]. `reset()` begins a fresh window, which the
/// middlebox does at each periodic poll.
///
/// A plain value with no side effects: a report touches only the
/// meter, and the sample depends only on the *set* of reports in the
/// window, not the order they arrived in.
#[derive(Debug, Clone)]
pub struct QosMeter {
    window_start: Option<Instant>,
    last_delivery: Option<Instant>,
    bytes: u64,
    delivered: u64,
    dropped: u64,
    delay_sum: Duration,
}

impl Default for QosMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl QosMeter {
    /// Fresh meter with an empty window.
    pub fn new() -> Self {
        QosMeter {
            window_start: None,
            last_delivery: None,
            bytes: 0,
            delivered: 0,
            dropped: 0,
            delay_sum: Duration::ZERO,
        }
    }

    /// Record a delivered packet: `sent` / `received` timestamps at
    /// the two ends of the measured segment, `size` bytes on the wire.
    ///
    /// The throughput window opens at the earliest *send* time seen so
    /// a single packet still has a meaningful (transmission-delay-long)
    /// window, and closes at the latest receive time — so reports
    /// arriving out of order (normal for an AP's tx-status feed)
    /// neither shrink the span nor inflate the throughput.
    #[inline]
    pub fn deliver(&mut self, sent: Instant, received: Instant, size: u32) {
        self.window_start = Some(self.window_start.map_or(sent, |start| start.min(sent)));
        self.last_delivery = Some(self.last_delivery.map_or(received, |end| end.max(received)));
        self.bytes += size as u64;
        self.delivered += 1;
        self.delay_sum += received.saturating_since(sent);
    }

    /// Record a dropped packet.
    #[inline]
    pub fn drop_packet(&mut self) {
        self.dropped += 1;
    }

    /// Number of delivered packets in the current window.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of dropped packets in the current window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Snapshot the current window. An idle meter reports all-zero
    /// QoS (and loss 0 — no evidence either way).
    pub fn sample(&self) -> QosSample {
        let total = self.delivered + self.dropped;
        let loss_ratio = if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        };
        let mean_delay = if self.delivered == 0 {
            Duration::ZERO
        } else {
            self.delay_sum / self.delivered
        };
        let throughput_bps = match (self.window_start, self.last_delivery) {
            (Some(start), Some(end)) => {
                let span = end.saturating_since(start).as_secs_f64();
                if span > 0.0 {
                    self.bytes as f64 * 8.0 / span
                } else {
                    0.0
                }
            }
            _ => 0.0,
        };
        QosSample {
            throughput_bps,
            mean_delay,
            loss_ratio,
        }
    }

    /// Clear the window and start accumulating afresh.
    pub fn reset(&mut self) {
        *self = QosMeter::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_meter_reports_zeros() {
        let s = QosMeter::new().sample();
        assert_eq!(s.throughput_bps, 0.0);
        assert_eq!(s.mean_delay, Duration::ZERO);
        assert_eq!(s.loss_ratio, 0.0);
        assert_eq!(s.qos_index(), 0.0);
    }

    #[test]
    fn throughput_over_window() {
        let mut m = QosMeter::new();
        // 1250 bytes sent at t=0 delivered t=10ms; another at t=1s.
        m.deliver(Instant::ZERO, Instant::from_millis(10), 1250);
        m.deliver(Instant::from_millis(990), Instant::from_secs(1), 1250);
        let s = m.sample();
        // 2500 bytes over 1 s window = 20 kbps.
        assert!((s.throughput_bps - 20_000.0).abs() < 1e-6);
        assert_eq!(s.mean_delay, Duration::from_millis(10));
    }

    #[test]
    fn loss_ratio_counts_drops() {
        let mut m = QosMeter::new();
        m.deliver(Instant::ZERO, Instant::from_millis(1), 100);
        m.drop_packet();
        m.drop_packet();
        m.deliver(Instant::from_millis(2), Instant::from_millis(3), 100);
        let s = m.sample();
        assert!((s.loss_ratio - 0.5).abs() < 1e-12);
        assert_eq!(m.delivered(), 2);
        assert_eq!(m.dropped(), 2);
    }

    #[test]
    fn qos_index_is_throughput_over_delay() {
        let s = QosSample {
            throughput_bps: 1_000_000.0,
            mean_delay: Duration::from_millis(100),
            loss_ratio: 0.0,
        };
        assert!((s.qos_index() - 10_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn qos_index_zero_delay_is_capped_not_nan() {
        let s = QosSample {
            throughput_bps: 1.0,
            mean_delay: Duration::ZERO,
            loss_ratio: 0.0,
        };
        assert_eq!(s.qos_index(), f64::MAX);
    }

    #[test]
    fn normalized_qos_clamps() {
        let s = QosSample {
            throughput_bps: 1_000_000.0,
            mean_delay: Duration::from_millis(100),
            loss_ratio: 0.0,
        };
        let idx = s.qos_index();
        assert!((s.normalized_qos(idx * 2.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.normalized_qos(idx / 2.0), 1.0);
    }

    #[test]
    fn reset_clears_window() {
        let mut m = QosMeter::new();
        m.deliver(Instant::ZERO, Instant::from_millis(5), 500);
        m.drop_packet();
        m.reset();
        let s = m.sample();
        assert_eq!(s.loss_ratio, 0.0);
        assert_eq!(s.throughput_bps, 0.0);
    }

    #[test]
    fn out_of_order_delivery_keeps_window_monotone() {
        let mut m = QosMeter::new();
        m.deliver(Instant::ZERO, Instant::from_millis(100), 100);
        m.deliver(Instant::from_millis(10), Instant::from_millis(50), 100);
        let s = m.sample();
        // Window stays [0, 100ms].
        assert!((s.throughput_bps - 200.0 * 8.0 / 0.1).abs() < 1e-6);

        // The same two reports the other way round: the window opens at
        // the earliest send, not at the first report's 10 ms.
        let mut m = QosMeter::new();
        m.deliver(Instant::from_millis(10), Instant::from_millis(50), 100);
        m.deliver(Instant::ZERO, Instant::from_millis(100), 100);
        assert_eq!(m.sample(), s);
    }
}
