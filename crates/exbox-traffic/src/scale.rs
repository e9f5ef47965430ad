//! Streamed large-population workloads.
//!
//! [`LiveLabGenerator::events`] materialises and sorts every session
//! of every user — fine for the paper's 34 users, hopeless for the
//! 10⁵–10⁶-user populations the gateway's flow-state layer is sized
//! for. [`ScaledWorkload`] produces the *same* chronological event
//! stream lazily: one small cursor per user (its derived RNG, the
//! next pending session and a min-heap of open departures) merged
//! k-ways by `(time, user, sequence)` — memory is O(users +
//! concurrent sessions), never O(total events).
//!
//! Under [`Regime::Steady`] the stream is **draw-for-draw identical**
//! to [`LiveLabGenerator::events`] (asserted in this module's tests):
//! each user's RNG consumes the exact same sample sequence, and the
//! merge key reproduces the materialised sort order. The other
//! regimes stress the flow table the way real cells fail:
//!
//! * [`Regime::FlashCrowd`] — a stadium letting out: the candidate
//!   arrival process runs `boost`× hotter and thinning keeps the
//!   off-window rate unchanged, so arrivals spike only inside the
//!   window.
//! * [`Regime::MassDeparture`] — an access-network flap: each session
//!   spanning the cut instant ends there with probability `fraction`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use exbox_net::{AppClass, Instant};

use crate::dist::Rng;
use crate::workload::{LiveLabGenerator, WorkloadEvent};

/// Arrival/departure regime for a [`ScaledWorkload`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Regime {
    /// The unmodified LiveLab process; draw-identical to
    /// [`LiveLabGenerator::events`].
    Steady,
    /// Arrival rate multiplied by `boost` inside
    /// `[start_secs, start_secs + duration_secs)`.
    FlashCrowd {
        /// Window start, seconds from the workload origin.
        start_secs: f64,
        /// Window length in seconds.
        duration_secs: f64,
        /// Rate multiplier inside the window (≥ 1).
        boost: f64,
    },
    /// Every session spanning `at_secs` is cut short there with
    /// probability `fraction`.
    MassDeparture {
        /// Cut instant, seconds from the workload origin.
        at_secs: f64,
        /// Probability that a spanning session departs at the cut.
        fraction: f64,
    },
}

/// A [`LiveLabGenerator`] population streamed through a [`Regime`].
#[derive(Debug, Clone)]
pub struct ScaledWorkload {
    generator: LiveLabGenerator,
    regime: Regime,
}

impl ScaledWorkload {
    /// Wrap a generator in a regime.
    ///
    /// # Panics
    /// Panics on nonsensical regime parameters (`boost < 1`,
    /// non-positive flash window, `fraction` outside `[0, 1]`).
    pub fn new(generator: LiveLabGenerator, regime: Regime) -> Self {
        match regime {
            Regime::Steady => {}
            Regime::FlashCrowd {
                duration_secs,
                boost,
                ..
            } => {
                assert!(boost >= 1.0, "flash-crowd boost must be >= 1");
                assert!(duration_secs > 0.0, "flash window must be non-empty");
            }
            Regime::MassDeparture { fraction, .. } => {
                assert!(
                    (0.0..=1.0).contains(&fraction),
                    "departure fraction must be in [0, 1]"
                );
            }
        }
        ScaledWorkload { generator, regime }
    }

    /// The wrapped generator.
    pub fn generator(&self) -> &LiveLabGenerator {
        &self.generator
    }

    /// Lazily stream the chronological `(time, event)` sequence.
    pub fn stream(&self) -> EventStream {
        EventStream::new(&self.generator, self.regime)
    }
}

/// A session not yet emitted as an arrival (its departure is already
/// queued on the cursor's heap).
#[derive(Debug, Clone, Copy)]
struct PendingArrival {
    start_ns: u64,
    seq: u64,
    class: AppClass,
}

/// Per-user lazy event source: the user's derived RNG plus the open
/// sessions' departures. Yields that user's events in `(t_ns, seq)`
/// order, drawing RNG samples in exactly the order the materialised
/// generator does.
#[derive(Debug)]
struct UserCursor {
    rng: Rng,
    /// Arrival-process clock, seconds.
    t: f64,
    /// Per-user event sequence: session `i` emits arrival `2i` and
    /// departure `2i + 1`, matching the materialised push order.
    seq: u64,
    next_arrival: Option<PendingArrival>,
    /// Open sessions as `(end_ns, seq, class index)`, min-first.
    departures: BinaryHeap<Reverse<(u64, u64, u8)>>,
    /// The arrival process ran past the horizon.
    exhausted: bool,
}

/// Population-wide parameters shared by every cursor.
#[derive(Debug, Clone, Copy)]
struct StreamParams {
    horizon: f64,
    peak_rate: f64,
    w_max: f64,
    session_length_scale: f64,
    regime: Regime,
}

impl UserCursor {
    fn new(rng: Rng, params: &StreamParams) -> Self {
        let mut cursor = UserCursor {
            rng,
            t: 0.0,
            seq: 0,
            next_arrival: None,
            departures: BinaryHeap::new(),
            exhausted: false,
        };
        cursor.refill(params);
        cursor
    }

    /// Draw candidates until one is accepted (becoming the pending
    /// arrival, with its departure queued) or the horizon is crossed.
    /// Under [`Regime::Steady`] the sample sequence is identical to
    /// [`LiveLabGenerator::events`].
    fn refill(&mut self, params: &StreamParams) {
        debug_assert!(self.next_arrival.is_none());
        if self.exhausted {
            return;
        }
        let (rate_mult, flash) = match params.regime {
            Regime::FlashCrowd {
                start_secs,
                duration_secs,
                boost,
            } => (boost, Some((start_secs, start_secs + duration_secs, boost))),
            _ => (1.0, None),
        };
        loop {
            self.t += self.rng.exponential(1.0 / (params.peak_rate * rate_mult));
            if self.t >= params.horizon {
                self.exhausted = true;
                return;
            }
            let hour = (self.t % 86_400.0) / 3_600.0;
            let w = LiveLabGenerator::diurnal_weight(hour);
            // Thinning: the acceptance probability divides out the
            // boosted candidate rate except inside the flash window,
            // so the off-window process is unchanged in distribution.
            let boost_now = match flash {
                Some((start, end, boost)) if (start..end).contains(&self.t) => boost,
                _ => 1.0,
            };
            if !self.rng.chance(w * boost_now / (params.w_max * rate_mult)) {
                continue;
            }
            let class = AppClass::from_index(self.rng.zipf(3, 1.1));
            let dur = self
                .rng
                .exponential(
                    LiveLabGenerator::mean_session_secs(class) * params.session_length_scale,
                )
                .max(10.0);
            let mut end_secs = (self.t + dur).min(params.horizon);
            if let Regime::MassDeparture { at_secs, fraction } = params.regime {
                if self.t < at_secs && at_secs < end_secs && self.rng.chance(fraction) {
                    end_secs = at_secs;
                }
            }
            let start_ns = (self.t * 1e9) as u64;
            let end_ns = (end_secs * 1e9) as u64;
            let arrival_seq = self.seq;
            self.next_arrival = Some(PendingArrival {
                start_ns,
                seq: arrival_seq,
                class,
            });
            self.departures
                .push(Reverse((end_ns, arrival_seq + 1, class.index() as u8)));
            self.seq += 2;
            return;
        }
    }

    /// This user's next event key without consuming it.
    fn peek_key(&self) -> Option<(u64, u64)> {
        let arrival = self.next_arrival.map(|a| (a.start_ns, a.seq));
        let departure = self.departures.peek().map(|&Reverse((t, s, _))| (t, s));
        match (arrival, departure) {
            (Some(a), Some(d)) => Some(a.min(d)),
            (a, d) => a.or(d),
        }
    }

    /// Consume this user's next event.
    fn pop(&mut self, params: &StreamParams) -> Option<(u64, u64, WorkloadEvent)> {
        let arrival = self.next_arrival.map(|a| (a.start_ns, a.seq));
        let departure = self.departures.peek().map(|&Reverse((t, s, _))| (t, s));
        let take_arrival = match (arrival, departure) {
            (Some(a), Some(d)) => a < d,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_arrival {
            let pending = self.next_arrival.take().expect("peeked arrival");
            self.refill(params);
            Some((
                pending.start_ns,
                pending.seq,
                WorkloadEvent::Arrival(pending.class),
            ))
        } else {
            let Reverse((t, s, class)) = self.departures.pop()?;
            Some((
                t,
                s,
                WorkloadEvent::Departure(AppClass::from_index(class as usize)),
            ))
        }
    }
}

/// Lazy k-way merge over the per-user cursors; see the module docs
/// for the memory contract and the determinism guarantee.
#[derive(Debug)]
pub struct EventStream {
    params: StreamParams,
    cursors: Vec<UserCursor>,
    /// Merge frontier: each live user's next event as
    /// `(t_ns, user, seq)`, min-first. `seq` is per-user, so the key
    /// reproduces the materialised sort by `(t, global eseq)` — the
    /// global sequence is lexicographic in `(user, per-user seq)`.
    frontier: BinaryHeap<Reverse<(u64, u32, u64)>>,
}

impl EventStream {
    fn new(generator: &LiveLabGenerator, regime: Regime) -> Self {
        assert!(generator.users > 0, "need at least one user");
        assert!(
            generator.users <= u32::MAX as usize,
            "user index must fit u32"
        );
        let rng = Rng::new(generator.seed).derive(0x11F3);
        let horizon = generator.days as f64 * 86_400.0;
        let avg_weight: f64 = (0..24)
            .map(|h| LiveLabGenerator::diurnal_weight(h as f64))
            .sum::<f64>()
            / 24.0;
        let params = StreamParams {
            horizon,
            peak_rate: generator.sessions_per_user_day / 86_400.0 / avg_weight,
            w_max: LiveLabGenerator::diurnal_weight(20.0),
            session_length_scale: generator.session_length_scale,
            regime,
        };
        let mut cursors = Vec::with_capacity(generator.users);
        let mut frontier = BinaryHeap::with_capacity(generator.users);
        for user in 0..generator.users {
            let cursor = UserCursor::new(rng.derive(user as u64 + 1), &params);
            if let Some((t, s)) = cursor.peek_key() {
                frontier.push(Reverse((t, user as u32, s)));
            }
            cursors.push(cursor);
        }
        EventStream {
            params,
            cursors,
            frontier,
        }
    }

    /// Events not yet emitted for any user, cheaply bounded: `true`
    /// while the stream has more items.
    pub fn has_more(&self) -> bool {
        !self.frontier.is_empty()
    }
}

impl Iterator for EventStream {
    type Item = (Instant, WorkloadEvent);

    fn next(&mut self) -> Option<Self::Item> {
        let Reverse((_, user, _)) = self.frontier.pop()?;
        let cursor = &mut self.cursors[user as usize];
        let (t_ns, _, event) = cursor
            .pop(&self.params)
            .expect("frontier entry implies a pending event");
        if let Some((t, s)) = cursor.peek_key() {
            self.frontier.push(Reverse((t, user, s)));
        }
        Some((Instant::from_nanos(t_ns), event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(workload: &ScaledWorkload) -> Vec<(Instant, WorkloadEvent)> {
        workload.stream().collect()
    }

    #[test]
    fn steady_stream_is_identical_to_materialized_events() {
        let generator = LiveLabGenerator::default();
        let streamed = drain(&ScaledWorkload::new(generator.clone(), Regime::Steady));
        assert_eq!(streamed, generator.events());
    }

    #[test]
    fn steady_stream_matches_under_nondefault_parameters() {
        let generator = LiveLabGenerator {
            users: 77,
            days: 2,
            sessions_per_user_day: 3.5,
            session_length_scale: 2.0,
            seed: 0xBEEF,
        };
        let streamed = drain(&ScaledWorkload::new(generator.clone(), Regime::Steady));
        assert_eq!(streamed, generator.events());
    }

    #[test]
    fn stream_is_deterministic() {
        let workload = ScaledWorkload::new(
            LiveLabGenerator::default(),
            Regime::FlashCrowd {
                start_secs: 3_600.0,
                duration_secs: 1_800.0,
                boost: 8.0,
            },
        );
        assert_eq!(drain(&workload), drain(&workload));
    }

    #[test]
    fn events_balance_and_stay_chronological_in_every_regime() {
        for regime in [
            Regime::Steady,
            Regime::FlashCrowd {
                start_secs: 40_000.0,
                duration_secs: 3_600.0,
                boost: 6.0,
            },
            Regime::MassDeparture {
                at_secs: 70_000.0,
                fraction: 0.9,
            },
        ] {
            let events = drain(&ScaledWorkload::new(LiveLabGenerator::default(), regime));
            assert!(!events.is_empty());
            for pair in events.windows(2) {
                assert!(pair[0].0 <= pair[1].0, "stream out of order ({regime:?})");
            }
            let arrivals = events
                .iter()
                .filter(|(_, e)| matches!(e, WorkloadEvent::Arrival(_)))
                .count();
            assert_eq!(
                2 * arrivals,
                events.len(),
                "unbalanced sessions ({regime:?})"
            );
        }
    }

    #[test]
    fn flash_crowd_boosts_only_its_window() {
        let window = (86_400.0 + 60_000.0, 86_400.0 + 63_600.0);
        let in_window = |t: Instant| {
            let secs = t.as_nanos() as f64 / 1e9;
            (window.0..window.1).contains(&secs)
        };
        let arrivals_in = |events: &[(Instant, WorkloadEvent)]| {
            events
                .iter()
                .filter(|(t, e)| matches!(e, WorkloadEvent::Arrival(_)) && in_window(*t))
                .count()
        };
        let steady = drain(&ScaledWorkload::new(
            LiveLabGenerator::default(),
            Regime::Steady,
        ));
        let crowd = drain(&ScaledWorkload::new(
            LiveLabGenerator::default(),
            Regime::FlashCrowd {
                start_secs: window.0,
                duration_secs: window.1 - window.0,
                boost: 10.0,
            },
        ));
        assert!(
            arrivals_in(&crowd) >= 4 * arrivals_in(&steady).max(1),
            "flash window not boosted: {} vs {}",
            arrivals_in(&crowd),
            arrivals_in(&steady)
        );
        // Total arrival mass outside the window stays in the same
        // ballpark (thinning keeps the off-window rate unchanged in
        // distribution, though the draws themselves differ).
        let outside = |events: &[(Instant, WorkloadEvent)]| {
            events
                .iter()
                .filter(|(t, e)| matches!(e, WorkloadEvent::Arrival(_)) && !in_window(*t))
                .count() as f64
        };
        let ratio = outside(&crowd) / outside(&steady);
        assert!(
            (0.5..2.0).contains(&ratio),
            "off-window rate drifted: ratio {ratio}"
        );
    }

    #[test]
    fn mass_departure_drains_spanning_sessions() {
        let at = 86_400.0 + 72_000.0; // evening of day 2
        let concurrent_at = |events: &[(Instant, WorkloadEvent)], secs: f64| {
            let cut = Instant::from_nanos((secs * 1e9) as u64);
            let mut n: i64 = 0;
            for (t, e) in events {
                if *t > cut {
                    break;
                }
                match e {
                    WorkloadEvent::Arrival(_) => n += 1,
                    WorkloadEvent::Departure(_) => n -= 1,
                }
            }
            n
        };
        let steady = drain(&ScaledWorkload::new(
            LiveLabGenerator {
                users: 200,
                ..LiveLabGenerator::default()
            },
            Regime::Steady,
        ));
        let flap = drain(&ScaledWorkload::new(
            LiveLabGenerator {
                users: 200,
                ..LiveLabGenerator::default()
            },
            Regime::MassDeparture {
                at_secs: at,
                fraction: 0.95,
            },
        ));
        let before = concurrent_at(&steady, at + 1.0);
        let after = concurrent_at(&flap, at + 1.0);
        assert!(
            after * 4 < before.max(4),
            "cut did not drain the cell: {after} of {before} left"
        );
    }

    #[test]
    fn large_population_streams_lazily() {
        // 10⁵ users construct in O(users) and the first events arrive
        // without materialising the full trace.
        let workload = ScaledWorkload::new(
            LiveLabGenerator {
                users: 100_000,
                days: 1,
                ..LiveLabGenerator::default()
            },
            Regime::Steady,
        );
        let mut stream = workload.stream();
        assert!(stream.has_more());
        let mut last = Instant::ZERO;
        for (t, _) in stream.by_ref().take(10_000) {
            assert!(t >= last);
            last = t;
        }
        assert!(stream.has_more());
    }
}
