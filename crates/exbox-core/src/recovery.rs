//! Crash-safety support: deterministic fault injection and the
//! retry/backoff policy the gateway uses while its model is
//! unavailable.
//!
//! The paper treats the Admittance Classifier as an always-on control
//! loop, but a deployed gateway restarts, its training can fail to
//! converge, and a checkpoint on disk can be torn. This module holds
//! the two pieces that make those paths testable:
//!
//! * [`FaultPlan`] — a seeded, deterministic injector. Each
//!   [`FaultKind`] carries an independent probability; draws come from
//!   a shared xorshift64* stream so a given seed produces the same
//!   fault schedule every run. Enabled in production builds via the
//!   `EXBOX_FAULTS` environment knob
//!   (e.g. `EXBOX_FAULTS="seed=7,retrain_fail=0.2,poll_error=0.1"`),
//!   or pinned explicitly in tests via
//!   [`crate::ConcurrentGateway::with_fault_plan`].
//! * [`RetryBackoff`] — bounded exponential backoff for retrain
//!   attempts: after the n-th consecutive failure the classifier skips
//!   `min(2^(n-1), max_skip)` retrain triggers before trying again, so
//!   a persistently failing trainer cannot burn the poll loop.
//!
//! Every injected fault increments the `faults.injected` counter;
//! recovery activity surfaces as `recovery.*` metrics (see the README
//! metrics reference).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use exbox_obs::{Counter, MetricsRegistry};

/// The failure modes the injector can force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A retrain attempt fails outright (model and scaler unchanged).
    RetrainFail,
    /// A retrain runs but the solver is cut off before convergence.
    RetrainNonConverge,
    /// A checkpoint read returns corrupted bytes.
    CheckpointCorrupt,
    /// A checkpoint read returns a truncated file.
    CheckpointTruncate,
    /// A QoE poll pass errors out before feeding the classifier.
    PollError,
}

impl FaultKind {
    /// Every kind, in [`FaultKind::index`] order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::RetrainFail,
        FaultKind::RetrainNonConverge,
        FaultKind::CheckpointCorrupt,
        FaultKind::CheckpointTruncate,
        FaultKind::PollError,
    ];

    /// Position in the probability table.
    pub fn index(self) -> usize {
        match self {
            FaultKind::RetrainFail => 0,
            FaultKind::RetrainNonConverge => 1,
            FaultKind::CheckpointCorrupt => 2,
            FaultKind::CheckpointTruncate => 3,
            FaultKind::PollError => 4,
        }
    }

    /// The spelling used in `EXBOX_FAULTS` specs.
    pub fn key(self) -> &'static str {
        match self {
            FaultKind::RetrainFail => "retrain_fail",
            FaultKind::RetrainNonConverge => "retrain_nonconverge",
            FaultKind::CheckpointCorrupt => "ckpt_corrupt",
            FaultKind::CheckpointTruncate => "ckpt_truncate",
            FaultKind::PollError => "poll_error",
        }
    }

    fn from_key(key: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.key() == key)
    }
}

/// Non-zero replacement for a zero seed — xorshift64* has an all-zero
/// fixed point.
const SEED_FALLBACK: u64 = 0xE4B0_C5AF_E10D_5EED;

/// A deterministic fault-injection schedule.
///
/// Clones share the PRNG stream and the injected-fault counter, so a
/// gateway's shards and its trainer's classifier draw from one
/// schedule: a plan with `seed=7` fires the same faults at the same draw positions on
/// every run, regardless of which component consumed each draw.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    probs: [f64; FaultKind::ALL.len()],
    state: Arc<AtomicU64>,
    injected: Arc<Counter>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultPlan {
    /// A plan that never injects anything (the production default).
    pub fn disabled() -> Self {
        FaultPlan {
            probs: [0.0; FaultKind::ALL.len()],
            state: Arc::new(AtomicU64::new(SEED_FALLBACK)),
            injected: Arc::new(Counter::new()),
        }
    }

    /// Build a plan with explicit per-kind probabilities, binding its
    /// counter into the global registry.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(pairs: &[(FaultKind, f64)], seed: u64) -> Self {
        Self::with_registry(pairs, seed, exbox_obs::global())
    }

    /// [`FaultPlan::new`] with an explicit metrics registry.
    pub fn with_registry(pairs: &[(FaultKind, f64)], seed: u64, reg: &MetricsRegistry) -> Self {
        let mut probs = [0.0; FaultKind::ALL.len()];
        for &(kind, p) in pairs {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault probability must be in [0, 1], got {p}"
            );
            probs[kind.index()] = p;
        }
        FaultPlan {
            probs,
            state: Arc::new(AtomicU64::new(if seed == 0 { SEED_FALLBACK } else { seed })),
            injected: reg.counter("faults.injected"),
        }
    }

    /// Parse an `EXBOX_FAULTS` spec: comma-separated `key=value`
    /// pairs, where keys are `seed` or a [`FaultKind::key`] and values
    /// are `u64` / probabilities in `[0, 1]`. Empty specs yield a
    /// disabled plan.
    pub fn parse(spec: &str, reg: &MetricsRegistry) -> Result<FaultPlan, String> {
        let mut pairs = Vec::new();
        let mut seed = 0u64;
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {item:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                seed = value
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed value {value:?}"))?;
            } else if let Some(kind) = FaultKind::from_key(key) {
                let p = value
                    .parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("bad probability for {key}: {value:?}"))?;
                pairs.push((kind, p));
            } else {
                return Err(format!("unknown fault key {key:?}"));
            }
        }
        Ok(FaultPlan::with_registry(&pairs, seed, reg))
    }

    /// Build a plan from the `EXBOX_FAULTS` environment knob. Unset or
    /// empty means disabled; a malformed spec warns and stays disabled
    /// (consistent with the other `EXBOX_*` knobs).
    pub fn from_env(reg: &MetricsRegistry) -> FaultPlan {
        match std::env::var("EXBOX_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => match FaultPlan::parse(&spec, reg) {
                Ok(plan) => plan,
                Err(err) => {
                    eprintln!("exbox: ignoring invalid EXBOX_FAULTS={spec:?}: {err}");
                    FaultPlan::disabled()
                }
            },
            _ => FaultPlan::disabled(),
        }
    }

    /// `true` when at least one fault kind can fire.
    pub fn armed(&self) -> bool {
        self.probs.iter().any(|&p| p > 0.0)
    }

    /// Total faults injected so far across all clones of this plan.
    pub fn injected(&self) -> u64 {
        self.injected.get()
    }

    /// Draw for `kind`: `true` means the caller must fail this
    /// operation. Probability-zero kinds never consume a PRNG draw, so
    /// arming one kind does not perturb another kind's schedule.
    pub fn should_inject(&self, kind: FaultKind) -> bool {
        let p = self.probs[kind.index()];
        if p <= 0.0 {
            return false;
        }
        let hit = p >= 1.0 || {
            // 53 high-quality bits -> uniform in [0, 1).
            let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            u < p
        };
        if hit {
            self.injected.inc();
        }
        hit
    }

    /// Apply checkpoint read faults to freshly read bytes: truncation
    /// cuts the buffer in half, corruption flips a bit in a
    /// deterministically chosen byte. Both leave the checksum stale so
    /// the loader must reject the result.
    pub fn mangle_checkpoint(&self, bytes: &mut Vec<u8>) {
        if self.should_inject(FaultKind::CheckpointTruncate) {
            bytes.truncate(bytes.len() / 2);
        }
        if self.should_inject(FaultKind::CheckpointCorrupt) && !bytes.is_empty() {
            let idx = (self.next_u64() % bytes.len() as u64) as usize;
            bytes[idx] ^= 0x20;
        }
    }

    /// xorshift64* step on the shared state (lock-free CAS loop).
    fn next_u64(&self) -> u64 {
        loop {
            let cur = self.state.load(Ordering::Relaxed);
            let mut x = cur;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            if self
                .state
                .compare_exchange_weak(cur, x, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
        }
    }
}

/// Bounded exponential backoff over retrain *triggers* (batch
/// completions), not wall time — the classifier has no clock of its
/// own. After the n-th consecutive failure, `min(2^(n-1), max_skip)`
/// triggers are skipped before the next attempt.
#[derive(Debug, Clone)]
pub struct RetryBackoff {
    max_skip: u32,
    consecutive_failures: u32,
    skip_remaining: u32,
}

impl Default for RetryBackoff {
    /// Cap at 8 skipped triggers — with the paper's batch size of 25
    /// observations that bounds model staleness at 200 polls.
    fn default() -> Self {
        RetryBackoff::new(8)
    }
}

impl RetryBackoff {
    /// Backoff capped at `max_skip` skipped triggers per failure.
    ///
    /// # Panics
    /// Panics if `max_skip` is zero.
    pub fn new(max_skip: u32) -> Self {
        assert!(max_skip >= 1, "max_skip must be at least 1");
        RetryBackoff {
            max_skip,
            consecutive_failures: 0,
            skip_remaining: 0,
        }
    }

    /// `true` when the next retrain trigger should attempt training.
    pub fn ready(&self) -> bool {
        self.skip_remaining == 0
    }

    /// Consume one skipped trigger.
    pub fn tick(&mut self) {
        self.skip_remaining = self.skip_remaining.saturating_sub(1);
    }

    /// Record a failed attempt and arm the next skip window.
    pub fn on_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let exp = (self.consecutive_failures - 1).min(31);
        self.skip_remaining = (1u32 << exp).min(self.max_skip);
    }

    /// Record a successful attempt; the schedule resets.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.skip_remaining = 0;
    }

    /// Failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        assert!(!plan.armed());
        for _ in 0..1000 {
            for kind in FaultKind::ALL {
                assert!(!plan.should_inject(kind));
            }
        }
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let reg = MetricsRegistry::new();
        let mk = || {
            FaultPlan::with_registry(
                &[(FaultKind::RetrainFail, 0.3), (FaultKind::PollError, 0.5)],
                42,
                &reg,
            )
        };
        let (a, b) = (mk(), mk());
        for _ in 0..200 {
            assert_eq!(
                a.should_inject(FaultKind::RetrainFail),
                b.should_inject(FaultKind::RetrainFail)
            );
            assert_eq!(
                a.should_inject(FaultKind::PollError),
                b.should_inject(FaultKind::PollError)
            );
        }
    }

    #[test]
    fn clones_share_one_stream_and_counter() {
        let reg = MetricsRegistry::new();
        let plan = FaultPlan::with_registry(&[(FaultKind::RetrainFail, 1.0)], 7, &reg);
        let clone = plan.clone();
        assert!(plan.should_inject(FaultKind::RetrainFail));
        assert!(clone.should_inject(FaultKind::RetrainFail));
        assert_eq!(plan.injected(), 2);
        assert_eq!(clone.injected(), 2);
        assert_eq!(reg.snapshot().counter("faults.injected"), Some(2));
    }

    #[test]
    fn certain_and_impossible_probabilities() {
        let reg = MetricsRegistry::new();
        let plan = FaultPlan::with_registry(
            &[
                (FaultKind::RetrainFail, 1.0),
                (FaultKind::RetrainNonConverge, 0.0),
            ],
            9,
            &reg,
        );
        for _ in 0..100 {
            assert!(plan.should_inject(FaultKind::RetrainFail));
            assert!(!plan.should_inject(FaultKind::RetrainNonConverge));
        }
    }

    #[test]
    fn probability_roughly_respected() {
        let reg = MetricsRegistry::new();
        let plan = FaultPlan::with_registry(&[(FaultKind::PollError, 0.25)], 1234, &reg);
        let hits = (0..4000)
            .filter(|_| plan.should_inject(FaultKind::PollError))
            .count();
        // Loose 3-sigma-ish band around 1000.
        assert!((800..1200).contains(&hits), "hits {hits}");
    }

    #[test]
    fn zero_seed_is_remapped() {
        let reg = MetricsRegistry::new();
        let plan = FaultPlan::with_registry(&[(FaultKind::RetrainFail, 0.5)], 0, &reg);
        // With a stuck all-zero state every draw would be identical;
        // 64 draws of a fair-ish coin must see both outcomes.
        let draws: Vec<bool> = (0..64)
            .map(|_| plan.should_inject(FaultKind::RetrainFail))
            .collect();
        assert!(draws.iter().any(|&d| d) && draws.iter().any(|&d| !d));
    }

    #[test]
    fn parse_accepts_full_spec() {
        let reg = MetricsRegistry::new();
        let plan = FaultPlan::parse(
            "seed=7, retrain_fail=0.5,ckpt_corrupt=1.0 , poll_error=0",
            &reg,
        )
        .expect("valid spec");
        assert!(plan.armed());
        assert!(plan.should_inject(FaultKind::CheckpointCorrupt));
        assert!(!plan.should_inject(FaultKind::PollError));
    }

    #[test]
    fn parse_rejects_bad_specs() {
        let reg = MetricsRegistry::new();
        assert!(FaultPlan::parse("retrain_fail", &reg).is_err());
        assert!(FaultPlan::parse("unknown_kind=0.5", &reg).is_err());
        assert!(FaultPlan::parse("retrain_fail=1.5", &reg).is_err());
        assert!(FaultPlan::parse("retrain_fail=-0.1", &reg).is_err());
        assert!(FaultPlan::parse("retrain_fail=NaN", &reg).is_err());
        assert!(FaultPlan::parse("seed=abc", &reg).is_err());
        assert!(!FaultPlan::parse("", &reg).expect("empty is fine").armed());
    }

    #[test]
    fn mangle_truncates_and_corrupts() {
        let reg = MetricsRegistry::new();
        let original: Vec<u8> = (0..64u8).collect();

        let trunc = FaultPlan::with_registry(&[(FaultKind::CheckpointTruncate, 1.0)], 3, &reg);
        let mut bytes = original.clone();
        trunc.mangle_checkpoint(&mut bytes);
        assert_eq!(bytes.len(), 32);

        let corrupt = FaultPlan::with_registry(&[(FaultKind::CheckpointCorrupt, 1.0)], 3, &reg);
        let mut bytes = original.clone();
        corrupt.mangle_checkpoint(&mut bytes);
        assert_eq!(bytes.len(), original.len());
        assert_ne!(bytes, original);

        let clean = FaultPlan::disabled();
        let mut bytes = original.clone();
        clean.mangle_checkpoint(&mut bytes);
        assert_eq!(bytes, original);
    }

    #[test]
    fn backoff_schedule_doubles_to_cap() {
        let mut b = RetryBackoff::new(8);
        assert!(b.ready());
        let mut skips = Vec::new();
        for _ in 0..5 {
            b.on_failure();
            let mut n = 0;
            while !b.ready() {
                b.tick();
                n += 1;
            }
            skips.push(n);
        }
        assert_eq!(skips, vec![1, 2, 4, 8, 8]);
        b.on_success();
        assert!(b.ready());
        assert_eq!(b.consecutive_failures(), 0);
        b.on_failure();
        let mut n = 0;
        while !b.ready() {
            b.tick();
            n += 1;
        }
        assert_eq!(n, 1, "schedule restarts after success");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn backoff_zero_cap_panics() {
        let _ = RetryBackoff::new(0);
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn plan_rejects_out_of_range_probability() {
        let _ =
            FaultPlan::with_registry(&[(FaultKind::RetrainFail, 1.2)], 1, &MetricsRegistry::new());
    }
}
