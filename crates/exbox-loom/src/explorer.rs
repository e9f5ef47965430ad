//! The interleaving explorer: a cooperative token scheduler driving
//! real OS threads through every (bounded) interleaving of their shim
//! operations.
//!
//! # How it works
//!
//! Each model execution runs the user closure on a fresh set of OS
//! threads, but only **one** of them holds the scheduler token at any
//! instant; every shim operation (atomic load/store, mutex lock/unlock,
//! spawn/join, `yield_now`) is a *switch point* where the token may
//! move. Because the sequence of switch points fully determines the
//! observable behaviour of a program whose shared state lives entirely
//! behind the shims, enumerating token schedules enumerates
//! sequentially-consistent interleavings.
//!
//! Exploration is a depth-first search over the schedule tree: the
//! first execution always prefers the currently running thread
//! (minimising context switches); on backtrack the deepest branch with
//! an untried candidate is advanced and the prefix replayed. Three
//! bounds keep the tree finite and CI-sized:
//!
//! - **preemption bound** (`Config::preemptions`): schedules may
//!   involuntarily switch away from a runnable thread at most N times
//!   (voluntary switches — blocking, exit — are free). Most real bugs
//!   need ≤2 preemptions (CHESS observation).
//! - **branch cap** (`Config::max_branches`): path length after which
//!   executions stop recording new branches.
//! - **execution cap** (`Config::max_executions`).
//!
//! **State-hash pruning**: before recording a new branch the explorer
//! fingerprints the scheduler-visible state — per-thread rolling
//! operation hashes, a canonical map of shared-object values, thread
//! statuses, and the preemption budget already spent. A revisited
//! fingerprint means every schedule suffix from here was (or will be)
//! explored from the first visit with at least as much remaining
//! budget, so the execution stops branching.
//! Pruning only ever skips *recording* new branches — replayed
//! prefixes are never pruned — so a reported counterexample trace is
//! always a real schedule.
//!
//! # Failure and abort protocol
//!
//! A panic in model code (assertion failure) or a detected deadlock
//! records the schedule-so-far as a counterexample and flips the
//! explorer into *abort* mode: every thread parked at a switch point
//! is woken and unwinds via a sentinel [`Abort`] panic; shim
//! operations invoked while unwinding (e.g. a `MutexGuard` drop)
//! degrade to passthrough on the real primitive so destructors never
//! double-panic. The counterexample trace replays deterministically
//! via [`Explorer::run_one`] with a pinned schedule.

use std::collections::{HashMap, HashSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::Config;

/// Sentinel panic payload used to unwind model threads on abort.
/// Public-in-crate so `thread::join` can recognise and re-propagate it.
pub(crate) struct Abort;

// ---------------------------------------------------------------------------
// Thread-local model context
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Explorer>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The explorer + model-thread id of the calling OS thread, if it is a
/// model thread. Shims branch on this: `None` → passthrough to std.
pub(crate) fn ctx() -> Option<(Arc<Explorer>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_ctx(v: Option<(Arc<Explorer>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

/// Bind the calling OS thread to a model thread id (used by the thread
/// shim's wrapper).
pub(crate) fn enter_model(ex: Arc<Explorer>, tid: usize) {
    set_ctx(Some((ex, tid)));
}

/// Unbind the calling OS thread from the model.
pub(crate) fn exit_model() {
    set_ctx(None);
}

fn panic_abort() -> ! {
    panic::panic_any(Abort)
}

// ---------------------------------------------------------------------------
// Hashing helpers (FNV/splitmix-style, no deps)
// ---------------------------------------------------------------------------

pub(crate) const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
pub(crate) fn mix(acc: u64, v: u64) -> u64 {
    let mut z = acc ^ v.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    z = z.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 29)
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BlockOn {
    Mutex(u64),
    Join(usize),
    /// The thread is unwinding a panic outside the scheduler's control
    /// (its shim ops degrade to passthrough); it will make progress on
    /// its own and must not hold the token or count as deadlocked.
    Unwind,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    Blocked(BlockOn),
    Finished,
}

struct ThreadState {
    status: Status,
    /// Rolling hash of every shim operation this thread performed.
    rolling: u64,
    /// Canonical id, stable across executions: hash of the parent's
    /// canonical id and the parent-local spawn sequence number.
    canon: u64,
    /// Next per-thread object-id allocation sequence number.
    alloc_seq: u64,
    /// Next per-thread child spawn sequence number.
    spawn_seq: u64,
}

impl ThreadState {
    fn new(canon: u64) -> Self {
        ThreadState {
            status: Status::Runnable,
            rolling: HASH_SEED,
            canon,
            alloc_seq: 0,
            spawn_seq: 0,
        }
    }
}

/// One decision point in the DFS path.
struct Branch {
    /// Runnable threads at this point, current-thread-first then
    /// ascending tid — index 0 is the "no switch" default.
    candidates: Vec<usize>,
    /// Index into `candidates` taken on the current execution.
    chosen: usize,
    /// Thread that was running when the branch was created.
    prev: usize,
    /// Whether `prev` was itself runnable (choosing another thread is
    /// then a preemption).
    prev_runnable: bool,
    /// Preemptions already spent before this branch's choice.
    preempts_before: usize,
}

/// A schedule that violated a property.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Human-readable failure (panic message or "deadlock: ...").
    pub message: String,
    /// Replayable trace: the chosen thread id at each switch point.
    pub trace: String,
    /// 1-based index of the failing execution.
    pub execution: u64,
}

struct Sched {
    threads: Vec<ThreadState>,
    /// Model tid currently holding the token.
    active: usize,
    /// OS handles of spawned wrapper threads, joined by the coordinator.
    os_handles: Vec<std::thread::JoinHandle<()>>,

    // -- DFS path (persists across executions) --
    path: Vec<Branch>,
    /// Next path entry to consume on the current execution.
    cursor: usize,

    // -- per-execution --
    /// Chosen tid at each switch point so far (the trace).
    schedule: Vec<usize>,
    /// Pinned schedule when replaying a counterexample.
    replay: Option<Vec<usize>>,
    /// Canonical shared-object value map (object id → value hash).
    objects: HashMap<u64, u64>,
    /// Mutex object id → owning tid.
    mutex_owner: HashMap<u64, usize>,
    preemptions: usize,
    /// Stop recording new branches for the rest of this execution
    /// (fingerprint already visited, or branch cap hit).
    stop_branching: bool,
    aborting: bool,
    failure: Option<Counterexample>,
    /// Wrapper threads that have not yet fully exited.
    live: usize,

    // -- cross-execution stats --
    visited: HashSet<u64>,
    fp_debug: HashMap<u64, String>,
    executions: u64,
    switches: u64,
    pruned: u64,
    truncated: bool,
}

/// Outcome of one execution.
pub(crate) struct ExecOutcome {
    pub(crate) failure: Option<Counterexample>,
}

pub(crate) struct Explorer {
    state: Mutex<Sched>,
    cv: Condvar,
    pub(crate) cfg: Config,
}

/// Chain a panic hook once, silencing the default "thread panicked"
/// noise for panics raised on model threads (the wrapper catches them
/// and the explorer reports the counterexample itself).
fn install_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if ctx().is_none() {
                prev(info);
            }
        }));
    });
}

impl Explorer {
    pub(crate) fn new(cfg: Config) -> Arc<Self> {
        install_hook();
        Arc::new(Explorer {
            state: Mutex::new(Sched {
                threads: Vec::new(),
                active: 0,
                os_handles: Vec::new(),
                path: Vec::new(),
                cursor: 0,
                schedule: Vec::new(),
                replay: None,
                objects: HashMap::new(),
                mutex_owner: HashMap::new(),
                preemptions: 0,
                stop_branching: false,
                aborting: false,
                failure: None,
                live: 0,
                visited: HashSet::new(),
                fp_debug: HashMap::new(),
                executions: 0,
                switches: 0,
                pruned: 0,
                truncated: false,
            }),
            cv: Condvar::new(),
            cfg,
        })
    }

    pub(crate) fn stats(&self) -> (u64, u64, u64, bool) {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (s.executions, s.switches, s.pruned, s.truncated)
    }

    // -- fingerprinting ----------------------------------------------------

    fn fingerprint(s: &Sched) -> u64 {
        let mut per_thread: Vec<u64> = s
            .threads
            .iter()
            .map(|t| {
                let st = match t.status {
                    Status::Runnable => 1,
                    Status::Finished => 2,
                    Status::Blocked(BlockOn::Mutex(id)) => mix(3, id),
                    Status::Blocked(BlockOn::Join(t)) => mix(5, s.threads[t].canon),
                    Status::Blocked(BlockOn::Unwind) => 6,
                };
                mix(mix(t.canon, st), t.rolling)
            })
            .collect();
        per_thread.sort_unstable();
        let mut acc = HASH_SEED;
        for h in per_thread {
            acc = mix(acc, h);
        }
        let mut objs: Vec<(u64, u64)> = s.objects.iter().map(|(k, v)| (*k, *v)).collect();
        objs.sort_unstable();
        for (k, v) in objs {
            acc = mix(acc, mix(k, v));
        }
        // Budget matters: a state first reached with more preemptions
        // spent has *fewer* suffixes available, so states are only
        // equivalent at equal spend.
        mix(acc, s.preemptions as u64)
    }

    // -- core scheduling ---------------------------------------------------

    /// Pick the next thread to hold the token. Caller holds the lock.
    /// `from` is the thread giving up the token (may be blocked or
    /// finished by the time this runs).
    fn reschedule(&self, s: &mut Sched, from: usize) {
        if s.aborting {
            return;
        }
        let from_runnable = s.threads[from].status == Status::Runnable;
        let mut candidates: Vec<usize> = Vec::new();
        if from_runnable {
            candidates.push(from);
        }
        for (i, t) in s.threads.iter().enumerate() {
            if i != from && t.status == Status::Runnable {
                candidates.push(i);
            }
        }
        if candidates.is_empty() {
            if s.threads.iter().all(|t| t.status == Status::Finished) {
                // Execution complete; coordinator wakes on live == 0.
                self.cv.notify_all();
                return;
            }
            if s.threads
                .iter()
                .any(|t| t.status == Status::Blocked(BlockOn::Unwind))
            {
                // An unwinding thread progresses outside the token
                // protocol and will unblock someone (or abort) soon.
                self.cv.notify_all();
                return;
            }
            let held: Vec<String> = s
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.status, Status::Blocked(_)))
                .map(|(i, t)| format!("t{i}:{:?}", t.status))
                .collect();
            self.fail(
                s,
                format!(
                    "deadlock: all unfinished threads are blocked ({})",
                    held.join(", ")
                ),
            );
            return;
        }

        let k = s.schedule.len();
        let mut consumed_path = false;
        let chosen = if let Some(replay) = &s.replay {
            // Pinned counterexample replay: follow the trace while it
            // agrees with reality, defaulting when it diverges (traces
            // outlive the code they were recorded against).
            match replay.get(k) {
                Some(t) if candidates.contains(t) => *t,
                _ => candidates[0],
            }
        } else if s.cursor < s.path.len() {
            // Replaying the DFS prefix.
            let b = &s.path[s.cursor];
            consumed_path = true;
            let want = b.candidates.get(b.chosen).copied();
            match want {
                Some(t) if candidates.contains(&t) => t,
                // Divergence (model has hidden nondeterminism):
                // degrade gracefully to the default.
                _ => candidates[0],
            }
        } else if s.stop_branching {
            candidates[0]
        } else if s.path.len() >= self.cfg.max_branches {
            s.truncated = true;
            s.stop_branching = true;
            candidates[0]
        } else if candidates.len() == 1 {
            // No real choice: don't spend a path entry on it.
            candidates[0]
        } else {
            let fp = Self::fingerprint(s);
            if self.cfg.prune && !s.visited.insert(fp) {
                if std::env::var("EXBOX_LOOM_DEBUG_FP").is_ok() {
                    eprintln!(
                        "PRUNE fp={fp:x} sched={} first={}",
                        encode_trace(&s.schedule),
                        s.fp_debug.get(&fp).cloned().unwrap_or_default()
                    );
                }
                s.pruned += 1;
                s.stop_branching = true;
                candidates[0]
            } else {
                if std::env::var("EXBOX_LOOM_DEBUG_FP").is_ok() {
                    let t = encode_trace(&s.schedule);
                    s.fp_debug.insert(fp, t);
                }
                s.path.push(Branch {
                    candidates: candidates.clone(),
                    chosen: 0,
                    prev: from,
                    prev_runnable: from_runnable,
                    preempts_before: s.preemptions,
                });
                consumed_path = true;
                candidates[0]
            }
        };
        if consumed_path {
            s.cursor += 1;
        }
        if from_runnable && chosen != from {
            s.preemptions += 1;
        }
        s.schedule.push(chosen);
        s.switches = s.switches.wrapping_add(1);
        s.active = chosen;
        self.cv.notify_all();
    }

    fn fail(&self, s: &mut Sched, message: String) {
        if s.failure.is_none() {
            s.failure = Some(Counterexample {
                message,
                trace: encode_trace(&s.schedule),
                execution: s.executions + 1,
            });
        }
        s.aborting = true;
        for t in s.threads.iter_mut() {
            if matches!(t.status, Status::Blocked(_)) {
                t.status = Status::Runnable;
            }
        }
        self.cv.notify_all();
    }

    /// A switch point: give up the token, let the scheduler pick, wait
    /// until this thread is active again. Returns `false` when the op
    /// must degrade to passthrough (aborting while unwinding).
    pub(crate) fn switch_point(self: &Arc<Self>, tid: usize) -> bool {
        if std::thread::panicking() {
            // Shim op from a destructor during unwind: never panic or
            // park here (a second panic would abort the process).
            return false;
        }
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.aborting {
            drop(s);
            panic_abort();
        }
        // Advance this thread's rolling hash by one tick *before* the
        // scheduler fingerprints the state: the rolling hash doubles as
        // a program-counter proxy, and ops that observe nothing (join
        // of a finished thread, a bare yield) would otherwise leave a
        // thread's position invisible — making a state
        // fingerprint-equal to its own successor and letting the pruner
        // cut unexplored suffixes (real unsoundness, caught by the
        // snapshot reader-drop model).
        let t = &mut s.threads[tid];
        t.rolling = mix(t.rolling, 0x0051_17c4);
        self.reschedule(&mut s, tid);
        loop {
            if s.aborting {
                drop(s);
                panic_abort();
            }
            if s.active == tid && s.threads[tid].status == Status::Runnable {
                return true;
            }
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Mix a shim operation (and optionally a shared-object write)
    /// into the hashes. Called *after* the op, while this thread still
    /// holds the token, so it is atomic w.r.t. the model.
    pub(crate) fn note(&self, tid: usize, obj: u64, op: u64, val: u64, wrote: bool) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.aborting {
            return;
        }
        let t = &mut s.threads[tid];
        t.rolling = mix(t.rolling, mix(mix(obj, op), val));
        if wrote {
            s.objects.insert(obj, val);
        }
    }

    /// Allocate an execution-stable object id: hash of the creating
    /// thread's canonical id and its allocation sequence number.
    pub(crate) fn alloc_obj_id(&self, tid: usize) -> u64 {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let t = &mut s.threads[tid];
        t.alloc_seq += 1;
        mix(t.canon, 0x0b1e_55ed ^ t.alloc_seq)
    }

    // -- blocking primitives ----------------------------------------------

    /// Block `tid` on `on` and wait to be woken *and* scheduled.
    /// Returns `false` on passthrough degradation.
    fn block(self: &Arc<Self>, tid: usize, on: BlockOn) -> bool {
        if std::thread::panicking() {
            return false;
        }
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.aborting {
            drop(s);
            panic_abort();
        }
        s.threads[tid].status = Status::Blocked(on);
        self.reschedule(&mut s, tid);
        loop {
            if s.aborting {
                drop(s);
                panic_abort();
            }
            if s.active == tid && s.threads[tid].status == Status::Runnable {
                return true;
            }
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Park the token elsewhere on behalf of an unwinding thread, so
    /// threads it is about to wait on (via real locks, outside the
    /// protocol) can still run. Never panics, never parks.
    pub(crate) fn release_token_for_unwind(&self, tid: usize) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.aborting {
            return;
        }
        if s.threads[tid].status == Status::Runnable {
            s.threads[tid].status = Status::Blocked(BlockOn::Unwind);
            if s.active == tid {
                self.reschedule(&mut s, tid);
            }
        }
    }

    /// Model-aware mutex lock. The caller acquires the real (inner)
    /// mutex afterwards; the protocol guarantees it is uncontended.
    pub(crate) fn mutex_lock(self: &Arc<Self>, tid: usize, mid: u64) {
        if !self.switch_point(tid) {
            // Passthrough (unwinding): the real lock below may briefly
            // contend with a token-parked owner — hand the token off so
            // that owner can run and release.
            self.release_token_for_unwind(tid);
            return;
        }
        loop {
            {
                let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
                if s.aborting {
                    drop(s);
                    panic_abort();
                }
                if let std::collections::hash_map::Entry::Vacant(e) = s.mutex_owner.entry(mid) {
                    e.insert(tid);
                    let t = &mut s.threads[tid];
                    t.rolling = mix(t.rolling, mix(mid, 0x10c4));
                    return;
                }
            }
            if !self.block(tid, BlockOn::Mutex(mid)) {
                return;
            }
            // Woken: the lock was released, but another waiter may
            // have grabbed it first — retry.
        }
    }

    /// Model-aware mutex unlock (from `MutexGuard::drop`). Must never
    /// panic or park when called during unwind.
    pub(crate) fn mutex_unlock(self: &Arc<Self>, tid: usize, mid: u64) {
        let unwinding = std::thread::panicking();
        {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            s.mutex_owner.remove(&mid);
            // Fold the critical section's effects into the object map:
            // the releasing thread's rolling hash summarises every op
            // it performed while holding the lock.
            let r = s.threads[tid].rolling;
            let e = s.objects.entry(mid).or_insert(HASH_SEED);
            *e = mix(*e, r);
            for t in s.threads.iter_mut() {
                if t.status == Status::Blocked(BlockOn::Mutex(mid)) {
                    t.status = Status::Runnable;
                }
            }
            if s.aborting || unwinding {
                self.cv.notify_all();
                return;
            }
        }
        let _ = self.switch_point(tid);
    }

    // -- thread lifecycle --------------------------------------------------

    /// Register a child model thread (parent holds the token).
    pub(crate) fn register_thread(&self, parent: usize) -> usize {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (canon, _) = {
            let p = &mut s.threads[parent];
            p.spawn_seq += 1;
            (mix(p.canon, 0x51_7cc1 ^ p.spawn_seq), p.spawn_seq)
        };
        s.threads.push(ThreadState::new(canon));
        s.live += 1;
        s.threads.len() - 1
    }

    pub(crate) fn adopt_os_handle(&self, h: std::thread::JoinHandle<()>) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.os_handles.push(h);
    }

    /// First thing a child wrapper does: wait until scheduled.
    pub(crate) fn wait_first_schedule(self: &Arc<Self>, tid: usize) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if s.aborting {
                return false;
            }
            if s.active == tid && s.threads[tid].status == Status::Runnable {
                return true;
            }
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Called by the wrapper when the model closure returns or panics.
    pub(crate) fn thread_finished(
        self: &Arc<Self>,
        tid: usize,
        panic_payload: Option<Box<dyn std::any::Any + Send>>,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.threads[tid].status = Status::Finished;
        for t in s.threads.iter_mut() {
            if t.status == Status::Blocked(BlockOn::Join(tid)) {
                t.status = Status::Runnable;
            }
        }
        match panic_payload {
            Some(p) => {
                if p.downcast_ref::<Abort>().is_none() {
                    let msg = payload_msg(&p);
                    self.fail(&mut s, format!("model thread panicked: {msg}"));
                } else {
                    self.cv.notify_all();
                }
                Some(p)
            }
            None => {
                self.reschedule(&mut s, tid);
                None
            }
        }
    }

    /// Wrapper fully exited (after `thread_finished`).
    pub(crate) fn thread_exited(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.live -= 1;
        self.cv.notify_all();
    }

    /// Model-aware join: block until `target` finishes. Returns `false`
    /// on passthrough degradation (caller then waits on `live`-style
    /// completion via the real slot).
    pub(crate) fn join(self: &Arc<Self>, tid: usize, target: usize) -> bool {
        if !self.switch_point(tid) {
            // Passthrough (unwinding): hand the token off so the
            // target can actually run to completion, then wait for it
            // without panicking.
            self.release_token_for_unwind(tid);
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if s.threads[target].status == Status::Finished {
                    return false;
                }
                let (g, _) = self
                    .cv
                    .wait_timeout(s, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                s = g;
            }
        }
        loop {
            {
                let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
                if s.aborting {
                    drop(s);
                    panic_abort();
                }
                if s.threads[target].status == Status::Finished {
                    return true;
                }
            }
            if !self.block(tid, BlockOn::Join(target)) {
                return false;
            }
        }
    }

    // -- executions --------------------------------------------------------

    /// Run one execution of `body`, optionally pinned to a replay
    /// trace. Blocks until every wrapper thread exited.
    pub(crate) fn run_one(
        self: &Arc<Self>,
        body: &Arc<dyn Fn() + Send + Sync>,
        replay: Option<Vec<usize>>,
    ) -> ExecOutcome {
        {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            s.threads.clear();
            s.threads.push(ThreadState::new(HASH_SEED));
            s.active = 0;
            s.cursor = 0;
            s.schedule.clear();
            s.replay = replay;
            s.objects.clear();
            s.mutex_owner.clear();
            s.preemptions = 0;
            s.stop_branching = false;
            s.aborting = false;
            s.failure = None;
            s.live = 1;
        }
        let me = Arc::clone(self);
        let b = Arc::clone(body);
        let root = std::thread::Builder::new()
            .name("exbox-loom-t0".into())
            .spawn(move || {
                set_ctx(Some((Arc::clone(&me), 0)));
                let r = panic::catch_unwind(AssertUnwindSafe(|| b()));
                let _ = me.thread_finished(0, r.err());
                set_ctx(None);
                me.thread_exited();
            })
            .expect("failed to spawn model root thread");

        // Wait for the execution to drain; a generous timeout guards
        // against model threads blocking outside the shims (which the
        // scheduler cannot see) turning a bug into a CI hang.
        let mut stalled = false;
        {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let mut quiet = 0u32;
            while s.live > 0 {
                let before = s.switches;
                let (g, timeout) = self
                    .cv
                    .wait_timeout(s, Duration::from_secs(5))
                    .unwrap_or_else(|e| e.into_inner());
                s = g;
                if timeout.timed_out() && s.switches == before && s.live > 0 {
                    quiet += 1;
                    if quiet >= 2 {
                        stalled = true;
                        self.fail(
                            &mut s,
                            "model execution stalled (a thread blocked \
                             outside the shims?)"
                                .into(),
                        );
                        break;
                    }
                } else {
                    quiet = 0;
                }
            }
        }
        let _ = root.join();
        let handles: Vec<_> = {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut s.os_handles)
        };
        for h in handles {
            if stalled {
                // Detached on purpose: a genuinely stuck thread would
                // block the join forever. The failure already reports.
                continue;
            }
            let _ = h.join();
        }
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.executions += 1;
        ExecOutcome {
            failure: s.failure.take(),
        }
    }

    /// Advance the DFS path to the next unexplored schedule. Returns
    /// `false` when the space (within bounds) is exhausted.
    pub(crate) fn backtrack(&self) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let bound = self.cfg.preemptions;
            let Some(last) = s.path.last_mut() else {
                return false;
            };
            let mut next = last.chosen + 1;
            let mut advanced = false;
            while next < last.candidates.len() {
                let cand = last.candidates[next];
                let preempt = last.prev_runnable && cand != last.prev;
                let spend = last.preempts_before + usize::from(preempt);
                if bound.is_none_or(|b| spend <= b) {
                    last.chosen = next;
                    advanced = true;
                    break;
                }
                next += 1;
            }
            if advanced {
                return true;
            }
            s.path.pop();
        }
    }
}

fn payload_msg(p: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Trace encoding
// ---------------------------------------------------------------------------

/// `v1:0.1.0.2...` — chosen model-thread id at each switch point.
pub(crate) fn encode_trace(schedule: &[usize]) -> String {
    let mut out = String::with_capacity(3 + schedule.len() * 2);
    out.push_str("v1:");
    for (i, t) in schedule.iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        out.push_str(&t.to_string());
    }
    out
}

/// Tolerant decoder: unknown versions or malformed fields decode to an
/// empty pin (the replay then follows the default schedule).
pub(crate) fn decode_trace(trace: &str) -> Vec<usize> {
    let body = match trace.trim().strip_prefix("v1:") {
        Some(b) => b,
        None => return Vec::new(),
    };
    body.split('.')
        .filter_map(|f| f.trim().parse::<usize>().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_roundtrip() {
        let sched = vec![0, 1, 0, 2, 17];
        assert_eq!(decode_trace(&encode_trace(&sched)), sched);
        assert_eq!(encode_trace(&sched), "v1:0.1.0.2.17");
        assert!(decode_trace("v2:0.1").is_empty());
        assert!(decode_trace("garbage").is_empty());
    }

    #[test]
    fn mix_spreads() {
        let a = mix(HASH_SEED, 1);
        let b = mix(HASH_SEED, 2);
        assert_ne!(a, b);
        assert_ne!(mix(a, 2), mix(b, 1));
    }
}
