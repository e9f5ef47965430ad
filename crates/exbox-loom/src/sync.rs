//! Shimmed `std::sync` lookalikes.
//!
//! Every type here wraps the real `std::sync` primitive and adds a
//! model-checking protocol on top: when the calling OS thread is a
//! model thread (registered in the explorer's thread-local context),
//! each operation is a scheduler switch point and its effect is mixed
//! into the execution's state fingerprint. Outside a model the types
//! degrade to a zero-bookkeeping passthrough on the inner primitive,
//! which is what makes the workspace's `--cfg exbox_loom` builds run
//! their ordinary unit tests unchanged.
//!
//! API-subset differences from `std::sync` (the `exbox-proptest`
//! convention of documenting divergence):
//!
//! - **Orderings are accepted and ignored** — the model explores
//!   sequentially-consistent interleavings only. This is sound *and*
//!   complete for the workspace's ported primitives because they use
//!   `SeqCst` exclusively (checked by DESIGN.md §9).
//! - **`Mutex` never poisons**: `lock()` always returns `Ok`, even
//!   after a panic in a critical section. Callers written against
//!   std's API (`.lock().expect(..)`) compile and behave identically
//!   on the non-poisoned path.
//! - No condition variable and no `RwLock` are provided (the
//!   workspace uses neither on a modelled path).

use std::sync::OnceLock;

use crate::explorer::{ctx, mix, Explorer};

pub use std::sync::atomic::Ordering;

use std::sync::Arc as StdArc;

// Op tags mixed into rolling hashes.
const OP_LOAD: u64 = 0x11;
const OP_STORE: u64 = 0x12;
const OP_RMW: u64 = 0x13;
const OP_CAS: u64 = 0x14;

/// Lazily-assigned execution-stable object identity.
#[derive(Default)]
struct ObjId(OnceLock<u64>);

impl ObjId {
    const fn new() -> Self {
        ObjId(OnceLock::new())
    }

    fn get(&self, ex: &Explorer, tid: usize) -> u64 {
        *self.0.get_or_init(|| ex.alloc_obj_id(tid))
    }
}

macro_rules! atomic_shim {
    ($name:ident, $inner:path, $prim:ty) => {
        /// Model-aware drop-in for the std atomic of the same name.
        pub struct $name {
            inner: $inner,
            id: ObjId,
        }

        impl $name {
            pub const fn new(v: $prim) -> Self {
                $name {
                    inner: <$inner>::new(v),
                    id: ObjId::new(),
                }
            }

            #[inline]
            fn hooked<R>(
                &self,
                op: u64,
                f: impl FnOnce(&$inner) -> R,
                obs: impl Fn(&R) -> u64,
                wrote: bool,
            ) -> R {
                match ctx() {
                    None => f(&self.inner),
                    Some((ex, tid)) => {
                        let _ = ex.switch_point(tid);
                        let r = f(&self.inner);
                        let id = self.id.get(&ex, tid);
                        ex.note(tid, id, op, obs(&r), wrote);
                        r
                    }
                }
            }

            pub fn load(&self, _o: Ordering) -> $prim {
                self.hooked(OP_LOAD, |a| a.load(Ordering::SeqCst), |v| *v as u64, false)
            }

            pub fn store(&self, val: $prim, _o: Ordering) {
                self.hooked(
                    OP_STORE,
                    |a| a.store(val, Ordering::SeqCst),
                    |_| val as u64,
                    true,
                )
            }

            pub fn swap(&self, val: $prim, _o: Ordering) -> $prim {
                self.hooked(
                    OP_RMW,
                    |a| a.swap(val, Ordering::SeqCst),
                    |old| mix(*old as u64, val as u64),
                    true,
                )
            }

            pub fn fetch_add(&self, val: $prim, _o: Ordering) -> $prim {
                self.hooked(
                    OP_RMW,
                    |a| a.fetch_add(val, Ordering::SeqCst),
                    |old| (old.wrapping_add(val)) as u64,
                    true,
                )
            }

            pub fn fetch_sub(&self, val: $prim, _o: Ordering) -> $prim {
                self.hooked(
                    OP_RMW,
                    |a| a.fetch_sub(val, Ordering::SeqCst),
                    |old| (old.wrapping_sub(val)) as u64,
                    true,
                )
            }

            pub fn fetch_max(&self, val: $prim, _o: Ordering) -> $prim {
                self.hooked(
                    OP_RMW,
                    |a| a.fetch_max(val, Ordering::SeqCst),
                    |old| (*old).max(val) as u64,
                    true,
                )
            }

            pub fn fetch_min(&self, val: $prim, _o: Ordering) -> $prim {
                self.hooked(
                    OP_RMW,
                    |a| a.fetch_min(val, Ordering::SeqCst),
                    |old| (*old).min(val) as u64,
                    true,
                )
            }

            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                _success: Ordering,
                _failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.hooked(
                    OP_CAS,
                    |a| a.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst),
                    |r| match r {
                        Ok(_) => mix(1, new as u64),
                        Err(seen) => mix(2, *seen as u64),
                    },
                    true,
                )
            }

            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                // The model never fails spuriously: weak == strong.
                self.compare_exchange(current, new, success, failure)
            }

            /// A single atomic step in the model (one switch point),
            /// matching the std signature.
            pub fn fetch_update<F>(
                &self,
                _set: Ordering,
                _fetch: Ordering,
                mut f: F,
            ) -> Result<$prim, $prim>
            where
                F: FnMut($prim) -> Option<$prim>,
            {
                self.hooked(
                    OP_RMW,
                    |a| a.fetch_update(Ordering::SeqCst, Ordering::SeqCst, &mut f),
                    |r| match r {
                        Ok(old) => mix(3, *old as u64),
                        Err(old) => mix(4, *old as u64),
                    },
                    true,
                )
            }

            /// `&mut self` proves exclusivity: always a passthrough.
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(Default::default())
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                std::fmt::Debug::fmt(&self.inner, f)
            }
        }

        impl From<$prim> for $name {
            fn from(v: $prim) -> Self {
                Self::new(v)
            }
        }
    };
}

atomic_shim!(AtomicU32, std::sync::atomic::AtomicU32, u32);
atomic_shim!(AtomicU64, std::sync::atomic::AtomicU64, u64);
atomic_shim!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// Model-aware drop-in for `std::sync::atomic::AtomicBool`.
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
    id: ObjId,
}

impl AtomicBool {
    pub const fn new(v: bool) -> Self {
        AtomicBool {
            inner: std::sync::atomic::AtomicBool::new(v),
            id: ObjId::new(),
        }
    }

    #[inline]
    fn hooked<R>(
        &self,
        op: u64,
        f: impl FnOnce(&std::sync::atomic::AtomicBool) -> R,
        obs: impl Fn(&R) -> u64,
        wrote: bool,
    ) -> R {
        match ctx() {
            None => f(&self.inner),
            Some((ex, tid)) => {
                let _ = ex.switch_point(tid);
                let r = f(&self.inner);
                let id = self.id.get(&ex, tid);
                ex.note(tid, id, op, obs(&r), wrote);
                r
            }
        }
    }

    pub fn load(&self, _o: Ordering) -> bool {
        self.hooked(OP_LOAD, |a| a.load(Ordering::SeqCst), |v| *v as u64, false)
    }

    pub fn store(&self, val: bool, _o: Ordering) {
        self.hooked(
            OP_STORE,
            |a| a.store(val, Ordering::SeqCst),
            |_| val as u64,
            true,
        )
    }

    pub fn swap(&self, val: bool, _o: Ordering) -> bool {
        self.hooked(
            OP_RMW,
            |a| a.swap(val, Ordering::SeqCst),
            |old| mix(*old as u64, val as u64),
            true,
        )
    }

    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        _s: Ordering,
        _f: Ordering,
    ) -> Result<bool, bool> {
        self.hooked(
            OP_CAS,
            |a| a.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst),
            |r| match r {
                Ok(_) => mix(1, new as u64),
                Err(seen) => mix(2, *seen as u64),
            },
            true,
        )
    }

    pub fn get_mut(&mut self) -> &mut bool {
        self.inner.get_mut()
    }
}

impl Default for AtomicBool {
    fn default() -> Self {
        Self::new(false)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.inner, f)
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Result alias matching std's shape; the shim never returns `Err`.
pub type LockResult<G> = Result<G, std::sync::PoisonError<G>>;

/// Model-aware drop-in for `std::sync::Mutex<T>`.
pub struct Mutex<T: ?Sized> {
    id: ObjId,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(v: T) -> Self {
        Mutex {
            id: ObjId::new(),
            inner: std::sync::Mutex::new(v),
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.inner.into_inner().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let sched = match ctx() {
            None => None,
            Some((ex, tid)) => {
                let id = self.id.get(&ex, tid);
                ex.mutex_lock(tid, id);
                Some((ex, tid, id))
            }
        };
        // Under the model protocol the inner mutex is uncontended
        // (ownership was granted by the scheduler); outside a model
        // this is the real blocking acquire.
        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        Ok(MutexGuard {
            inner: Some(g),
            sched,
        })
    }

    pub fn try_lock(
        &self,
    ) -> Result<MutexGuard<'_, T>, std::sync::TryLockError<MutexGuard<'_, T>>> {
        match ctx() {
            None => match self.inner.try_lock() {
                Ok(g) => Ok(MutexGuard {
                    inner: Some(g),
                    sched: None,
                }),
                Err(std::sync::TryLockError::Poisoned(e)) => Ok(MutexGuard {
                    inner: Some(e.into_inner()),
                    sched: None,
                }),
                Err(std::sync::TryLockError::WouldBlock) => {
                    Err(std::sync::TryLockError::WouldBlock)
                }
            },
            Some(_) => {
                // In a model, the only correct non-blocking probe is
                // through the scheduler; the workspace's modelled code
                // never uses try_lock, so keep the surface minimal.
                unimplemented!("exbox-loom Mutex::try_lock inside a model")
            }
        }
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(self.inner.get_mut().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug + ?Sized> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.inner, f)
    }
}

/// Guard pairing the real `std` guard with the model unlock protocol.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    sched: Option<(StdArc<Explorer>, usize, u64)>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first, then run the model protocol so
        // a woken waiter's uncontended inner acquire succeeds.
        drop(self.inner.take());
        if let Some((ex, tid, id)) = self.sched.take() {
            ex.mutex_unlock(tid, id);
        }
    }
}

/// Re-export: modelled code keeps using the real `Arc` — the model
/// runs on real OS threads, so real reference counting is both sound
/// and invisible to the scheduler (no shared-memory *protocol* rides
/// on it after the PR-9 reclamation fix).
pub use std::sync::Arc;
