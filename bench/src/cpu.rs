//! Process-level resource readings and placement: CPU time, peak
//! resident set, and the one-CPU-per-thread pins the passes run under.
//!
//! The ledger measures on 64-bit Linux (`sched_setaffinity`,
//! `clock_gettime`); elsewhere the crate still builds — `compare` and
//! `agree` work on reports from anywhere — and a measuring run is
//! refused at the first pin.

/// `struct timespec` of 64-bit Linux (`time_t` and `long` are 64 bits
/// wide there, which the `cfg`s below pin).
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// The kernel's `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Elsewhere every call is refused, as a restricted sandbox would.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod refused {
    use super::{CpuSet, Timespec};

    pub unsafe fn clock_gettime(_: i32, _: *mut Timespec) -> i32 {
        -1
    }
    pub unsafe fn sched_getaffinity(_: i32, _: usize, _: *mut CpuSet) -> i32 {
        -1
    }
    pub unsafe fn sched_setaffinity(_: i32, _: usize, _: *const CpuSet) -> i32 {
        -1
    }
}
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
use refused::{clock_gettime, sched_getaffinity, sched_setaffinity};

/// Confines the calling thread — and every thread it spawns while the
/// pin is held, which inherit it — to one CPU; dropping the pin gives
/// the thread its previous CPUs back.
///
/// On the reference box the scheduler moves an unpinned thread between
/// the two vCPUs, whose neighbours differ, from one second to the
/// next. Pinned, a repetition differs from the next only by what its
/// own CPU's neighbour did.
pub struct Pin {
    previous: CpuSet,
}

impl Pin {
    /// The CPUs the calling thread may run on, ascending. An error
    /// where the ledger cannot place threads at all.
    pub fn allowed() -> Result<Vec<usize>, String> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread; `mask` is a writable
        // buffer of the size passed with it.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
            return Err("sched_getaffinity was refused".into());
        }
        Ok((0..1024)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect())
    }

    /// An error when the kernel refuses (a restricted sandbox): an
    /// unpinned run measures another configuration, so there is none.
    pub fn to(cpu: usize) -> Result<Pin, String> {
        let size = std::mem::size_of::<CpuSet>();
        let refused = || format!("pinning to CPU {cpu} was refused");
        let mut previous: CpuSet = [0; 16];
        let mut only: CpuSet = [0; 16];
        *only.get_mut(cpu / 64).ok_or_else(refused)? = 1 << (cpu % 64);
        // SAFETY: pid 0 is the calling thread; `previous` is a writable
        // and `only` a readable buffer of the `size` bytes passed.
        let ok = unsafe {
            sched_getaffinity(0, size, &mut previous) == 0 && sched_setaffinity(0, size, &only) == 0
        };
        if ok {
            Ok(Pin { previous })
        } else {
            Err(refused())
        }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        // SAFETY: `previous` is a readable buffer of the size passed;
        // the mask is the one the kernel handed out, so a failure can
        // only leave the thread pinned, which is harmless.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.previous);
        }
    }
}

/// User + system CPU time this process (all threads) has consumed, ns.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is writable memory with the layout of the C
    // `struct timespec` on this target; clock_gettime only writes it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.sec as u64 * 1_000_000_000 + time.nsec as u64
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 1u64;
        while process_cpu_ns() - before < 20_000_000 {
            for i in 0..100_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        assert!(process_cpu_ns() > before);
        assert!(peak_rss_mb().expect("VmHWM on Linux") > 0.5);
    }

    #[test]
    fn pin_confines_spawned_threads_and_is_undone_on_drop() {
        // The test runs on a thread of its own, so the pin is its alone.
        let before = Pin::allowed().unwrap();
        let last = *before.last().expect("a thread may run somewhere");
        let pin = Pin::to(last).expect("an unrestricted test machine");
        assert_eq!(Pin::allowed().unwrap(), [last]);
        let spawned = std::thread::spawn(Pin::allowed).join().unwrap();
        assert_eq!(spawned.unwrap(), [last]);
        drop(pin);
        assert_eq!(Pin::allowed().unwrap(), before);
        assert!(Pin::to(1023).is_err(), "no such CPU here");
        assert_eq!(Pin::allowed().unwrap(), before);
    }
}
