//! The measuring thread's on-CPU time, and a gauge of the core's clock
//! rate.
//!
//! Jobs are single-threaded computations that never wait on I/O, so on
//! an uncontended host their on-CPU time is their latency. On a shared
//! virtual machine the wall clock also counts the time the hypervisor
//! takes the vCPU away (steal time, 10–30% of a second at times on the
//! reference host), which the thread CPU clock leaves out.
//!
//! The CPU clock does not remove the rest of the host's noise. On the
//! reference host the core's clock rate drifts over minutes with the load
//! of other tenants, and every job's CPU time with it. [`clock_probe_ns`]
//! times a fixed chain of dependent integer operations that touches no
//! memory, so its time follows the clock rate alone.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the thread CPU clock of 64-bit Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds this thread has run on a CPU.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which std already links;
    // `ts` is a live, writable `timespec` with the 64-bit Linux layout
    // declared above, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is always available on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds for a fixed chain of 2 million dependent xorshift
/// steps (about 5 ms on the reference host). It uses registers only: no
/// memory, no allocation, nothing the code under test shares, so its time
/// moves only with the speed of the core it runs on.
pub fn clock_probe_ns() -> u64 {
    let start = thread_cpu_ns();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
    let mut acc = 0u64;
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.rotate_left(7));
    }
    std::hint::black_box(acc);
    thread_cpu_ns() - start
}
