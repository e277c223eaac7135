//! CPU placement: every workload runs the whole process — generator,
//! callers, reactor, shard workers, daemon — on one CPU.
//!
//! On a small shared virtual machine a wake-up sent to an idle virtual
//! CPU can take milliseconds, and the second virtual CPU's speed
//! varies with the host's load. Spread over two CPUs, tail latency and
//! peak throughput measured those effects more than the program (see
//! the benchmark's README for the figures); on one CPU they measure the
//! program's CPU cost per request.

use std::sync::OnceLock;

const SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();

/// The CPUs the process could run on when this was first called (the
/// first call precedes any pinning).
pub fn allowed() -> &'static [usize] {
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; SET_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc < 0 {
            return Vec::new();
        }
        (0..SET_WORDS * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    })
}

/// Restricts the calling thread, and threads it spawns afterwards, to
/// the first allowed CPU. Best effort: placement steadies the numbers
/// but is not needed for correctness.
pub fn pin() {
    let Some(&cpu) = allowed().first() else {
        return;
    };
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}
