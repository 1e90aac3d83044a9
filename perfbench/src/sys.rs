//! What the benchmark needs from the kernel and libc that `std` does not
//! expose: a readiness wait with sub-millisecond timeouts, thread pinning
//! and timer slack for the generator, and a resettable peak resident set
//! size.

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!("perfbench needs 64-bit Linux with glibc (ppoll, malloc_trim, clear_refs)");

use std::ffi::c_void;

/// Readable.
pub const POLLIN: i16 = 0x001;
/// Writable.
pub const POLLOUT: i16 = 0x004;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const c_void) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Run the calling thread on `core` only (best effort: a core outside
/// the set the process may use leaves the thread where it was).
pub fn pin_to_core(core: usize) {
    // glibc's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    if let Some(word) = mask.get_mut(core / 64) {
        *word |= 1 << (core % 64);
    }
    // SAFETY: `mask` is a live 128-byte cpu_set_t for the whole call;
    // pid 0 is the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// `prctl` option that sets the calling thread's timer slack.
const PR_SET_TIMERSLACK: i32 = 29;

/// Have the kernel wake the calling thread's timed waits within 1 ns of
/// their deadline instead of the default 50 µs slack, so the generator
/// sends on schedule.
pub fn tight_timers() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and affects only the
    // calling thread; unused arguments are zero as the ABI expects.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Wait until `fd` is ready for `events` or `timeout_ns` has passed.
/// Spurious and interrupted wakeups are harmless: callers re-check
/// their own state after every return.
pub fn poll_one(fd: i32, events: i16, timeout_ns: u64) {
    let mut entry = PollFd { fd, events, revents: 0 };
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `entry` and `ts` are live, correctly laid-out values for
    // the whole call; nfds = 1 matches the single entry; a null sigmask
    // leaves the signal mask unchanged.
    unsafe {
        ppoll(&mut entry, 1, &ts, std::ptr::null());
    }
}

/// Start a new peak: hand freed heap pages back to the kernel, so
/// earlier work's leftovers do not count, then have the kernel set this
/// process's `VmHWM` to its current resident set size.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: malloc_trim only releases free heap memory; it takes no
    // pointers and is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// This process's `VmHWM` in MiB: the peak resident set size since the
/// last [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read VmHWM: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
