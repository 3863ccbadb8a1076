//! Process CPU time to the nanosecond. `/proc/self/stat` counts in
//! 10 ms ticks, coarser than a slice; the standard library has no
//! process CPU clock, so this calls the C library's.

#![allow(unsafe_code)]

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux: user plus system time of every
/// thread of the process, exited ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the `cfg` above pins), and the
    // call writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the process CPU clock is always readable");
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}
