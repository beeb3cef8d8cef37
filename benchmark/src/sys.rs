//! Process resource usage: CPU time of all threads and peak resident set
//! size, from `getrusage(RUSAGE_SELF)` (the standard library already
//! links the C library, so no crate is needed).

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s
/// of which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `r` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage`, which getrusage fills and does not retain.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    r
}

/// User + system CPU seconds consumed so far by every thread of this
/// process.
pub fn cpu_s() -> f64 {
    let r = rusage();
    let us = (r.utime.sec + r.stime.sec) * 1_000_000 + r.utime.usec + r.stime.usec;
    us as f64 / 1e6
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().maxrss as f64 / 1024.0
}
