//! Machine-speed calibration for the reported CPU times.
//!
//! On a shared host the CPU time of identical work drifts by tens of
//! percent within seconds to minutes, as neighbours contend for the caches
//! and memory the process shares with them. A short fixed kernel that uses
//! only the standard library, so that no change to the library under test
//! can move it, is timed between the designs of every measured round, and
//! the round's CPU time is scaled by [`REFERENCE_S`] over the kernel's mean
//! time: CPU seconds at the speed the host runs when the kernel takes
//! [`REFERENCE_S`].
//!
//! The kernel fills and probes a hash table of about 4.5 MB, larger than a
//! core's L2 cache, so like the synthesis flow it is bound by hashing and
//! cache misses. Its table is one large allocation, returned to the system
//! when the kernel ends, so it leaves nothing behind in the resident set.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;

use crate::sys::thread_cpu_ns;

/// Kernel CPU time that defines the reference speed, s: about its time on
/// a quiet 2-vCPU Sapphire Rapids KVM guest.
pub const REFERENCE_S: f64 = 0.025;

/// Runs the kernel once on the calling thread and returns its thread CPU
/// time in seconds.
pub fn kernel_s() -> f64 {
    let start = thread_cpu_ns();
    // A fixed-key hasher, so every run builds the same table.
    let mut table: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % (1 << 20)
    };
    for i in 0..150_000_u32 {
        *table.entry(next()).or_insert(0.0) += f64::from(i).sqrt();
    }
    let mut acc = 0.0;
    for i in 0..300_000_u32 {
        if let Some(value) = table.get(&next()) {
            acc += value.ln_1p() * f64::from(i);
        }
    }
    black_box(acc);
    drop(black_box(table));
    (thread_cpu_ns() - start) as f64 / 1e9
}

/// The factor that turns CPU time measured while the kernel took
/// `kernel_s` into reference seconds.
pub fn scale(kernel_s: f64) -> f64 {
    if kernel_s > 0.0 {
        REFERENCE_S / kernel_s
    } else {
        1.0
    }
}
