//! Process probes read without new dependencies: CPU clocks through the C
//! library std already links, peak resident set and steal time from
//! `/proc`, and the provenance every result records.

use std::fs;
use std::io;
use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("fig13bench reads Linux /proc files and the 64-bit Linux timespec layout");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD` parameter.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pins glibc's mmap threshold at its initial 128 KiB. By default glibc
/// raises the threshold the first time a large mmapped block is freed, and
/// whether and when that happens depends on the allocation sequence — so
/// peak RSS of identical-size work falls into one of two modes depending
/// on the inputs. Pinned, every large block is mapped and unmapped on
/// demand and peak RSS follows live memory.
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` only updates allocator parameters; it is called
    // before the program allocates anything large and with a valid
    // parameter id and value.
    let rc = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(rc, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux, checked by the `compile_error!` above) and both clock
    // ids are valid on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of every thread of this process since it started, in ns.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread since it started, in ns.
pub fn thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Resets the kernel's peak-RSS watermark to the current resident set, so a
/// later [`peak_rss_bytes`] sees only what came after.
///
/// # Errors
///
/// Propagates the write error (the file exists on every Linux since 4.0).
pub fn reset_peak_rss() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set (`VmHWM`) since start or the last [`reset_peak_rss`].
///
/// # Errors
///
/// Propagates read errors and reports a missing or malformed field.
pub fn peak_rss_bytes() -> io::Result<u64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Clock ticks the kernel reports per second in `/proc/stat` (`USER_HZ`,
/// 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// Machine-wide steal time so far, summed over CPUs, in seconds.
///
/// # Errors
///
/// Propagates read errors and reports a malformed `cpu` line.
pub fn steal_s() -> io::Result<f64> {
    let stat = fs::read_to_string("/proc/stat")?;
    // cpu user nice system idle iowait irq softirq steal ...
    stat.lines()
        .next()
        .filter(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<u64>().ok())
        .map(|ticks| ticks as f64 / USER_HZ)
        .ok_or_else(|| io::Error::other("malformed cpu line in /proc/stat"))
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit of the checkout at `root`: `HEAD` resolved through loose and
/// packed refs when `root/.git` exists, otherwise a digest of the
/// repository's library sources (`src:<hex>`), so a result taken in an
/// exported tree still names the code it measured.
pub fn commit(root: &Path) -> String {
    git_head(&root.join(".git")).unwrap_or_else(|| format!("src:{:016x}", source_digest(root)))
}

fn git_head(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over the relative path and bytes of every `.rs` and `Cargo.toml`
/// file under `root/crates` and `root/src`, visited in sorted order.
fn source_digest(root: &Path) -> u64 {
    fn visit(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                visit(&path, files);
            } else if path.extension().is_some_and(|ext| ext == "rs")
                || path.file_name().is_some_and(|name| name == "Cargo.toml")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    visit(&root.join("crates"), &mut files);
    visit(&root.join("src"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let name = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
        let bytes = fs::read(&path).unwrap_or_default();
        for &b in name.as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}
