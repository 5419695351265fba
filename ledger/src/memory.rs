//! Memory accounting: the peak of live heap bytes, from a counting global
//! allocator, and the kernel's peak resident set.
//!
//! The heap peak is what the ledger gates on. Peak RSS also counts memory
//! the allocator has freed but kept, and glibc's adaptive mmap and trim
//! thresholds make that jump: on `fleet-stream` it reads 162 MiB or 184 MiB
//! depending on small differences between seeds' data. The live-byte peak
//! has no such cliff and moves only with what the program allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Forwards to the system allocator, counting live bytes and their peak.
/// The counters are statistics that publish no other data, so `Relaxed`.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns `System`'s result unchanged, so `System`'s guarantees are the
// allocator's; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` with `layout`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Restarts both peaks from what is in use now: the heap peak from the live
/// bytes, the kernel's peak RSS by writing `5` to `/proc/self/clear_refs`.
/// Returns whether the RSS reset worked.
pub fn reset_peaks() -> bool {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak live heap bytes since the last reset, in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// The kernel's peak RSS (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_held_allocation_raises_the_heap_peak() {
        // Other tests may reset the peak concurrently, but never below the
        // live bytes, which include this block while it is held.
        let block = vec![1u8; 64 << 20];
        assert!(peak_heap_mib() >= 64.0, "{}", peak_heap_mib());
        drop(block);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
