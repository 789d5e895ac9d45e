//! A counting [`GlobalAlloc`] wrapper: live heap bytes plus their
//! high-water mark, behind two relaxed atomics per allocation.
//!
//! The bench binaries install [`TrackingAllocator`] with
//! `#[global_allocator]` and bracket a measured region with
//! [`reset_peak`] / [`peak_bytes`]. Because the workloads are
//! deterministic (fixed seeds, no wall-clock-dependent allocation), the
//! recorded high-water mark is reproducible run over run and machine
//! over machine — tight enough to commit as a ceiling that
//! `bench_trend` gates CI against (the streaming-ingestion flat-memory
//! contract).
//!
//! Accounting is by requested [`Layout`] size, not allocator-internal
//! bucket size: the number measures what the code asked for, which is
//! the quantity a streaming refactor controls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// System-allocator wrapper that tracks live bytes and their high-water
/// mark. Install with `#[global_allocator]`; read through the
/// free functions in this module.
pub struct TrackingAllocator;

/// Live heap bytes right now.
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed) as u64
}

/// The high-water mark of live bytes since the last [`reset_peak`] (or
/// process start).
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed) as u64
}

/// Restart the high-water mark at the current live-byte count, so the
/// next [`peak_bytes`] read reports the peak of the region that follows.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn grow(n: usize) {
    let now = CURRENT.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(n: usize) {
    CURRENT.fetch_sub(n, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Mutex;

    // The allocator is not installed as the test harness's global, so the
    // counters only move through direct calls here — but other tests in
    // this binary share the statics, so assertions stay one-sided.
    //
    // The tests below run in parallel threads by default and move the
    // same statics, so each holds this lock: one test's 1 MiB block would
    // otherwise land inside another's 4 KiB bound.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn tracks_live_bytes_and_peak() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let a = TrackingAllocator;
        let layout = Layout::from_size_align(1 << 20, 8).unwrap();
        reset_peak();
        let before = current_bytes();
        unsafe {
            let ptr = a.alloc(layout);
            assert!(!ptr.is_null());
            assert!(current_bytes() >= before + (1 << 20));
            assert!(peak_bytes() >= before + (1 << 20));
            a.dealloc(ptr, layout);
        }
        assert!(current_bytes() < before + (1 << 20));
        // The peak survives the dealloc until the next reset.
        assert!(peak_bytes() >= before + (1 << 20));
    }

    #[test]
    fn realloc_accounts_the_delta() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let a = TrackingAllocator;
        let layout = Layout::from_size_align(4096, 8).unwrap();
        unsafe {
            let ptr = a.alloc(layout);
            assert!(!ptr.is_null());
            let before = current_bytes();
            let grown = a.realloc(ptr, layout, 8192);
            assert!(!grown.is_null());
            assert!(current_bytes() >= before + 4096);
            a.dealloc(grown, Layout::from_size_align(8192, 8).unwrap());
            assert!(current_bytes() < before + 4096);
        }
    }
}
