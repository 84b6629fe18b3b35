//! The counting global allocator of the memory tests: it counts every
//! allocation and reallocation, and tracks the bytes live and their peak.
//!
//! A test binary that installs it holds a single test, because the
//! allocator sees every thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations and reallocations so far.
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Start a new peak measurement; returns the bytes live now, which
/// [`peak_above`] measures from.
#[allow(dead_code)] // not every test binary measures a peak
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The most bytes live at once since [`reset_peak`] returned `base`, less
/// `base`.
#[allow(dead_code)]
pub fn peak_above(base: u64) -> u64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

/// Bytes live now.
#[allow(dead_code)]
pub fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}
