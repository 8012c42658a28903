//! A counting global allocator for the traced run. Only the
//! `perfbench-trace` binary installs it; the end-to-end binary runs on the
//! plain system allocator. Counting is off until [`set_counting`] turns it
//! on, so the traced run can time an untraced reference build in the same
//! process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting bytes allocated and freed while
/// counting is on.
pub struct CountingAlloc;

/// Turn byte counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Bytes allocated so far while counting was on.
pub fn allocated() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Bytes freed so far while counting was on.
pub fn freed() -> u64 {
    FREED.load(Ordering::Relaxed)
}

#[inline]
fn add(counter: &AtomicU64, bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        counter.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so the `GlobalAlloc` contract holds exactly as it does for
// `System`; the counters are plain atomics touched after the call.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            add(&ALLOCATED, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            add(&ALLOCATED, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        add(&FREED, layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned for `layout`
        // and a valid `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                add(&ALLOCATED, new_size - layout.size());
            } else {
                add(&FREED, layout.size() - new_size);
            }
        }
        p
    }
}
