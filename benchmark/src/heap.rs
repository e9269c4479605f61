//! Live heap bytes, counted at the global allocator.
//!
//! The resident set of a multi-threaded run depends on how the system
//! allocator's per-thread arenas happen to fragment, so its high-water mark
//! differs between two runs of one seed by a fifth. The peak of live heap
//! bytes is what the program itself holds, and repeats.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes it has handed out and not
/// taken back. Statistics only: `Relaxed` publishes nothing else.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread runs [`uncounted`] work.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Run `work` without counting what it allocates and frees. A block it
/// allocates must be freed in uncounted work too.
pub fn uncounted<T>(work: impl FnOnce() -> T) -> T {
    UNCOUNTED.with(|flag| flag.set(true));
    let result = work();
    UNCOUNTED.with(|flag| flag.set(false));
    result
}

fn counted() -> bool {
    !UNCOUNTED.with(Cell::get)
}

fn grew(bytes: usize) {
    if !counted() {
        return;
    }
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if !counted() {
        return;
    }
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting around the calls touches
// only two atomics and a thread-local flag and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (so
        // from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through as is.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// The most live heap bytes at any moment since the start or the last
/// [`reset_peak`], in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Start a new peak from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_covers_what_is_live() {
        // Tests share the counters and may reset the peak concurrently; a
        // reset starts from the live bytes, so this bound holds regardless.
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_mb() >= 64.0);
        reset_peak();
        assert!(peak_mb() >= 64.0);
    }

    #[test]
    fn uncounted_work_leaves_the_live_bytes_alone() {
        // Other tests allocate concurrently, but none holds 256 MB. Zeroed
        // pages stay untouched, so the block costs no memory.
        let before = LIVE.load(Ordering::Relaxed);
        let block = uncounted(|| vec![0u8; 256 << 20]);
        std::hint::black_box(&block);
        assert!(LIVE.load(Ordering::Relaxed) < before + (256 << 20));
        uncounted(|| drop(block));
    }
}
