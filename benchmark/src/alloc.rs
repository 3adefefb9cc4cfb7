//! Heap accounting for `heap_peak_mib`, `alloc.count` and `alloc.mib`.
//!
//! A global allocator is a property of the final binary, so it lives in
//! this package and taxes nothing in the repository's own binaries. It
//! forwards every call to [`System`], `realloc` and `alloc_zeroed`
//! included (so growing buffers keep `System`'s in-place `realloc` and
//! zeroed ones its `calloc`), and keeps four statistics. They publish no
//! other data, so `Relaxed` suffices: each counter is read only after
//! the work it measures has finished on the reading thread
//! (single-threaded phases) or after the pool's scoped workers joined.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The benchmark's global allocator.
#[global_allocator]
static ALLOC: Counting = Counting::new();

/// Forwards to [`System`], counting allocations, bytes, live and peak.
/// A `realloc` counts as one allocation of its new size.
pub struct Counting {
    count: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

fn size(bytes: usize) -> u64 {
    u64::try_from(bytes).unwrap_or(u64::MAX)
}

impl Counting {
    /// An allocator with every statistic at zero.
    pub const fn new() -> Counting {
        Counting {
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Books an allocation of `new` bytes that replaced `old` live bytes.
    fn record(&self, old: u64, new: u64) {
        self.count.fetch_add(1, Relaxed);
        self.bytes.fetch_add(new, Relaxed);
        let live = if new >= old {
            self.live.fetch_add(new - old, Relaxed) + (new - old)
        } else {
            self.live.fetch_sub(old - new, Relaxed) - (old - new)
        };
        self.peak.fetch_max(live, Relaxed);
    }

    /// Allocation totals now.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            count: self.count.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
        }
    }

    /// Starts a new peak window at the current live heap.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    /// Highest live heap, in bytes, since the last [`Counting::reset_peak`].
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Relaxed)
    }
}

// The one `unsafe` in this package: implementing `GlobalAlloc` is an
// unsafe trait contract.
// SAFETY: every method defers to `System` with the caller's own pointer,
// layout and size, so `System`'s contract is the caller's contract. The
// bookkeeping is plain atomics and never allocates, so it cannot recurse.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout contract the caller gave us.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.record(0, size(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout contract the caller gave us.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.record(0, size(layout.size()));
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; the caller upholds `new_size`'s contract.
        let grown = unsafe { System.realloc(ptr, layout, new_size) };
        if !grown.is_null() {
            self.record(size(layout.size()), size(new_size));
        }
        grown
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(size(layout.size()), Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation totals since process start.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Allocations performed.
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Snapshot {
    /// Totals now.
    pub fn now() -> Snapshot {
        ALLOC.snapshot()
    }

    /// What happened between `self` and `later`.
    pub fn until(self, later: Snapshot) -> Snapshot {
        Snapshot {
            count: later.count.saturating_sub(self.count),
            bytes: later.bytes.saturating_sub(self.bytes),
        }
    }
}

/// Starts a new peak window at the current live heap.
pub fn reset_peak() {
    ALLOC.reset_peak();
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    ALLOC.peak_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A buffer grown by `realloc` far past glibc's mmap threshold
    /// (128 KiB), then shrunk and freed, through an allocator of its own
    /// so other tests' allocations do not mix in.
    #[test]
    #[allow(unsafe_code)]
    fn realloc_and_zeroed_blocks_are_booked_at_their_size() {
        const MIB: usize = 1 << 20;
        let a = Counting::new();
        let small = Layout::from_size_align(4096, 8).expect("valid layout");
        // SAFETY: every pointer goes back to `a` with the layout and size
        // it was last given.
        unsafe {
            let p = a.alloc(small);
            assert!(!p.is_null());
            p.write_bytes(7, 4096);
            let p = a.realloc(p, small, 64 * MIB);
            assert!(!p.is_null());
            assert_eq!(p.read(), 7, "realloc kept the contents");
            assert_eq!((a.live.load(Relaxed), a.peak_bytes()), (64 << 20, 64 << 20));
            let big = Layout::from_size_align(64 * MIB, 8).expect("valid layout");
            let p = a.realloc(p, big, MIB);
            assert_eq!(a.live.load(Relaxed), 1 << 20);
            a.dealloc(p, Layout::from_size_align(MIB, 8).expect("valid layout"));

            let z = a.alloc_zeroed(big);
            assert!(!z.is_null());
            assert_eq!(z.add(64 * MIB - 1).read(), 0);
            a.dealloc(z, big);
        }
        let s = a.snapshot();
        assert_eq!(a.live.load(Relaxed), 0);
        assert_eq!(s.count, 4);
        assert_eq!(s.bytes, size(4096 + 64 * MIB + MIB + 64 * MIB));
        assert_eq!(a.peak_bytes(), 64 << 20);
    }
}
