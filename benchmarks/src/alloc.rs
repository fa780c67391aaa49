//! Counting global allocator: heap allocations and live bytes, kept in
//! per-thread slots so the count itself does not make the driver and
//! the runtime threads fight over one cache line.
//!
//! Slot 0 belongs to the driver thread ([`mark_driver`]); every other
//! thread takes one of the remaining slots on its first allocation.
//! `allocs_per_txn` sums the non-driver slots, live bytes sum all of
//! them (memory allocated by the driver is usually freed or retained
//! by a runtime thread, so only the grand total is meaningful).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

const SLOTS: usize = 16;
const UNASSIGNED: usize = usize::MAX;

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    allocated: AtomicU64,
    freed: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    allocs: AtomicU64::new(0),
    allocated: AtomicU64::new(0),
    freed: AtomicU64::new(0),
};
static COUNTS: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates and never observes a
    // destroyed value.
    static MY_SLOT: Cell<usize> = const { Cell::new(UNASSIGNED) };
}

fn slot() -> &'static Slot {
    let i = MY_SLOT
        .try_with(|s| {
            if s.get() == UNASSIGNED {
                s.set(1 + NEXT_THREAD.fetch_add(1, Relaxed) % (SLOTS - 1));
            }
            s.get()
        })
        .unwrap_or(1);
    &COUNTS[i]
}

/// Declare the calling thread the driver: its allocations are left out
/// of [`Snapshot::runtime_allocs`].
pub fn mark_driver() {
    MY_SLOT.with(|s| s.set(0));
}

/// Tell glibc's malloc to keep freed memory mapped instead of handing
/// it back to the kernel. Every epoch builds and frees some 170 MB;
/// returned and re-faulted each time, that page-fault churn (expensive
/// and erratic in a guest) doubled the run-to-run spread of the timing
/// metrics (README, "Noise"). A no-op off glibc.
pub fn keep_heap_mapped() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores tunables inside glibc's malloc,
        // takes no pointers, and is called from `main` before any other
        // thread exists.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, 64 << 20);
            // The largest value glibc accepts: only blocks above 32 MiB
            // are still mapped and unmapped one by one.
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// The allocator installed by `main.rs`.
pub struct Counting;

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged and returns its result unchanged; the counters
// are atomics touched with no other side effect, and `slot()` neither
// allocates nor panics (see `MY_SLOT`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let s = slot();
        s.allocs.fetch_add(1, Relaxed);
        s.allocated.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        slot().freed.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let s = slot();
        s.allocs.fetch_add(1, Relaxed);
        s.allocated.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let s = slot();
        s.allocs.fetch_add(1, Relaxed);
        s.allocated.fetch_add(new_size as u64, Relaxed);
        s.freed.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The counters at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot {
    /// Allocations made by every thread except the driver.
    pub runtime_allocs: u64,
    /// Allocations made by every thread (what a single-threaded probe
    /// reads).
    pub all_allocs: u64,
    /// Bytes allocated and not yet freed, all threads.
    pub live_bytes: i64,
}

/// Read the counters (relaxed: a statistic, not a synchronisation).
pub fn snapshot() -> Snapshot {
    let mut runtime_allocs = 0;
    let mut all_allocs = 0;
    let mut live = 0i64;
    for (i, s) in COUNTS.iter().enumerate() {
        let n = s.allocs.load(Relaxed);
        all_allocs += n;
        if i != 0 {
            runtime_allocs += n;
        }
        live += s.allocated.load(Relaxed) as i64 - s.freed.load(Relaxed) as i64;
    }
    Snapshot {
        runtime_allocs,
        all_allocs,
        live_bytes: live,
    }
}
