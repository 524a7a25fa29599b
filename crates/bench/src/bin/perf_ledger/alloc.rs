//! A counting `#[global_allocator]`: heap allocations are counted, not
//! guessed.
//!
//! One relaxed atomic add in front of the system allocator counts both
//! calls and bytes requested (packed into one word: a second
//! `lock xadd` per allocation doubled the cost, to 10 ns, which is 1.1%
//! of the ladder's engine rung). Counting is **off** unless a phase
//! turns it on — the end-to-end metrics (`--trace 0`) never pay for it,
//! and the per-layer run reports what it costs
//! (`bench.alloc_count_overhead_pct`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Keeps the counter on its own cache line, so threads that count do
/// not also invalidate the line holding the on/off flag.
#[repr(align(128))]
struct Padded<T>(T);

static ENABLED: Padded<AtomicBool> = Padded(AtomicBool::new(false));
/// `calls << BYTES_BITS | bytes`, as one running sum modulo 2^64. Plain
/// integer addition, so the difference of two readings decodes exactly
/// as long as fewer than 2^38 bytes (256 GiB) and 2^26 calls (67 M) were
/// counted between them — a measured window is a few seconds.
static COUNTED: Padded<AtomicU64> = Padded(AtomicU64::new(0));
const BYTES_BITS: u32 = 38;

pub struct Counting;

#[inline]
fn count(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if ENABLED.0.load(Ordering::Relaxed) {
        COUNTED
            .0
            .fetch_add((1 << BYTES_BITS) + size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is an atomic increment, which neither
// allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn counting on or off; returns the previous setting.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.0.swap(on, Ordering::Relaxed)
}

/// A reading of the counter.
#[derive(Clone, Copy)]
pub struct Snapshot(u64);

pub fn snapshot() -> Snapshot {
    Snapshot(COUNTED.0.load(Ordering::Relaxed))
}

impl Snapshot {
    /// `(calls, bytes requested)` counted since `earlier`.
    pub fn since(self, earlier: Snapshot) -> (u64, u64) {
        let d = self.0.wrapping_sub(earlier.0);
        (d >> BYTES_BITS, d & ((1 << BYTES_BITS) - 1))
    }
}

/// Nanoseconds that counting adds to one allocation: a tight
/// allocate-and-free loop with counting on over off, best of 5
/// alternating passes each. The loop is all allocator, so the difference
/// resolves to a fraction of a nanosecond where timing a whole ladder
/// rung on and off cannot resolve 1%.
pub fn counting_cost_ns() -> f64 {
    const ITERS: usize = 1_000_000;
    let pass = |counting: bool| {
        let was = set_enabled(counting);
        let t = std::time::Instant::now();
        for i in 0..ITERS {
            drop(std::hint::black_box(Box::new(i)));
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / ITERS as f64;
        set_enabled(was);
        ns
    };
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        off = off.min(pass(false));
        on = on.min(pass(true));
    }
    (on - off).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, so nothing else toggles the flag concurrently.
    #[test]
    fn counts_only_while_enabled() {
        let was = set_enabled(true);
        let s0 = snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        std::hint::black_box(&v);
        let (calls, bytes) = snapshot().since(s0);
        assert!(calls >= 1);
        assert!(bytes >= 4096);
        set_enabled(false);
        let s2 = snapshot();
        for _ in 0..1000 {
            let w: Vec<u8> = Vec::with_capacity(64);
            std::hint::black_box(&w);
        }
        // Off for every thread; at most a straggler that read the flag
        // just before it flipped still lands.
        assert!(snapshot().since(s2).0 < 1000);
        set_enabled(was);
    }

    #[test]
    fn a_difference_decodes_across_a_carry_and_a_wrap() {
        let one = |size: u64| (1u64 << BYTES_BITS) + size;
        // The byte field carries into the call field ...
        let before = Snapshot((5 << BYTES_BITS) + (1 << BYTES_BITS) - 10);
        let after = Snapshot(before.0.wrapping_add(one(64)).wrapping_add(one(100)));
        assert_eq!(after.since(before), (2, 164));
        // ... and the whole word wraps.
        let before = Snapshot(u64::MAX - 3);
        let after = Snapshot(before.0.wrapping_add(one(4096)));
        assert_eq!(after.since(before), (1, 4096));
    }
}
