//! Storage device abstraction.
//!
//! The query engine talks to storage through the [`Device`] trait, which
//! exposes an asynchronous submit/poll interface (the shape of io_uring,
//! SPDK and the XLFDD interface in the paper). Two families implement it:
//!
//! * [`sim::SimStorage`] — a discrete-event model of the paper's devices
//!   (Table 2) operating in **virtual time**; data is served from a memory
//!   or file backing while completion times come from a per-die service
//!   model. Experiments use this: it reproduces the queue-depth-dependent
//!   IOPS curves that drive the paper's entire analysis.
//! * [`file::FileDevice`] — real positioned reads against an index file
//!   through a worker-thread pool, operating in **wall time**. Tests and
//!   the quickstart example use this to exercise the on-disk format and
//!   the asynchronous engine against a real filesystem.

pub mod cached;
pub mod file;
pub mod sim;

use std::sync::Arc;

/// An asynchronous read request.
#[derive(Clone, Copy, Debug)]
pub struct IoRequest {
    /// Byte offset into the index address space.
    pub addr: u64,
    /// Read length in bytes.
    pub len: u32,
    /// Caller-chosen identifier returned with the completion.
    pub tag: u64,
}

/// A completed read.
#[derive(Clone, Debug)]
pub struct IoCompletion {
    /// Tag from the originating [`IoRequest`].
    pub tag: u64,
    /// The bytes read — shared, so a cache hit hands out the cached
    /// block itself and a miss fill is one allocation held by both the
    /// completion and the cache.
    pub data: Arc<[u8]>,
    /// Completion time: virtual seconds for simulated devices, seconds
    /// since engine start for wall-clock devices.
    pub time: f64,
}

/// `len` bytes allocated once as shared bytes (zeroed) and filled in
/// place — how devices build [`IoCompletion::data`] without an extra copy.
pub(crate) fn shared_bytes(len: usize, fill: impl FnOnce(&mut [u8])) -> Arc<[u8]> {
    let mut bytes: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
    fill(Arc::get_mut(&mut bytes).expect("a fresh allocation is unshared"));
    bytes
}

/// Declare a **counter family**: a report struct whose counters are
/// each named once. The one field list yields the struct, its only `+=`
/// (`AddAssign<&Self>`), its only `−` (`minus`) and its export names
/// (`export`), so a new counter is one declaration plus its booking
/// site and cannot be left out of a subtraction or of the exporter.
///
/// Every field is `name: type = "export name"` in one of these sections:
///
/// * `counters` — monotonic integer totals: `+=` adds, `minus`
///   subtracts; exported through `export`'s first callback;
/// * `peaks` — high-water marks and structural sizes: `+=` keeps the
///   max, `minus` the later snapshot's value; exported as counters;
/// * `seconds` — `f64` sums of seconds: like `counters`, exported
///   through the second callback (gauges);
/// * `histograms(Type)` — latency histograms (`merge` / `minus`), handed
///   to a third `export` callback only families with this section have;
/// * `other` (follows `histograms`) — carried along: untouched by `+=`,
///   cloned from the later snapshot by `minus`, not exported.
///
/// `minus` **saturates** at zero, so snapshots of a shared resource by
/// different observers subtract safely; an owner that guarantees order
/// asserts it on top (`ServiceReport::interval_since`).
#[macro_export]
macro_rules! counter_family {
    (
        $(#[$meta:meta])* pub struct $name:ident;
        counters { $( $(#[$cm:meta])* $c:ident: $cty:ty = $cn:literal, )* }
        peaks { $( $(#[$pm:meta])* $p:ident: $pty:ty = $pn:literal, )* }
        seconds { $( $(#[$sm:meta])* $s:ident = $sn:literal, )* }
        $(
            histograms($hty:ty) { $( $(#[$hm:meta])* $h:ident = $hn:literal, )* }
            other { $( $(#[$om:meta])* $o:ident: $oty:ty, )* }
        )?
    ) => {
        $(#[$meta])* pub struct $name {
            $( $(#[$cm])* pub $c: $cty, )*
            $( $(#[$pm])* pub $p: $pty, )*
            $( $(#[$sm])* pub $s: f64, )*
            $( $( $(#[$hm])* pub $h: $hty, )* $( $(#[$om])* pub $o: $oty, )* )?
        }

        impl ::std::ops::AddAssign<&$name> for $name {
            fn add_assign(&mut self, delta: &$name) {
                $( self.$c += delta.$c; )*
                $( self.$p = self.$p.max(delta.$p); )*
                $( self.$s += delta.$s; )*
                $( $( self.$h.merge(&delta.$h); )* )?
            }
        }

        impl $name {
            /// `self − prev`, saturating at zero: counters, second sums
            /// and histograms subtract; peaks and `other` fields carry
            /// this (the later) snapshot's value.
            #[allow(clippy::clone_on_copy)] // `other` fields may or may not be `Copy`
            pub fn minus(&self, prev: &Self) -> Self {
                Self {
                    $( $c: self.$c.saturating_sub(prev.$c), )*
                    $( $p: self.$p, )*
                    $( $s: (self.$s - prev.$s).max(0.0), )*
                    $( $( $h: self.$h.minus(&prev.$h), )* $( $o: self.$o.clone(), )* )?
                }
            }

            /// Visit every exported field under its stable export name:
            /// counters and peaks through `counter`, second sums through
            /// `seconds`, histograms (if declared) through `histogram`.
            #[allow(clippy::unnecessary_cast, unused_mut, unused_variables)] // sections may be empty
            pub fn export(
                &self,
                mut counter: impl FnMut(&'static str, u64),
                mut seconds: impl FnMut(&'static str, f64)
                $(, mut histogram: impl FnMut(&'static str, &$hty))?
            ) {
                $( counter($cn, self.$c as u64); )*
                $( counter($pn, self.$p as u64); )*
                $( seconds($sn, self.$s); )*
                $( $( histogram($hn, &self.$h); )* )?
            }
        }
    };
}

counter_family! {
    /// Cumulative device statistics.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct DeviceStats;
    counters {
        /// I/Os completed.
        completed: u64 = "device_completed",
        /// Bytes returned.
        bytes: u64 = "device_bytes",
        /// Block reads served from a DRAM cache (0 without a
        /// [`cached::CachedDevice`]). Per device in
        /// [`cached::CachedDevice::stats`], so sums over devices
        /// sharing one cache stay correct; the cache-wide total is in
        /// [`cached::BlockCache::counters`], which is also where every
        /// `cache_*` field below comes from (devices leave them 0).
        cache_hits: u64 = "cache_hits",
        /// Block reads that went to the underlying device.
        cache_misses: u64 = "cache_misses",
        /// Cached blocks displaced to make room (TinyLFU: admitted
        /// candidates' victims; rejected candidates count in
        /// `cache_admission_rejected` instead).
        cache_evictions: u64 = "cache_evictions",
        /// Cached blocks dropped because their backing storage was
        /// rewritten (single-key invalidations).
        cache_invalidations: u64 = "cache_invalidations",
        /// In-flight miss fills discarded because their block was
        /// invalidated (or the cache flushed) between submit and
        /// completion.
        cache_stale_fills: u64 = "cache_stale_fills",
        /// Blocks pre-filled from a sibling replica's cache
        /// ([`cached::BlockCache::warm_from`] — replica-aware cache
        /// warming).
        cache_warmed: u64 = "cache_warmed",
        /// Window candidates the W-TinyLFU admission filter refused to
        /// admit into the cache's main area (always 0 under the
        /// reference LRU policy).
        cache_admission_rejected: u64 = "cache_admission_rejected",
        /// Bucket blocks returned to the free list by deletes or
        /// background maintenance (empty-block unlink and chain
        /// compaction). A writer-level quantity: devices leave it 0
        /// and the service's writer threads book it.
        blocks_reclaimed: u64 = "blocks_reclaimed",
        /// Occupancy-filter bits cleared by tombstone GC (the bit's
        /// bucket no longer holds live entries). Writer-level like
        /// `blocks_reclaimed`.
        filter_bits_cleared: u64 = "filter_bits_cleared",
        /// Bytes made reusable by reclamation (`blocks_reclaimed ×`
        /// block size, plus heap trimmed by cursor rollback).
        /// Writer-level.
        bytes_reclaimed: u64 = "bytes_reclaimed",
        /// Delete operations that removed fewer entries than the `r·L`
        /// chains they should appear in — the index was already
        /// inconsistent. Writer-level.
        chain_inconsistencies: u64 = "chain_inconsistencies",
    }
    peaks {}
    seconds {
        /// Sum of per-I/O latencies in seconds (completion −
        /// submission).
        latency_sum = "device_latency_sum_s",
        /// Sum of device busy time in seconds (for usage accounting;
        /// virtual devices only).
        busy_sum = "device_busy_sum_s",
    }
}

impl DeviceStats {
    /// Mean per-I/O latency in seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.latency_sum / self.completed as f64
        }
    }

    /// Cache hits over all cache lookups (0 when uncached).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Asynchronous block storage.
///
/// `now` arguments carry the caller's virtual clock; wall-clock devices
/// ignore them. A virtual-time device also reports when its next
/// completion lands ([`Device::next_completion_time`]) and when it could
/// next start a read ([`Device::next_free_time`]): a wall-driven caller
/// sleeps to the first, and may wake up late by as much as the second
/// lies past it without changing any read's modeled time.
pub trait Device: Send {
    /// Queue a read. The device starts (virtual) service immediately.
    fn submit(&mut self, req: IoRequest, now: f64);

    /// Drain completions whose completion time is ≤ `now` (wall-clock
    /// devices drain everything currently finished).
    fn poll(&mut self, now: f64, out: &mut Vec<IoCompletion>);

    /// Earliest pending completion time, if this device runs in virtual
    /// time and has I/Os in flight. Wall-clock devices return `None`.
    fn next_completion_time(&self) -> Option<f64>;

    /// Earliest virtual time at which the device could start serving a
    /// new read, if it models time. A read submitted at any `now` up to
    /// this value starts and completes exactly when one submitted
    /// earlier would, so a caller may wake up late by anything short of
    /// it without changing modeled timing. Wall-clock devices (the
    /// default) return `None`.
    fn next_free_time(&self) -> Option<f64> {
        None
    }

    /// Block until at least one completion is available (wall-clock
    /// devices). No-op for virtual devices.
    fn wait(&mut self);

    /// I/Os submitted but not yet delivered through [`Device::poll`].
    fn inflight(&self) -> usize;

    /// Synchronous read outside the simulation (superblock loading, table
    /// scans at open, tests). Does not affect timing statistics.
    fn read_sync(&mut self, addr: u64, len: u32) -> Vec<u8>;

    /// Cumulative statistics.
    fn stats(&self) -> DeviceStats;
}

/// Storage access interface profile: the per-I/O CPU cost `T_request`
/// (paper Table 3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interface {
    /// Human-readable name.
    pub name: &'static str,
    /// CPU time one core spends issuing a single I/O, in seconds.
    pub t_request: f64,
}

impl Interface {
    /// io_uring v2.0: 1.0 µs per I/O (1.0 MIOPS/core).
    pub const IO_URING: Interface = Interface {
        name: "io_uring",
        t_request: 1.0e-6,
    };
    /// SPDK 21.10: 350 ns per I/O (2.9 MIOPS/core).
    pub const SPDK: Interface = Interface {
        name: "SPDK",
        t_request: 350.0e-9,
    };
    /// XLFDD lightweight interface: 50 ns per I/O (20 MIOPS/core).
    pub const XLFDD: Interface = Interface {
        name: "XLFDD",
        t_request: 50.0e-9,
    };
    /// Synchronous memory-mapped I/O through the page cache (paper
    /// Section 6.5): the CPU-side cost per fault-and-fill is far higher
    /// than any asynchronous interface. The ~2.5 µs figure reflects the
    /// paper's breakdown (page-cache CPU overhead ≈ 40% of a ~6 µs
    /// per-I/O budget).
    pub const MMAP_SYNC: Interface = Interface {
        name: "mmap(sync)",
        t_request: 2.5e-6,
    };
}
