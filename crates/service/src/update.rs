//! The online write path: per-shard updaters behind the service.
//!
//! A [`ShardUpdater`] applies inserts and deletes to one shard while
//! that shard keeps serving queries. Each operation:
//!
//! 1. **publishes coordinates first** (inserts append to the shard's
//!    locked dataset before any index entry can reference the new id,
//!    so a query can never distance-check a missing row);
//! 2. applies the mutation through the storage crate's
//!    [`Updater`] (read-write file handle, one per shard — the shard
//!    write lock: the service runs one writer thread per shard, so
//!    mutations of a shard are serialized while readers never block);
//! 3. **invalidates exactly the rewritten blocks** in the shard's
//!    [`BlockCache`] using the updater's
//!    [`WriteTrace`](e2lsh_storage::update::WriteTrace) — per-key
//!    epochs in the cache discard in-flight fills for those blocks
//!    only — and mirrors newly set occupancy-filter bits into the live
//!    [`StorageIndex`](e2lsh_storage::index::StorageIndex) so queries
//!    start probing the new buckets;
//! 4. **publishes the new chain heads** into the live index's slot
//!    directory, last: a query that follows a new head must never meet
//!    a cached pre-write copy of the block it points at (a reused free
//!    block, say), so the heads go out only once every rewritten block
//!    is out of every replica's cache.
//!
//! The trace is applied **even when the operation fails** part-way: a
//! failed insert may already have rewritten blocks, and a cache serving
//! their pre-write bytes would be stale (covered by the
//! failure-injection suite).

use crate::shard::Shard;
use e2lsh_storage::device::cached::BlockCache;
use e2lsh_storage::layout::BLOCK_SIZE;
use e2lsh_storage::update::{MaintenanceReport, Updater};
use std::io;
use std::sync::Arc;

/// Read-write handle over one shard for online maintenance, safe to use
/// while the shard serves queries (one `ShardUpdater` per shard at a
/// time — the service's per-shard writer thread owns it).
///
/// With replica groups every replica of the shard owns a private block
/// cache over the same index file; a write must invalidate the
/// rewritten blocks in **all** of them or a sibling replica would keep
/// serving pre-write bytes. [`ShardUpdater::open`] registers the
/// shard's own cache; [`ShardUpdater::mirror_cache`] adds each
/// additional replica's (the service writer wires every topology cache
/// in).
pub struct ShardUpdater<'a> {
    shard: &'a Shard,
    updater: Updater,
    /// Every cache serving this shard's blocks (one per replica).
    caches: Vec<Arc<BlockCache>>,
    /// Blocks the most recent write rewrote (and invalidated in every
    /// registered cache) — the write's "device work" for trace spans.
    last_blocks: u64,
    /// Bucket blocks the most recent op returned to the free list.
    last_blocks_freed: u64,
    /// Chains the most recent delete found the victim missing from
    /// (0 on a healthy index; see
    /// [`WriteTrace::chain_inconsistencies`](e2lsh_storage::update::WriteTrace::chain_inconsistencies)).
    last_inconsistencies: u64,
}

impl<'a> ShardUpdater<'a> {
    /// Open the shard's index file for updates.
    ///
    /// Reconciles the on-storage object count with the shard's row
    /// count: a failed insert burns its id but flushes the burn
    /// best-effort, so after an unlucky double failure the storage
    /// count can lag the (authoritative) dataset mirror — resuming id
    /// assignment from the stale count would desynchronize every later
    /// local↔global mapping on the shard.
    pub fn open(shard: &'a Shard) -> io::Result<Self> {
        let mut updater = Updater::open(&shard.path)?;
        let rows = shard.data.read().unwrap().len();
        updater.reconcile_len(rows)?;
        // Maintenance chain scans may serve block reads from the
        // shard's cache (peek-only: no promotion, no frequency-sketch
        // traffic), saving device reads without polluting the
        // replacement state queries depend on.
        updater.set_scan_cache(shard.cache.clone());
        Ok(Self {
            updater,
            shard,
            caches: shard.cache.iter().cloned().collect(),
            last_blocks: 0,
            last_blocks_freed: 0,
            last_inconsistencies: 0,
        })
    }

    /// Blocks rewritten (hence invalidated) by the most recent
    /// `insert`/`delete` on this updater.
    pub fn last_write_blocks(&self) -> u64 {
        self.last_blocks
    }

    /// Bucket blocks the most recent `insert`/`delete`/`maintain`
    /// returned to the shard's free list (delete-time empty-block
    /// unlink, or compaction).
    pub fn last_blocks_freed(&self) -> u64 {
        self.last_blocks_freed
    }

    /// Chains the most recent `delete` found its victim missing from —
    /// 0 on a healthy index, `> 0` means the shard index was already
    /// inconsistent (the delete still removed what it found).
    pub fn last_chain_inconsistencies(&self) -> u64 {
        self.last_inconsistencies
    }

    /// The shard this updater mutates.
    pub fn shard(&self) -> &Shard {
        self.shard
    }

    /// Register another cache serving this shard's blocks (a sibling
    /// replica's private cache): every write will invalidate its
    /// rewritten blocks there too. Caches already registered (by
    /// pointer identity) are skipped, so passing the whole topology's
    /// cache list is safe.
    pub fn mirror_cache(&mut self, cache: Arc<BlockCache>) {
        if !self.caches.iter().any(|c| Arc::ptr_eq(c, &cache)) {
            self.caches.push(cache);
        }
    }

    /// Fault injection passthrough for tests (see
    /// [`Updater::fail_after_writes`]).
    pub fn fail_after_writes(&mut self, n: Option<u64>) {
        self.updater.fail_after_writes(n);
    }

    /// Insert a point into this shard; returns its **global** id.
    ///
    /// The coordinates become visible to the shard's reactors before any
    /// index entry references them, so the insert is race-free against
    /// concurrent reads; it becomes *findable* once
    /// the index entries and filter bits land (when this call returns).
    ///
    /// On error the id and its dataset row are still consumed — the
    /// storage updater burns failed ids (entries may half-exist in some
    /// tables), so popping the row would desynchronize every later
    /// local↔global mapping on this shard. The failed object is at
    /// worst partially findable with correct coordinates, never wrong.
    pub fn insert(&mut self, point: &[f32]) -> io::Result<u32> {
        let local = {
            let mut data = self.shard.data.write().unwrap();
            data.push(point);
            (data.len() - 1) as u32
        };
        let res = self.updater.insert(point);
        self.apply_trace();
        let id = res?;
        debug_assert_eq!(id, local, "updater and dataset disagree on local id");
        Ok(self.shard.to_global(local))
    }

    /// Remove the object with the given **global** id from this shard's
    /// index. Returns the number of chain entries removed. The
    /// coordinates stay in the dataset (in-flight queries may still
    /// distance-check them); with its entries gone the id stops
    /// appearing in results of queries admitted after this returns.
    pub fn delete(&mut self, global_id: u32) -> io::Result<usize> {
        let local = self.shard.local_of(global_id);
        let point = {
            let data = self.shard.data.read().unwrap();
            data.point(local as usize).to_vec()
        };
        let res = self.updater.delete(&point, local);
        self.apply_trace();
        res
    }

    /// Run one budgeted space-reclamation tick on this shard (see
    /// [`Updater::maintain`]): unlink emptied blocks, merge sparse
    /// chain blocks, and clear occupancy-filter bits whose buckets hold
    /// no live entries. Safe while the shard serves queries:
    ///
    /// * filter-bit **clears** are published into the live
    ///   [`StorageIndex`](e2lsh_storage::index::StorageIndex) word
    ///   stores (the set-bit path used by inserts is OR-only, so clears
    ///   need the exact rescanned words) — a query admitted mid-store
    ///   at worst probes a bucket that just went empty;
    /// * rewritten chain blocks are invalidated in every replica cache
    ///   through the same write trace as inserts/deletes, so the
    ///   per-key cache epochs discard in-flight fills for them.
    pub fn maintain(&mut self, block_budget: usize) -> io::Result<MaintenanceReport> {
        let res = self.updater.maintain(block_budget);
        if let Ok(rep) = &res {
            for &(ri, li, word, value) in &rep.filter_words {
                self.shard.index.set_filter_word(ri, li, word, value);
            }
        }
        self.apply_trace();
        res
    }

    /// Invalidate rewritten blocks in **every** registered replica
    /// cache, then publish new filter bits and chain heads into the live
    /// index — also on failure (see module docs). The index and rows are
    /// shared by all replicas, so this is the only per-replica
    /// publication a write needs.
    fn apply_trace(&mut self) {
        let trace = self.updater.take_trace();
        self.last_blocks = trace.blocks.len() as u64;
        self.last_blocks_freed = trace.blocks_freed;
        self.last_inconsistencies = trace.chain_inconsistencies;
        for &(ri, li, h32) in &trace.filter_bits {
            self.shard.index.set_filter_bit(ri, li, h32);
        }
        for cache in &self.caches {
            for &addr in &trace.blocks {
                cache.invalidate(addr / BLOCK_SIZE as u64);
            }
        }
        for &(ri, li, slot, head) in &trace.heads {
            self.shard.index.set_head(ri, li, slot, head);
        }
    }
}
