//! Online index maintenance: insert and delete without rebuilding.
//!
//! The paper discusses updates qualitatively (Section 7, *storage-specific
//! issues*): "the impact of object insertion and deletion is small", while
//! full rebuilds should be rare because they consume SSD endurance. This
//! module implements that update path:
//!
//! * **insert** — compute the object's `r·L` hash values and *prepend* a
//!   chain link per table: if the head block has room, rewrite it in
//!   place; otherwise allocate a fresh block — drawn from the persistent
//!   free list when one is available, else at the end of the heap — whose
//!   `next` points at the old head and update the slot. Prepending keeps
//!   writes O(1) per table and never rewrites a whole chain.
//! * **delete** — walk each of the object's `r·L` chains and rewrite the
//!   single block containing its entry. A block emptied by the delete is
//!   unlinked from its chain (the predecessor is repointed past it) and
//!   returned to the superblock free list instead of being rewritten, so
//!   churn stops growing the heap.
//! * **maintain** — a budgeted background pass ([`Updater::maintain`])
//!   that compacts sparse chains (merging adjacent blocks whose combined
//!   entries fit one block), unlinks empty blocks, and rewrites each
//!   slot's occupancy-filter block to exactly its live entries' bits.
//!
//! Updates write through a [`std::fs::File`] opened read-write; readers
//! opened afterwards (or an in-process [`StorageIndex`] refreshed with
//! [`Updater::sync_filters_into`]) observe the new state.
//!
//! ## Serving while updating
//!
//! The serving layer (`e2lsh_service`) runs this update path *under
//! load*: readers keep issuing I/Os against the same file while an
//! updater rewrites blocks. The mechanisms that make that safe:
//!
//! * every byte range the updater writes (even on a failed operation)
//!   is recorded in a [`WriteTrace`], so the caller can invalidate
//!   exactly the rewritten blocks in a
//!   [`BlockCache`](crate::device::cached::BlockCache);
//! * new chain blocks are fully written *before* the slot pointer that
//!   publishes them, so a concurrent reader sees either the old head or
//!   the complete new head;
//! * heap growth (and every free-list pop) is persisted in the
//!   superblock *before* an insert links any entry, so a crash or
//!   injected failure mid-way never lets a later open re-allocate (and
//!   cross-link) blocks a half-finished insert already published;
//! * freed blocks keep their old on-storage content — a reader that
//!   captured a pointer into a chain before a block was unlinked still
//!   reads a consistent (merely stale) chain — and are quarantined for
//!   [`Updater::set_reuse_quarantine_ops`] writer operations before
//!   they can be reused, bounding how stale such a pointer can be when
//!   the block's bytes finally change. Reuse itself is a tracked write,
//!   so caches drop the block's old bytes through their per-key epochs.
//!
//! [`Updater::fail_after_writes`] injects write failures for tests:
//! the failure-injection suite asserts a shard stays queryable after a
//! mid-operation error and that the trace covers every touched block.

use crate::build::{Superblock, MAX_FREE_LIST};
use crate::index::StorageIndex;
use crate::layout::{
    split_hash, BucketBlock, EntryCodec, TableGeometry, BLOCK_SIZE, ENTRIES_PER_BLOCK, HASH_BITS,
    SUPERBLOCK_SIZE,
};
use e2lsh_core::lsh::{hash_v_bits, HashFamily};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

/// Default number of subsequent writer operations a freed block sits in
/// quarantine before it may be reused (see module docs). A stale
/// reader holds a freed block's address only for the remainder of one
/// chain walk — a handful of writer ops at most — so a short window
/// suffices; keeping it well under `MAX_FREE_LIST / frees-per-op`
/// matters, because blocks freed inside the window pile up on the
/// bounded free list and a long quarantine would overflow it (frees
/// beyond the cap are rewritten empty in place and only reclaimed by a
/// later `maintain` pass).
pub const REUSE_QUARANTINE_OPS: u64 = 16;

/// Typed error payload carried by the [`io::Error`] that
/// [`Updater::insert`] returns when the next object ID no longer fits
/// the entry codec — a predictable capacity condition, not a device
/// failure, so callers can shed the write instead of dying.
#[derive(Clone, Copy, Debug)]
pub struct IdSpaceExhausted {
    /// ID width the codec was built with.
    pub id_bits: u32,
}

impl std::fmt::Display for IdSpaceExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "object ID space exhausted (id_bits = {})", self.id_bits)
    }
}

impl std::error::Error for IdSpaceExhausted {}

/// True when `e` is the typed id-space-exhaustion failure from
/// [`Updater::insert`].
pub fn is_id_exhausted(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|r| r.is::<IdSpaceExhausted>())
}

/// Storage mutations performed by one or more update operations: which
/// blocks were rewritten (for cache invalidation) and which hash values
/// newly entered the occupancy filter (for refreshing a live
/// [`StorageIndex`]'s DRAM filters).
///
/// The trace accumulates across operations until taken with
/// [`Updater::take_trace`], and records writes **even when the
/// operation fails** — a failed insert may already have rewritten
/// blocks, and a cache that kept serving their pre-write bytes would be
/// stale.
#[derive(Clone, Debug, Default)]
pub struct WriteTrace {
    /// Block-aligned byte addresses ([`BLOCK_SIZE`] granularity) of
    /// every rewritten region a cacheable block read could observe
    /// (slot pointers, bucket blocks), deduplicated, in first-touch
    /// order. Superblock and filter-word writes are excluded: those
    /// regions are only read via `read_sync` at open and never enter
    /// the block cache.
    pub blocks: Vec<u64>,
    /// `(radius index, table index, 32-bit hash)` of every inserted
    /// hash value that set a new occupancy-filter bit — replay each
    /// with [`StorageIndex::set_filter_bit`].
    pub filter_bits: Vec<(usize, usize, u64)>,
    /// Bucket blocks returned to the free list (empty-block unlink or
    /// chain compaction) since the last take. Freed blocks are *not*
    /// rewritten — their bytes only change on reuse, which is a tracked
    /// write — so they do not appear in `blocks`.
    pub blocks_freed: u64,
    /// Chains that should have contained a deleted object's entry but
    /// did not (`delete` removed fewer than `r·L` entries): the index
    /// was already inconsistent.
    pub chain_inconsistencies: u64,
}

impl WriteTrace {
    /// True when nothing was written.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.filter_bits.is_empty()
    }

    fn record_write(&mut self, addr: u64, len: usize) {
        let bs = BLOCK_SIZE as u64;
        let first = addr / bs * bs;
        let last = (addr + len.max(1) as u64 - 1) / bs * bs;
        let mut b = first;
        loop {
            if !self.blocks.contains(&b) {
                self.blocks.push(b);
            }
            if b == last {
                break;
            }
            b += bs;
        }
    }
}

/// Outcome of one [`Updater::maintain`] call.
#[derive(Clone, Debug, Default)]
pub struct MaintenanceReport {
    /// Bucket blocks unlinked and returned to the free list.
    pub blocks_reclaimed: u64,
    /// Occupancy-filter bits cleared because no live entry of their
    /// slot sets them any more.
    pub filter_bits_cleared: u64,
    /// Bytes made reusable (`blocks_reclaimed × BLOCK_SIZE`).
    pub bytes_reclaimed: u64,
    /// Bucket blocks read while scanning (the budget currency — counted
    /// whether the bytes came from the device or the scan cache, so the
    /// cursor advances identically either way).
    pub blocks_scanned: u64,
    /// Scan reads served from the registered block cache
    /// ([`Updater::set_scan_cache`]) instead of the device.
    pub scan_cache_hits: u64,
    /// True when the cursor wrapped: every table slot has been visited
    /// since the previous wrap, so an idle driver can back off.
    pub completed_pass: bool,
    /// Filter words rewritten by GC as `(ri, li, word index, value)` —
    /// mirror them into a live [`StorageIndex`] with
    /// [`StorageIndex::set_filter_word`].
    pub filter_words: Vec<(usize, usize, usize, u64)>,
}

impl MaintenanceReport {
    /// True when the pass reclaimed or cleared anything.
    pub fn productive(&self) -> bool {
        self.blocks_reclaimed > 0 || self.filter_bits_cleared > 0
    }

    /// Fold another report into this one (driver-side accumulation).
    pub fn merge(&mut self, other: &MaintenanceReport) {
        self.blocks_reclaimed += other.blocks_reclaimed;
        self.filter_bits_cleared += other.filter_bits_cleared;
        self.bytes_reclaimed += other.bytes_reclaimed;
        self.blocks_scanned += other.blocks_scanned;
        self.scan_cache_hits += other.scan_cache_hits;
        self.completed_pass |= other.completed_pass;
    }
}

/// Per-table link plan computed by the read-only first phase of an
/// insert (see [`Updater::insert`]).
enum LinkAction {
    /// Head block exists and has room: rewrite it in place.
    Squeeze { head: u64, block: BucketBlock },
    /// Chain needs a fresh head block pointing at the old head.
    Fresh { old_head: u64 },
}

struct LinkPlan {
    ri: usize,
    li: usize,
    h32: u64,
    slot: u64,
    fp: u32,
    action: LinkAction,
}

/// Read-write handle over an index file for online maintenance.
pub struct Updater {
    file: File,
    sb: Superblock,
    geometry: TableGeometry,
    codec: EntryCodec,
    family: HashFamily,
    /// End-of-heap allocation cursor.
    next_block_addr: u64,
    /// Per-table occupancy filters (mirrors the on-disk region; flushed
    /// on every insert that sets a new bit and every GC rewrite).
    filters: Vec<Vec<u64>>,
    /// Mutations since the last [`Updater::take_trace`].
    trace: WriteTrace,
    /// Monotonic writer-operation stamp (insert/delete/maintain calls);
    /// drives the free-block reuse quarantine.
    op_stamp: u64,
    /// Freed block → op stamp at free time. Not persisted: after a
    /// reopen no reader predates the handle, so every free-listed block
    /// is immediately eligible.
    quarantine: HashMap<u64, u64>,
    /// Reuse quarantine length in writer ops (tests/benches may shorten).
    quarantine_ops: u64,
    /// Maintenance cursor: next table and slot to scan.
    maint_table: usize,
    maint_slot: u64,
    /// Superblock writes attempted (reservation-flush-skip accounting).
    superblock_flushes: u64,
    /// Compatibility: always flush a worst-case heap reservation before
    /// linking, as the pre-free-list write path did.
    compat_always_reserve: bool,
    /// Fault injection: fail the Nth write from now (None = disabled).
    fail_after_writes: Option<u64>,
    /// Writes attempted since fault injection was (re-)armed.
    writes_since_arm: u64,
    /// Block cache maintenance scans may *peek* chain blocks from
    /// (read-only, no promotion/frequency traffic — see
    /// [`Updater::set_scan_cache`]). `None` = always read the device.
    scan_cache: Option<std::sync::Arc<crate::device::cached::BlockCache>>,
}

impl Updater {
    /// Open an index file for updates.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut sb_buf = vec![0u8; SUPERBLOCK_SIZE];
        read_at(&file, 0, &mut sb_buf)?;
        let sb = Superblock::decode(&sb_buf)?;
        let geometry = TableGeometry {
            u_bits: sb.u_bits,
            filter_bits: sb.filter_bits,
            num_radii: sb.radii.len(),
            l: sb.l as usize,
        };
        let codec = EntryCodec::new((sb.capacity as usize).max(sb.n as usize), sb.u_bits);
        let family = HashFamily::generate(
            sb.dim as usize,
            sb.m as usize,
            sb.w,
            sb.l as usize,
            &sb.radii,
            sb.seed,
        );
        // Load the filters.
        let fbytes = geometry.filter_bytes_per_table() as usize;
        let mut filters = Vec::with_capacity(geometry.num_tables());
        for t in 0..geometry.num_tables() {
            let (ri, li) = (t / geometry.l, t % geometry.l);
            let mut buf = vec![0u8; fbytes];
            read_at(&file, geometry.filter_base(ri, li), &mut buf)?;
            filters.push(
                buf.chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect(),
            );
        }
        let next_block_addr = sb.total_bytes;
        Ok(Self {
            file,
            sb,
            geometry,
            codec,
            family,
            next_block_addr,
            filters,
            trace: WriteTrace::default(),
            op_stamp: 0,
            quarantine: HashMap::new(),
            quarantine_ops: REUSE_QUARANTINE_OPS,
            maint_table: 0,
            maint_slot: 0,
            superblock_flushes: 0,
            compat_always_reserve: false,
            fail_after_writes: None,
            writes_since_arm: 0,
            scan_cache: None,
        })
    }

    /// Let maintenance chain scans serve block reads from `cache`
    /// (a shard's DRAM block cache) instead of the device, via
    /// [`BlockCache::peek`] — no recency promotion, no frequency-sketch
    /// traffic, no hit/miss counters, so a full-index scan cannot
    /// pollute the replacement state queries depend on. Safe because
    /// the serving layer invalidates every rewritten block in the cache
    /// (the cache never holds bytes staler than the file), and reads of
    /// blocks rewritten by *this* updater's still-unapplied trace fall
    /// back to the device.
    ///
    /// [`BlockCache::peek`]: crate::device::cached::BlockCache::peek
    pub fn set_scan_cache(
        &mut self,
        cache: Option<std::sync::Arc<crate::device::cached::BlockCache>>,
    ) {
        self.scan_cache = cache;
    }

    /// One maintenance chain-block read: from the scan cache when the
    /// block is resident (and not rewritten by the un-applied trace),
    /// else from the device.
    fn read_chain_block(&self, addr: u64, rep: &mut MaintenanceReport) -> io::Result<Vec<u8>> {
        if let Some(cache) = &self.scan_cache {
            if !self.trace.blocks.contains(&addr) {
                if let Some(data) = cache.peek(addr / BLOCK_SIZE as u64) {
                    if data.len() == BLOCK_SIZE {
                        rep.scan_cache_hits += 1;
                        return Ok(data.to_vec());
                    }
                }
            }
        }
        let mut buf = vec![0u8; BLOCK_SIZE];
        read_at(&self.file, addr, &mut buf)?;
        Ok(buf)
    }

    /// Take the accumulated [`WriteTrace`] (mutations since the last
    /// call), leaving an empty trace behind. Call after each operation
    /// — including a failed one — to invalidate the rewritten blocks in
    /// any block cache over this file and to mirror new filter bits
    /// into a live [`StorageIndex`].
    pub fn take_trace(&mut self) -> WriteTrace {
        std::mem::take(&mut self.trace)
    }

    /// The accumulated trace since the last [`Updater::take_trace`].
    pub fn trace(&self) -> &WriteTrace {
        &self.trace
    }

    /// Fault injection for tests: make the `n`-th write from now (0 =
    /// the very next one) fail with [`io::ErrorKind::Other`]. `None`
    /// disarms. Reads are unaffected; the failed write is still
    /// recorded in the trace (the bytes on storage are untrusted once a
    /// write errors).
    pub fn fail_after_writes(&mut self, n: Option<u64>) {
        self.fail_after_writes = n;
        self.writes_since_arm = 0;
    }

    /// Shorten (or lengthen) the freed-block reuse quarantine. The
    /// default [`REUSE_QUARANTINE_OPS`] bounds how long a concurrent
    /// reader can hold a pointer at a block whose bytes are about to be
    /// rewritten for a different chain; single-threaded tests may set 0.
    pub fn set_reuse_quarantine_ops(&mut self, ops: u64) {
        self.quarantine_ops = ops;
    }

    /// Compatibility switch for equivalence tests: when on, every
    /// insert flushes a worst-case heap reservation before linking —
    /// the pre-free-list write path — instead of skipping the flush
    /// when all target chains have room.
    pub fn set_compat_reservation_flush(&mut self, on: bool) {
        self.compat_always_reserve = on;
    }

    /// Superblock writes attempted so far (reservation-skip accounting).
    pub fn superblock_flushes(&self) -> u64 {
        self.superblock_flushes
    }

    /// Current on-storage footprint in bytes (superblock `total_bytes`).
    pub fn total_bytes(&self) -> u64 {
        self.sb.total_bytes
    }

    /// Blocks currently parked on the persistent free list.
    pub fn free_list_len(&self) -> usize {
        self.sb.free.len()
    }

    /// Fault-injectable write (no trace entry): for regions the block
    /// cache can never serve — the superblock and the filter words are
    /// only ever read via `read_sync` at open, and aligned slot-block
    /// reads cannot cross into them, so invalidating their blocks would
    /// only pollute per-key epoch maps.
    fn write_checked(&mut self, addr: u64, bytes: &[u8]) -> io::Result<()> {
        if let Some(n) = self.fail_after_writes {
            let k = self.writes_since_arm;
            self.writes_since_arm += 1;
            if k >= n {
                return Err(io::Error::other("injected device write failure"));
            }
        }
        write_at(&self.file, addr, bytes)
    }

    /// Tracked write: records the touched blocks for cache
    /// invalidation, applies fault injection, then writes. Used for
    /// every write a cacheable block read could observe (slot pointers,
    /// bucket blocks).
    fn write_tracked(&mut self, addr: u64, bytes: &[u8]) -> io::Result<()> {
        self.trace.record_write(addr, bytes.len());
        self.write_checked(addr, bytes)
    }

    /// Tracked write of one encoded bucket block.
    fn write_block(&mut self, addr: u64, block: &BucketBlock) -> io::Result<()> {
        let mut out = Vec::with_capacity(BLOCK_SIZE);
        block.encode(&self.codec, &mut out);
        self.write_tracked(addr, &out)
    }

    /// Number of objects the index currently covers (IDs are `0..n`).
    pub fn len(&self) -> usize {
        self.sb.n as usize
    }

    /// The index file's region layout (table/filter/heap bases). Lets
    /// serving layers derive cache-region boundaries from the same
    /// geometry the writer uses.
    pub fn geometry(&self) -> &TableGeometry {
        &self.geometry
    }

    /// Advance the object count to `target`, burning the skipped ids —
    /// recovery for a failed insert whose best-effort burn flush was
    /// lost (the caller's coordinate mirror is then longer than the
    /// on-storage count, and resuming id assignment from the stale `n`
    /// would hand a new object an id that half-exists in other chains).
    /// No-op when the count is already `≥ target`.
    pub fn reconcile_len(&mut self, target: usize) -> io::Result<()> {
        if (self.sb.n as usize) < target {
            self.sb.n = target as u64;
            self.flush_superblock()?;
        }
        Ok(())
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.sb.n == 0
    }

    /// Insert a new object with the next available ID; returns that ID.
    ///
    /// The caller must also append the same coordinates to its in-DRAM
    /// [`e2lsh_core::Dataset`] so distance checks can find them.
    ///
    /// When the next ID no longer fits the entry codec's ID bits the
    /// insert fails **before any mutation** with a typed error
    /// ([`IdSpaceExhausted`], recognizable via [`is_id_exhausted`]) and
    /// the ID is *not* consumed — the condition is permanent, so
    /// burning ids would merely overflow forever. The codec is sized at
    /// build time from [`crate::build::BuildConfig::capacity`] (default
    /// 2× the build-time n).
    ///
    /// **For device errors the ID is still consumed**: an error mid-way
    /// may already have linked the object into some tables, so the
    /// failed ID is burned (`n` still advances) rather than recycled —
    /// recycling would hand a *different* object an ID that half-exists
    /// in other tables' chains, silently corrupting results. Callers
    /// that mirror coordinates (the serving layer) keep the failed row
    /// for the same reason; the object is at worst partially findable,
    /// never wrong.
    pub fn insert(&mut self, point: &[f32]) -> io::Result<u32> {
        assert_eq!(point.len(), self.sb.dim as usize);
        let id = self.sb.n as u32;
        if u64::from(id) >= (1u64 << self.codec.id_bits) {
            return Err(io::Error::other(IdSpaceExhausted {
                id_bits: self.codec.id_bits,
            }));
        }
        self.op_stamp += 1;

        // Phase 1 (reads only): plan every table's link. Nothing has
        // been written yet, so a read error here neither burns the ID
        // nor leaves partial state.
        let mut plans = Vec::with_capacity(self.geometry.num_tables());
        let mut scratch = Vec::new();
        for ri in 0..self.geometry.num_radii {
            let radius = self.sb.radii[ri];
            for li in 0..self.geometry.l {
                let key64 = self
                    .family
                    .compound(ri, li)
                    .hash64(point, radius, &mut scratch);
                let h32 = hash_v_bits(key64, HASH_BITS);
                let (slot, fp) = split_hash(h32, self.geometry.u_bits);
                let slot_addr = self.geometry.slot_addr(ri, li, slot);
                let mut head_buf = [0u8; 8];
                read_at(&self.file, slot_addr, &mut head_buf)?;
                let head = u64::from_le_bytes(head_buf);
                let action = if head != 0 {
                    let mut buf = vec![0u8; BLOCK_SIZE];
                    read_at(&self.file, head, &mut buf)?;
                    let block = BucketBlock::decode(&self.codec, &buf);
                    if block.entries.len() < ENTRIES_PER_BLOCK {
                        LinkAction::Squeeze { head, block }
                    } else {
                        LinkAction::Fresh { old_head: head }
                    }
                } else {
                    LinkAction::Fresh { old_head: 0 }
                };
                plans.push(LinkPlan {
                    ri,
                    li,
                    h32,
                    slot,
                    fp,
                    action,
                });
            }
        }

        let mut outcome = Ok(());
        if self.compat_always_reserve {
            // Legacy path: persist a worst-case reservation (one fresh
            // block per table past the current cursor) whether or not
            // any fresh block is needed. The exact state is flushed at
            // the end either way, so the final image is identical.
            let exact = self.sb.total_bytes;
            self.sb.total_bytes =
                self.next_block_addr + (self.geometry.num_tables() as u64) * BLOCK_SIZE as u64;
            outcome = self.flush_superblock();
            self.sb.total_bytes = exact;
        }

        // Phase 2: allocate fresh blocks (free-list pops first, heap
        // growth for the remainder) and persist the allocation in the
        // superblock *before* any entry is published. A crash after
        // this flush at worst leaks the allocated blocks — a later open
        // can never hand them out again, so chains cannot cross-link.
        // When every target chain has room this flush is skipped
        // entirely: the common squeeze-only insert pays one superblock
        // write (the final count flush) instead of two.
        let mut fresh_addrs = Vec::new();
        if outcome.is_ok() {
            let fresh_needed = plans
                .iter()
                .filter(|p| matches!(p.action, LinkAction::Fresh { .. }))
                .count();
            if fresh_needed > 0 {
                let heap_before = self.next_block_addr;
                for _ in 0..fresh_needed {
                    fresh_addrs.push(self.alloc_block_addr());
                }
                let popped_free = fresh_addrs.iter().any(|&a| a < heap_before);
                self.sb.total_bytes = self.next_block_addr;
                // In compat mode the worst-case reservation above
                // already covers pure heap growth; only free-list pops
                // (which the legacy path never had) still force a flush.
                if !self.compat_always_reserve || popped_free {
                    outcome = self.flush_superblock();
                }
            }
        }

        // Phase 3: link every table, in table order (fresh blocks are
        // consumed in the same order they were allocated, so the image
        // matches the sequential-allocation legacy path bit for bit).
        if outcome.is_ok() {
            let mut next_fresh = 0usize;
            'link: for plan in &plans {
                let (ri, li) = (plan.ri, plan.li);
                let step = match &plan.action {
                    LinkAction::Squeeze { head, block } => {
                        let mut block = block.clone();
                        block.entries.push((id, plan.fp));
                        self.write_block(*head, &block)
                    }
                    LinkAction::Fresh { old_head } => {
                        let block = BucketBlock {
                            next: *old_head,
                            entries: vec![(id, plan.fp)],
                        };
                        let addr = fresh_addrs[next_fresh];
                        next_fresh += 1;
                        // The block is fully written before the slot
                        // pointer publishes it, so a concurrent reader
                        // sees the old head or the complete new one,
                        // never a partial block.
                        let slot_addr = self.geometry.slot_addr(ri, li, plan.slot);
                        self.write_block(addr, &block)
                            .and_then(|()| self.write_tracked(slot_addr, &addr.to_le_bytes()))
                    }
                };
                outcome = step.and_then(|()| self.set_filter_bit(ri, li, plan.h32));
                if outcome.is_err() {
                    break 'link;
                }
            }
        }

        // Phase 4: consume the ID in every post-plan outcome (see the
        // doc comment) and flush the exact count and cursor. On failure
        // the final flush is best-effort: the in-memory bump keeps this
        // handle consistent, and a reopen sees either the allocation
        // flush or the exact state, both safe.
        self.sb.n += 1;
        self.sb.total_bytes = self.next_block_addr;
        let flushed = self.flush_superblock();
        outcome?;
        flushed?;
        Ok(id)
    }

    /// Remove an object from every chain it appears in. Returns the number
    /// of entries removed (normally `r·L`; fewer only if the index was
    /// already inconsistent — each missing chain is counted in
    /// [`WriteTrace::chain_inconsistencies`]). The ID itself is not
    /// reused.
    ///
    /// A block emptied by the delete is unlinked from its chain and
    /// pushed onto the persistent free list (unless the list is full, in
    /// which case it is rewritten empty in place and left for a later
    /// [`Updater::maintain`] pass). The coordinates should be retired
    /// from the caller's dataset too; stale occupancy-filter bits are
    /// left for `maintain`'s tombstone GC — until then they only cost a
    /// wasted probe, exactly the paper's trade-off of cheap deletes
    /// against rare rebuilds.
    pub fn delete(&mut self, point: &[f32], id: u32) -> io::Result<usize> {
        assert_eq!(point.len(), self.sb.dim as usize);
        self.op_stamp += 1;
        let mut removed = 0usize;
        let mut freed_any = false;
        let mut scratch = Vec::new();
        for ri in 0..self.geometry.num_radii {
            let radius = self.sb.radii[ri];
            for li in 0..self.geometry.l {
                let key64 = self
                    .family
                    .compound(ri, li)
                    .hash64(point, radius, &mut scratch);
                let h32 = hash_v_bits(key64, HASH_BITS);
                let (slot, _) = split_hash(h32, self.geometry.u_bits);
                let (r, freed) = self.unlink_entry(ri, li, slot, id)?;
                removed += r;
                freed_any |= freed;
                if r == 0 {
                    self.trace.chain_inconsistencies += 1;
                }
            }
        }
        if freed_any {
            // One write persists the grown free list; n and total_bytes
            // are unchanged by a delete.
            self.flush_superblock()?;
        }
        Ok(removed)
    }

    /// This handle's mirror of table `(ri, li)`'s occupancy-filter words
    /// — equal to the on-storage region after every operation, failed
    /// ones included.
    pub fn filter_words(&self, ri: usize, li: usize) -> &[u64] {
        &self.filters[ri * self.geometry.l + li]
    }

    /// Merge the in-memory filter state into an open [`StorageIndex`] so
    /// an in-process reader observes newly inserted hash values. (Readers
    /// opened from the file after the update see them automatically;
    /// the serving layer instead mirrors the per-operation
    /// [`WriteTrace::filter_bits`], which is cheaper than a full merge.)
    pub fn sync_filters_into(&self, index: &StorageIndex) {
        for (t, words) in self.filters.iter().enumerate() {
            let ri = t / self.geometry.l;
            let li = t % self.geometry.l;
            index.merge_filter_words(ri, li, words);
        }
    }

    /// One budgeted maintenance tick: resume the cursor where the last
    /// tick left off and scan chains until about `block_budget` bucket
    /// blocks have been read (the current slot is always finished).
    /// Three reclamation actions run per scanned slot:
    ///
    /// * **empty-block unlink** — blocks holding no live entries are
    ///   repointed past and freed;
    /// * **chain compaction** — a block whose entries fit in its
    ///   predecessor is merged into it (one atomic predecessor rewrite
    ///   carrying both the combined entries and the successor pointer)
    ///   and freed;
    /// * **tombstone GC** — the slot's filter block is
    ///   recomputed from its surviving entries and every other bit of
    ///   the slot's block is cleared, on storage and in the in-memory
    ///   mirror (the new block is exactly the union of the survivors'
    ///   bits, so this cannot drop a live object's bit).
    ///
    /// Freed blocks keep their bytes and enter the reuse quarantine;
    /// see the module docs for why a concurrent stale reader stays
    /// safe. Returns what was reclaimed; the caller mirrors
    /// [`MaintenanceReport::filter_words`] into its live index and
    /// invalidates [`WriteTrace::blocks`] as after any write.
    pub fn maintain(&mut self, block_budget: usize) -> io::Result<MaintenanceReport> {
        let mut rep = MaintenanceReport::default();
        if self.geometry.num_tables() == 0 || block_budget == 0 {
            return Ok(rep);
        }
        self.op_stamp += 1;
        let slots = self.geometry.slots();
        let mut budget = i64::try_from(block_budget).unwrap_or(i64::MAX);
        let mut sb_dirty = false;
        while budget > 0 {
            let t = self.maint_table;
            let (ri, li) = (t / self.geometry.l, t % self.geometry.l);
            let slot = self.maint_slot;
            let reads = self.maintain_slot(ri, li, slot, &mut rep, &mut sb_dirty)?;
            budget -= reads.max(1) as i64;
            self.maint_slot += 1;
            if self.maint_slot == slots {
                self.maint_slot = 0;
                self.maint_table += 1;
                if self.maint_table == self.geometry.num_tables() {
                    self.maint_table = 0;
                    rep.completed_pass = true;
                    break;
                }
            }
        }
        if sb_dirty {
            self.flush_superblock()?;
        }
        Ok(rep)
    }

    /// Scan one slot's chain: unlink empty blocks, merge mergeable
    /// neighbours, then GC the slot's filter block. Returns the number
    /// of block reads performed.
    fn maintain_slot(
        &mut self,
        ri: usize,
        li: usize,
        slot: u64,
        rep: &mut MaintenanceReport,
        sb_dirty: &mut bool,
    ) -> io::Result<u64> {
        let slot_addr = self.geometry.slot_addr(ri, li, slot);
        let mut head_buf = [0u8; 8];
        read_at(&self.file, slot_addr, &mut head_buf)?;
        let head = u64::from_le_bytes(head_buf);
        let mut reads = 0u64;
        // The slot's filter block as its chain's entries set it. An
        // entry's hash value reconstructs exactly from its stored
        // (slot, fingerprint): h32 = slot | (fp << u).
        let g = self.geometry;
        let (words, slot_mask) = g.filter_slot_words(slot);
        let mut live = vec![0u64; words.len()];
        let mut prev: Option<(u64, BucketBlock)> = None;
        let mut addr = head;
        while addr != 0 {
            let buf = self.read_chain_block(addr, rep)?;
            reads += 1;
            let block = BucketBlock::decode(&self.codec, &buf);
            let next = block.next;
            for &(_, fp) in &block.entries {
                for (word, bit) in g.filter_positions(slot | (u64::from(fp) << g.u_bits)) {
                    live[word - words.start] |= bit;
                }
            }
            if block.entries.is_empty() && self.can_free() {
                // Unlink: repoint whatever points at this block past
                // it, then free it without touching its bytes (a stale
                // reader that already holds its address still walks a
                // consistent chain).
                match &mut prev {
                    None => self.write_tracked(slot_addr, &next.to_le_bytes())?,
                    Some((paddr, pblock)) => {
                        pblock.next = next;
                        self.write_block(*paddr, pblock)?;
                    }
                }
                self.free_block(addr);
                rep.blocks_reclaimed += 1;
                rep.bytes_reclaimed += BLOCK_SIZE as u64;
                *sb_dirty = true;
                addr = next;
                continue;
            }
            if let Some((paddr, pblock)) = &mut prev {
                if pblock.entries.len() + block.entries.len() <= ENTRIES_PER_BLOCK
                    && self.can_free()
                {
                    // Compact: one predecessor rewrite both absorbs
                    // this block's entries and skips past it, so a
                    // reader sees the old chain or the merged one —
                    // never a state with entries missing. (A stale
                    // reader holding this block's address sees its old
                    // entries twice; the query merge dedups by id.)
                    pblock.entries.extend_from_slice(&block.entries);
                    pblock.next = next;
                    self.write_block(*paddr, pblock)?;
                    self.free_block(addr);
                    rep.blocks_reclaimed += 1;
                    rep.bytes_reclaimed += BLOCK_SIZE as u64;
                    *sb_dirty = true;
                    addr = next;
                    continue;
                }
            }
            prev = Some((addr, block));
            addr = next;
        }
        rep.blocks_scanned += reads;

        // Tombstone GC: the block becomes exactly the union of its live
        // entries' bits; bits of other slots sharing its word stay.
        let old = &self.filters[ri * g.l + li][words.clone()];
        for (new, &old) in live.iter_mut().zip(old) {
            rep.filter_bits_cleared += u64::from((old & slot_mask & !*new).count_ones());
            *new |= old & !slot_mask;
        }
        if live != old {
            self.store_filter_words(ri, li, words.start, &live)?;
            rep.filter_words
                .extend(words.zip(live).map(|(word, value)| (ri, li, word, value)));
        }
        Ok(reads)
    }

    /// True when the persistent free list has room for another block.
    fn can_free(&self) -> bool {
        self.sb.free.len() < MAX_FREE_LIST
    }

    /// Park `addr` on the free list and start its reuse quarantine.
    /// Callers persist the list with the next superblock flush.
    fn free_block(&mut self, addr: u64) {
        debug_assert!(self.can_free());
        debug_assert!(
            addr >= self.geometry.heap_base()
                && (addr - self.geometry.heap_base()).is_multiple_of(BLOCK_SIZE as u64)
        );
        self.sb.free.push(addr);
        self.quarantine.insert(addr, self.op_stamp);
        self.trace.blocks_freed += 1;
    }

    /// Next block address for a fresh chain head: the oldest
    /// quarantine-cleared free-list entry, else heap growth.
    fn alloc_block_addr(&mut self) -> u64 {
        let eligible = self.sb.free.iter().position(|a| {
            self.quarantine
                .get(a)
                .is_none_or(|&s| self.op_stamp.saturating_sub(s) >= self.quarantine_ops)
        });
        if let Some(i) = eligible {
            let addr = self.sb.free.remove(i);
            self.quarantine.remove(&addr);
            addr
        } else {
            let addr = self.next_block_addr;
            self.next_block_addr += BLOCK_SIZE as u64;
            addr
        }
    }

    /// Remove `id` from the chain of `slot` in table `(ri, li)`.
    /// Returns `(entries removed, block freed)`.
    fn unlink_entry(
        &mut self,
        ri: usize,
        li: usize,
        slot: u64,
        id: u32,
    ) -> io::Result<(usize, bool)> {
        let slot_addr = self.geometry.slot_addr(ri, li, slot);
        let mut head_buf = [0u8; 8];
        read_at(&self.file, slot_addr, &mut head_buf)?;
        let mut addr = u64::from_le_bytes(head_buf);
        let mut prev: Option<(u64, BucketBlock)> = None;
        while addr != 0 {
            let mut buf = vec![0u8; BLOCK_SIZE];
            read_at(&self.file, addr, &mut buf)?;
            let mut block = BucketBlock::decode(&self.codec, &buf);
            let before = block.entries.len();
            block.entries.retain(|&(eid, _)| eid != id);
            if block.entries.len() != before {
                let removed = before - block.entries.len();
                if block.entries.is_empty() && self.can_free() {
                    // Unlink the emptied block instead of rewriting it:
                    // repoint the predecessor (slot pointer or previous
                    // block) past it, then free it with its bytes
                    // intact for any stale reader mid-walk.
                    match prev {
                        None => self.write_tracked(slot_addr, &block.next.to_le_bytes())?,
                        Some((paddr, mut pblock)) => {
                            pblock.next = block.next;
                            self.write_block(paddr, &pblock)?;
                        }
                    }
                    self.free_block(addr);
                    return Ok((removed, true));
                }
                self.write_block(addr, &block)?;
                return Ok((removed, false)); // at most once per chain
            }
            let next = block.next;
            prev = Some((addr, block));
            addr = next;
        }
        Ok((0, false))
    }

    fn set_filter_bit(&mut self, ri: usize, li: usize, h32: u64) -> io::Result<()> {
        let g = self.geometry;
        let positions = g.filter_positions(h32);
        let filter = &self.filters[ri * g.l + li];
        if positions.iter().all(|&(word, bit)| filter[word] & bit != 0) {
            return Ok(());
        }
        let (words, _) = g.filter_slot_words(h32);
        let mut block = filter[words.clone()].to_vec();
        for (word, bit) in positions {
            block[word - words.start] |= bit;
        }
        self.store_filter_words(ri, li, words.start, &block)?;
        self.trace.filter_bits.push((ri, li, h32));
        Ok(())
    }

    /// Store a slot's filter block (`words`, from word `first` of table
    /// `(ri, li)`) in one positioned write, storage *before* the mirror:
    /// were a failed write mirrored, a later insert of the same hash
    /// value would early-return in `set_filter_bit` without persisting
    /// its bits — the object unfindable after a reopen, with no error.
    fn store_filter_words(
        &mut self,
        ri: usize,
        li: usize,
        first: usize,
        words: &[u64],
    ) -> io::Result<()> {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        self.write_checked(self.geometry.filter_base(ri, li) + first as u64 * 8, &bytes)?;
        self.filters[ri * self.geometry.l + li][first..first + words.len()].copy_from_slice(words);
        Ok(())
    }

    fn flush_superblock(&mut self) -> io::Result<()> {
        self.superblock_flushes += 1;
        let sb = self.sb.encode();
        self.write_checked(0, &sb)
    }
}

#[cfg(unix)]
fn read_at(file: &File, addr: u64, buf: &mut [u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    let mut read = 0usize;
    while read < buf.len() {
        match file.read_at(&mut buf[read..], addr + read as u64) {
            Ok(0) => {
                // Past EOF (fresh block region): zero-fill.
                buf[read..].fill(0);
                return Ok(());
            }
            Ok(k) => read += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(unix)]
fn write_at(file: &File, addr: u64, bytes: &[u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(bytes, addr)
}

#[cfg(not(unix))]
fn read_at(_: &File, _: u64, _: &mut [u8]) -> io::Result<()> {
    unimplemented!("updates require unix")
}
#[cfg(not(unix))]
fn write_at(_: &File, _: u64, _: &[u8]) -> io::Result<()> {
    unimplemented!("updates require unix")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, BuildConfig};
    use crate::device::sim::{Backing, DeviceProfile, SimStorage};
    use crate::device::Interface;
    use crate::query::{run_queries, EngineConfig};
    use crate::testutil::{temp_path, test_seed};
    use e2lsh_core::dataset::Dataset;
    use e2lsh_core::params::E2lshParams;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, dim: usize) -> Dataset {
        dataset_seeded(n, dim, 31)
    }

    fn dataset_seeded(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 10.0).collect())
            .collect();
        Dataset::from_rows(&rows)
    }

    fn nn_of(data: &Dataset, queries: &Dataset, path: &std::path::Path) -> Vec<Vec<(u32, f32)>> {
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(path).unwrap());
        let index = StorageIndex::open(&mut dev).unwrap();
        let mut cfg = EngineConfig::simulated(Interface::SPDK, 1);
        cfg.s_override = Some(1_000_000);
        run_queries(&index, data, queries, &cfg, &mut dev)
            .outcomes
            .into_iter()
            .map(|o| o.neighbors)
            .collect()
    }

    #[test]
    fn insert_makes_object_findable() {
        let ds = dataset(400, 8);
        // Build over the first 399 objects; insert the last one online.
        let initial = ds.prefix(399);
        let params = E2lshParams::derive(400, 2.0, 4.0, 1.0, ds.max_abs_coord(), 8);
        // Derive for n=400 so the codec has headroom for the insert.
        let mut p399 = params.clone();
        p399.n = 399;
        let path = temp_path("insert.idx");
        build_index(&initial, &p399, &BuildConfig::default(), &path).unwrap();

        let mut up = Updater::open(&path).unwrap();
        assert_eq!(up.len(), 399);
        let id = up.insert(ds.point(399)).unwrap();
        assert_eq!(id, 399);
        assert_eq!(up.len(), 400);
        drop(up);

        // Query exactly the inserted point: it must be its own NN.
        let queries = Dataset::from_rows(&[ds.point(399).to_vec()]);
        let res = nn_of(&ds, &queries, &path);
        assert_eq!(res[0].first().map(|r| r.0), Some(399));
        assert_eq!(res[0][0].1, 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delete_makes_object_unfindable() {
        let ds = dataset(300, 8);
        let params = E2lshParams::derive(300, 2.0, 4.0, 1.0, ds.max_abs_coord(), 8);
        let path = temp_path("delete.idx");
        build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();

        let victim = 123u32;
        let mut up = Updater::open(&path).unwrap();
        let removed = up.delete(ds.point(victim as usize), victim).unwrap();
        assert_eq!(
            removed,
            params.l * params.num_radii(),
            "must vanish from every table"
        );
        assert_eq!(up.trace().chain_inconsistencies, 0);
        drop(up);

        // Self-query for the victim must now return a different object.
        let queries = Dataset::from_rows(&[ds.point(victim as usize).to_vec()]);
        let res = nn_of(&ds, &queries, &path);
        if let Some(&(id, _)) = res[0].first() {
            assert_ne!(id, victim, "deleted object must not be returned");
        }
        std::fs::remove_file(&path).ok();
    }

    /// A maintenance tick whose chain reads are served from a block
    /// cache ([`Updater::set_scan_cache`]) must reclaim exactly what a
    /// device-read tick reclaims, leave a byte-identical file, and
    /// never touch the cache's query-facing counters (peek only).
    #[test]
    fn maintain_scan_cache_matches_device_reads() {
        let ds = dataset(200, 6);
        let params = E2lshParams::derive(200, 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
        let path_a = temp_path("maint_nocache.idx");
        build_index(&ds, &params, &BuildConfig::default(), &path_a).unwrap();
        let mut up = Updater::open(&path_a).unwrap();
        for i in (0..200).step_by(2) {
            up.delete(ds.point(i), i as u32).unwrap();
        }
        drop(up);
        let path_b = temp_path("maint_cache.idx");
        std::fs::copy(&path_a, &path_b).unwrap();

        let mut a = Updater::open(&path_a).unwrap();
        let rep_a = a.maintain(10_000).unwrap();
        assert_eq!(rep_a.scan_cache_hits, 0);
        drop(a);

        // Pre-fill a cache with the file's current heap blocks, keyed
        // exactly like the serving layer keys chain reads (`addr /
        // BLOCK_SIZE`, bytes starting at `addr`: heap blocks are
        // 512-spaced from `heap_base`, which need not be 512-aligned).
        let mut b = Updater::open(&path_b).unwrap();
        let bytes = std::fs::read(&path_b).unwrap();
        let cache = std::sync::Arc::new(crate::device::cached::BlockCache::new(1 << 16, 8));
        let mut addr = b.geometry().heap_base();
        while addr as usize + BLOCK_SIZE <= bytes.len() {
            cache.insert(
                addr / BLOCK_SIZE as u64,
                std::sync::Arc::from(&bytes[addr as usize..addr as usize + BLOCK_SIZE]),
            );
            addr += BLOCK_SIZE as u64;
        }
        let before = cache.counters();
        b.set_scan_cache(Some(std::sync::Arc::clone(&cache)));
        let rep_b = b.maintain(10_000).unwrap();
        drop(b);

        assert!(rep_b.scan_cache_hits > 0, "scan never used the cache");
        assert_eq!(rep_a.blocks_reclaimed, rep_b.blocks_reclaimed);
        assert_eq!(rep_a.filter_bits_cleared, rep_b.filter_bits_cleared);
        assert_eq!(
            rep_a.blocks_scanned, rep_b.blocks_scanned,
            "budget currency must not depend on cache state"
        );
        assert_eq!(rep_a.filter_words, rep_b.filter_words);
        assert_eq!(rep_a.completed_pass, rep_b.completed_pass);
        assert_eq!(
            std::fs::read(&path_a).unwrap(),
            std::fs::read(&path_b).unwrap(),
            "cache-served scan must leave a byte-identical index"
        );
        assert_eq!(
            (cache.counters().cache_hits, cache.counters().cache_misses),
            (before.cache_hits, before.cache_misses),
            "scan reads must not count as cache lookups"
        );
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    #[test]
    fn many_inserts_fill_chains_correctly() {
        let ds = dataset(260, 6);
        let initial = ds.prefix(10);
        let mut params = E2lshParams::derive(260, 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
        params.n = 10;
        let path = temp_path("many_inserts.idx");
        let cfg = BuildConfig {
            capacity: Some(260),
            ..Default::default()
        };
        build_index(&initial, &params, &cfg, &path).unwrap();
        let mut up = Updater::open(&path).unwrap();
        for i in 10..260 {
            assert_eq!(up.insert(ds.point(i)).unwrap(), i as u32);
        }
        drop(up);
        // Every object findable by self-query.
        let mut queries = Dataset::with_capacity(6, 26);
        for i in (0..260).step_by(10) {
            queries.push(ds.point(i));
        }
        let res = nn_of(&ds, &queries, &path);
        let mut found = 0;
        for (qi, r) in res.iter().enumerate() {
            if let Some(&(_, d)) = r.first() {
                if d == 0.0 {
                    found += 1;
                } else {
                    eprintln!("query {qi}: nn dist {d}");
                }
            }
        }
        assert!(found >= 24, "self-found {found}/26");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn delete_then_reinsert_roundtrip() {
        let ds = dataset(150, 6);
        let params = E2lshParams::derive(150, 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
        let path = temp_path("del_reins.idx");
        build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();
        let mut up = Updater::open(&path).unwrap();
        let removed = up.delete(ds.point(7), 7).unwrap();
        assert!(removed > 0);
        // Re-inserting the same coordinates gets a fresh ID.
        let new_id = up.insert(ds.point(7)).unwrap();
        assert_eq!(new_id, 150);
        drop(up);
        // The coordinates live at index 150 now; extend the DRAM dataset.
        let mut extended = ds.clone();
        extended.push(ds.point(7));
        let queries = Dataset::from_rows(&[ds.point(7).to_vec()]);
        let res = nn_of(&extended, &queries, &path);
        assert_eq!(res[0].first().map(|r| r.1), Some(0.0));
        assert_eq!(res[0][0].0, 150);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn id_exhaustion_is_typed_and_consumes_nothing() {
        let ds = dataset(4, 6);
        let mut params = E2lshParams::derive(4, 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
        params.n = 4;
        let path = temp_path("id_exhaust.idx");
        // capacity 4 → id_bits 2 → ids 0..=3, all used at build time.
        let cfg = BuildConfig {
            capacity: Some(4),
            ..Default::default()
        };
        build_index(&ds, &params, &cfg, &path).unwrap();
        let mut up = Updater::open(&path).unwrap();
        assert_eq!(up.len(), 4);
        let before_flushes = up.superblock_flushes();
        let err = up.insert(ds.point(0)).unwrap_err();
        assert!(is_id_exhausted(&err), "want typed error, got {err:?}");
        assert!(!is_id_exhausted(&io::Error::other("x")));
        // No mutation: no burned id, no writes, no trace.
        assert_eq!(up.len(), 4, "id must not be consumed");
        assert_eq!(up.superblock_flushes(), before_flushes);
        assert!(up.trace().is_empty());
        // The condition is permanent.
        assert!(is_id_exhausted(&up.insert(ds.point(1)).unwrap_err()));
        // Deletes still work.
        assert!(up.delete(ds.point(2), 2).unwrap() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn squeeze_insert_skips_reservation_flush() {
        let ds = dataset(90, 8);
        let initial = ds.prefix(89);
        let mut params = E2lshParams::derive(90, 2.0, 4.0, 1.0, ds.max_abs_coord(), 8);
        params.n = 89;
        let path = temp_path("skip_flush.idx");
        build_index(&initial, &params, &BuildConfig::default(), &path).unwrap();
        let mut up = Updater::open(&path).unwrap();
        // Re-inserting the coordinates of a built object hits that
        // object's chains in every table, so every head exists; with 89
        // entries per table no head block can be full, so the insert is
        // squeeze-only: exactly one superblock flush (the final count),
        // not two.
        let before = up.superblock_flushes();
        up.insert(ds.point(5)).unwrap();
        assert_eq!(
            up.superblock_flushes() - before,
            1,
            "squeeze-only insert must skip the reservation flush"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn skipped_reservation_flush_is_bit_exact_with_legacy_path() {
        let ds = dataset(120, 6);
        let initial = ds.prefix(40);
        let mut params = E2lshParams::derive(120, 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
        params.n = 40;
        let path_new = temp_path("bitexact_new.idx");
        let path_old = temp_path("bitexact_old.idx");
        let cfg = BuildConfig {
            capacity: Some(400),
            ..Default::default()
        };
        build_index(&initial, &params, &cfg, &path_new).unwrap();
        build_index(&initial, &params, &cfg, &path_old).unwrap();
        // Mixed workload: fresh points (mostly empty slots → fresh
        // blocks) and re-inserted coordinates (existing chains with
        // room → squeeze-only inserts that skip the reservation flush).
        let workload: Vec<usize> = (40..80).chain((0..40).map(|i| i % 40)).collect();
        let mut flushes = (0u64, 0u64);
        {
            let mut up = Updater::open(&path_new).unwrap();
            for &i in &workload {
                up.insert(ds.point(i)).unwrap();
            }
            flushes.0 = up.superblock_flushes();
        }
        {
            let mut up = Updater::open(&path_old).unwrap();
            up.set_compat_reservation_flush(true);
            for &i in &workload {
                up.insert(ds.point(i)).unwrap();
            }
            flushes.1 = up.superblock_flushes();
        }
        let new_img = std::fs::read(&path_new).unwrap();
        let old_img = std::fs::read(&path_old).unwrap();
        assert_eq!(new_img, old_img, "final images must be bit-identical");
        // Legacy flushes twice per insert; the new path saves the
        // reservation flush on every squeeze-only insert.
        assert_eq!(flushes.1, 2 * 80, "legacy: 2 flushes per insert");
        assert!(
            flushes.0 < flushes.1,
            "new path must flush less ({} vs {})",
            flushes.0,
            flushes.1
        );
        std::fs::remove_file(&path_new).ok();
        std::fs::remove_file(&path_old).ok();
    }

    #[test]
    fn emptied_blocks_are_freed_and_reused() {
        let ds = dataset(60, 6);
        let mut params = E2lshParams::derive(60, 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
        params.n = 30;
        let initial = ds.prefix(30);
        let path = temp_path("free_reuse.idx");
        let cfg = BuildConfig {
            capacity: Some(4000),
            ..Default::default()
        };
        build_index(&initial, &params, &cfg, &path).unwrap();
        // Baseline file: identical workload with reuse disabled
        // (infinite quarantine) can only grow the heap. Both handles
        // stay open throughout — a reopen empties the quarantine by
        // design (no reader predates a fresh handle).
        let path_noreuse = temp_path("free_reuse_baseline.idx");
        std::fs::copy(&path, &path_noreuse).unwrap();
        let mut up = Updater::open(&path).unwrap();
        up.set_reuse_quarantine_ops(0);
        let mut base = Updater::open(&path_noreuse).unwrap();
        base.set_reuse_quarantine_ops(u64::MAX);
        // Delete everything: most chains hold 1–2 entries per block, so
        // emptied blocks stream onto the free list.
        for i in 0..30 {
            up.delete(ds.point(i), i as u32).unwrap();
            base.delete(ds.point(i), i as u32).unwrap();
        }
        let freed = up.free_list_len();
        assert!(freed > 0, "deleting all objects must free blocks");
        let plateau = up.total_bytes();
        // Reinsert: allocation must draw from the free list before
        // growing the heap, so the footprint stays well below the
        // no-reuse baseline while the free list drains.
        for i in 30..60 {
            up.insert(ds.point(i)).unwrap();
            base.insert(ds.point(i)).unwrap();
        }
        assert!(
            up.free_list_len() < freed,
            "inserts must consume the free list"
        );
        let growth = up.total_bytes() - plateau;
        let growth_noreuse = base.total_bytes() - plateau;
        assert!(
            growth + (freed - up.free_list_len()) as u64 * BLOCK_SIZE as u64 == growth_noreuse,
            "every drained free block must have displaced one heap block \
             (growth {growth}, no-reuse {growth_noreuse})"
        );
        assert!(growth < growth_noreuse, "reuse must shrink the footprint");
        drop(base);
        std::fs::remove_file(&path_noreuse).ok();
        drop(up);
        // Survivors are all findable.
        let mut extended = initial.clone();
        for i in 30..60 {
            extended.push(ds.point(i));
        }
        let mut queries = Dataset::with_capacity(6, 30);
        for i in 30..60 {
            queries.push(ds.point(i));
        }
        let res = nn_of(&extended, &queries, &path);
        let found = res
            .iter()
            .filter(|r| r.first().is_some_and(|&(_, d)| d == 0.0))
            .count();
        assert!(found >= 28, "self-found {found}/30 after reuse");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quarantine_delays_reuse() {
        let ds = dataset(40, 6);
        let mut params = E2lshParams::derive(40, 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
        params.n = 20;
        let initial = ds.prefix(20);
        let path = temp_path("quarantine.idx");
        let cfg = BuildConfig {
            capacity: Some(4000),
            ..Default::default()
        };
        build_index(&initial, &params, &cfg, &path).unwrap();
        let mut up = Updater::open(&path).unwrap();
        up.set_reuse_quarantine_ops(1_000_000);
        for i in 0..20 {
            up.delete(ds.point(i), i as u32).unwrap();
        }
        assert!(up.free_list_len() > 0);
        let free_before = up.free_list_len();
        let bytes_before = up.total_bytes();
        up.insert(ds.point(20)).unwrap();
        // Quarantined blocks must not be reused: the heap grew instead.
        assert_eq!(up.free_list_len(), free_before);
        assert!(up.total_bytes() > bytes_before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn free_list_survives_reopen() {
        let ds = dataset(30, 6);
        let params = E2lshParams::derive(30, 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
        let path = temp_path("free_persist.idx");
        build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();
        let freed;
        {
            let mut up = Updater::open(&path).unwrap();
            for i in 0..30 {
                up.delete(ds.point(i), i as u32).unwrap();
            }
            freed = up.free_list_len();
            assert!(freed > 0);
        }
        let up = Updater::open(&path).unwrap();
        assert_eq!(up.free_list_len(), freed, "free list must persist");
        std::fs::remove_file(&path).ok();
    }

    /// The filter region of the image at `path`, one word vector per
    /// table.
    fn filters_on_disk(path: &std::path::Path, g: &TableGeometry) -> Vec<Vec<u64>> {
        let image = std::fs::read(path).unwrap();
        (0..g.num_tables())
            .map(|t| {
                let base = g.filter_base(t / g.l, t % g.l) as usize;
                image[base..base + g.filter_bytes_per_table() as usize]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .collect()
            })
            .collect()
    }

    /// Delete half of a built index, insert a few new objects, run one
    /// full maintenance pass: the filter region on disk, the updater's
    /// mirror and a live index kept in sync the way the serving layer
    /// does it must all equal, word for word, the filter region of a
    /// fresh build over the survivors with the same seed and geometry.
    /// Returns the pass's report and the churned image's path.
    fn gc_matches_fresh_build(
        u_bits: Option<u32>,
        filter_bits: Option<u32>,
    ) -> (MaintenanceReport, Dataset, std::path::PathBuf) {
        let ds = dataset_seeded(220, 8, test_seed() ^ 0x6C);
        let built = ds.prefix(200);
        let params = E2lshParams::derive(200, 2.0, 4.0, 1.0, ds.max_abs_coord(), 8);
        let cfg = BuildConfig {
            u_bits,
            filter_bits,
            capacity: Some(400),
            ..Default::default()
        };
        let path = temp_path("gc_filters.idx");
        build_index(&built, &params, &cfg, &path).unwrap();
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
        let live = StorageIndex::open(&mut dev).unwrap();

        let mut up = Updater::open(&path).unwrap();
        for i in 0..100 {
            up.delete(ds.point(i), i as u32).unwrap();
        }
        for i in 200..220 {
            up.insert(ds.point(i)).unwrap();
        }
        for (ri, li, h32) in up.take_trace().filter_bits {
            live.set_filter_bit(ri, li, h32);
        }
        let rep = up.maintain(usize::MAX).unwrap();
        assert!(rep.completed_pass);
        for &(ri, li, word, value) in &rep.filter_words {
            live.set_filter_word(ri, li, word, value);
        }
        // A second pass over the already-clean index changes nothing.
        let rep2 = up.maintain(usize::MAX).unwrap();
        assert!(!rep2.productive(), "second pass must be a no-op");
        assert!(rep2.filter_words.is_empty());

        let mut survivors = Dataset::with_capacity(8, 120);
        for i in 100..220 {
            survivors.push(ds.point(i));
        }
        let mut fresh_params = params.clone();
        fresh_params.n = survivors.len();
        let fresh_path = temp_path("gc_filters_fresh.idx");
        build_index(&survivors, &fresh_params, &cfg, &fresh_path).unwrap();
        let g = *up.geometry();
        let fresh = filters_on_disk(&fresh_path, &g);
        assert!(fresh.iter().flatten().any(|&w| w != 0));
        assert_eq!(filters_on_disk(&path, &g), fresh, "GC on disk is not exact");
        assert_eq!(up.filters, fresh, "updater mirror is not exact");
        for (t, want) in fresh.iter().enumerate() {
            assert_eq!(&live.filter_words(t / g.l, t % g.l), want, "live index");
        }
        std::fs::remove_file(&fresh_path).ok();
        (rep, ds, path)
    }

    #[test]
    fn maintain_clears_stale_filter_bits_exactly() {
        let (rep, ds, path) = gc_matches_fresh_build(None, None);
        assert!(
            rep.filter_bits_cleared > 0,
            "deleting half the objects must strand filter bits"
        );
        assert_eq!(
            rep.bytes_reclaimed,
            rep.blocks_reclaimed * BLOCK_SIZE as u64
        );
        // Exact means no false negative either: every sampled survivor
        // still self-queries at distance 0.
        let mut queries = Dataset::with_capacity(8, 20);
        for i in (100..200).step_by(5) {
            queries.push(ds.point(i));
        }
        let res = nn_of(&ds, &queries, &path);
        let found = res
            .iter()
            .filter(|r| r.first().is_some_and(|&(_, d)| d == 0.0))
            .count();
        assert!(found >= 18, "survivors self-found {found}/20 after GC");
        std::fs::remove_file(&path).ok();
    }

    /// The two edges of the block layout. `filter_bits == u_bits`: one
    /// bit per slot, all positions coincide, GC clears the bit exactly
    /// when the chain is empty. Blocks narrower than a word: 64 / 2^c
    /// slots share each word, so GC must rewrite its own bits and leave
    /// the neighbours' (overwriting the word would drop live objects of
    /// up to 63 other slots). And one block of many words (c = 10).
    #[test]
    fn maintain_gc_is_exact_at_the_edges_of_the_block_layout() {
        for c in [0u32, 2, 5, 10] {
            let (rep, _, path) = gc_matches_fresh_build(Some(8), Some(8 + c));
            assert!(rep.filter_bits_cleared > 0, "c = {c}: nothing cleared");
            std::fs::remove_file(&path).ok();
        }
    }

    /// Fail every write of an insert in turn (each run replays the same
    /// writes up to the failed one, so every filter write of the clean
    /// insert is failed exactly once). Whichever write it was, the
    /// updater's mirror and the filter region on disk agree afterwards —
    /// a failed filter write leaves both without the new bits — so a
    /// reopened handle that retries the insert persists what the failed
    /// one could not, and the object is findable in every table.
    #[test]
    fn failed_filter_write_leaves_mirror_and_disk_without_the_new_bits() {
        let ds = dataset_seeded(121, 8, test_seed() ^ 0xF1);
        let mut params = E2lshParams::derive(121, 2.0, 4.0, 1.0, ds.max_abs_coord(), 8);
        params.n = 120;
        let base = temp_path("filter_fail_base.idx");
        build_index(&ds.prefix(120), &params, &BuildConfig::default(), &base).unwrap();
        let path = temp_path("filter_fail.idx");
        for n in 0.. {
            std::fs::copy(&base, &path).unwrap();
            let mut up = Updater::open(&path).unwrap();
            let g = *up.geometry();
            up.fail_after_writes(Some(n));
            let res = up.insert(ds.point(120));
            assert_eq!(up.filters, filters_on_disk(&path, &g), "write {n} failed");
            if res.is_ok() {
                let filter_writes = up.trace().filter_bits.len();
                assert!(filter_writes > 0 && (filter_writes as u64) < n);
                break;
            }
            drop(up);
            let mut up = Updater::open(&path).unwrap();
            up.insert(ds.point(120)).unwrap();
            drop(up);
            let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
            let reopened = StorageIndex::open(&mut dev).unwrap();
            let mut scratch = Vec::new();
            for t in 0..g.num_tables() {
                let (ri, li) = (t / g.l, t % g.l);
                let compound = reopened.family().compound(ri, li);
                let key = compound.hash64(ds.point(120), params.radii[ri], &mut scratch);
                assert!(
                    reopened.filter_hit(ri, li, hash_v_bits(key, HASH_BITS)),
                    "retry after failed write {n} left table ({ri}, {li}) without its bits"
                );
            }
        }
        std::fs::remove_file(&base).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn maintain_respects_block_budget() {
        let ds = dataset(200, 8);
        let params = E2lshParams::derive(200, 2.0, 4.0, 1.0, ds.max_abs_coord(), 8);
        let path = temp_path("gc_budget.idx");
        build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();
        let mut up = Updater::open(&path).unwrap();
        for i in 0..100 {
            up.delete(ds.point(i), i as u32).unwrap();
        }
        // Tiny ticks must make incremental progress and eventually
        // complete a full pass with the same total effect.
        let mut total = MaintenanceReport::default();
        let mut ticks = 0;
        while !total.completed_pass {
            let rep = up.maintain(8).unwrap();
            assert!(rep.blocks_scanned <= 8 + ENTRIES_PER_BLOCK as u64);
            total.merge(&rep);
            ticks += 1;
            assert!(ticks < 1_000_000, "budgeted maintenance must terminate");
        }
        assert!(ticks > 1, "a tiny budget must take multiple ticks");
        assert!(total.filter_bits_cleared > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn maintain_compacts_sparse_chains() {
        // One distinct seed object plus ~300 copies of the same point:
        // every copy hashes to the same slot per table, so the chains
        // grow to several full blocks. Deleting all but every 6th copy
        // leaves the full blocks ~1/6 full — sparse but not empty, so
        // the delete path cannot reclaim them (only each chain's
        // two-entry tail block empties) and only maintain's merge step
        // can recover the slack.
        let ds = dataset(2, 6);
        let mut params = E2lshParams::derive(310, 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
        params.n = 1;
        let initial = ds.prefix(1);
        let path = temp_path("compact.idx");
        let cfg = BuildConfig {
            capacity: Some(310),
            ..Default::default()
        };
        build_index(&initial, &params, &cfg, &path).unwrap();
        let mut up = Updater::open(&path).unwrap();
        for i in 1..300 {
            assert_eq!(up.insert(ds.point(1)).unwrap(), i as u32);
        }
        for id in 1..300u32 {
            if id % 6 != 0 {
                let removed = up.delete(ds.point(1), id).unwrap();
                assert!(removed > 0);
            }
        }
        let free_before = up.free_list_len();
        let rep = up.maintain(usize::MAX).unwrap();
        assert!(
            rep.blocks_reclaimed > 0,
            "sparse chains must compact: {rep:?}"
        );
        assert_eq!(
            rep.bytes_reclaimed,
            rep.blocks_reclaimed * BLOCK_SIZE as u64
        );
        assert!(
            up.free_list_len() > free_before,
            "merged-away blocks join the free list"
        );
        drop(up);
        // The survivors (every 6th copy and the seed) are all still
        // reachable: a self-query of the shared coordinates must find a
        // distance-0 neighbor.
        let mut extended = Dataset::with_capacity(6, 300);
        extended.push(ds.point(0));
        for _ in 1..300 {
            extended.push(ds.point(1));
        }
        let queries = Dataset::from_rows(&[ds.point(1).to_vec()]);
        let res = nn_of(&extended, &queries, &path);
        assert_eq!(res[0].first().map(|r| r.1), Some(0.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_delete_counts_chain_inconsistency() {
        let ds = dataset(50, 6);
        let params = E2lshParams::derive(50, 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
        let path = temp_path("inconsistent.idx");
        build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();
        let mut up = Updater::open(&path).unwrap();
        // Deleting an id that was never inserted (120 < capacity 100's
        // id space but > any live id) finds nothing in any chain: every
        // table is counted.
        let removed = up.delete(ds.point(3), 120).unwrap();
        assert_eq!(removed, 0);
        let expect = (params.l * params.num_radii()) as u64;
        assert_eq!(up.take_trace().chain_inconsistencies, expect);
        // A well-formed delete reports none.
        up.delete(ds.point(3), 3).unwrap();
        assert_eq!(up.take_trace().chain_inconsistencies, 0);
        std::fs::remove_file(&path).ok();
    }
}
