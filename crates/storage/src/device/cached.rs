//! DRAM block cache in front of any [`Device`].
//!
//! E2LSHoS keeps the hash index on storage to scale past DRAM, but real
//! query streams are skewed: hot buckets (popular hash prefixes, repeated
//! or clustered queries) are read over and over. [`CachedDevice`] wraps
//! any device with a sharded cache over 512-byte blocks so repeated
//! reads of hash-table slots and bucket blocks are served from DRAM with
//! zero device time, while cold reads pass through and fill the cache on
//! completion.
//!
//! The cache itself ([`BlockCache`]) is shared (`Arc<BlockCache>`): the
//! serving layer gives each replica of a dataset shard its own, held by
//! the replica's device — the lookup path — and by the shard's writer,
//! which invalidates the blocks it rewrites. Segment-level mutexes keep
//! their contention low (each lock guards `1/num_shards` of the key
//! space).
//!
//! ## Replacement policies
//!
//! Two policies are available through [`CachePolicy`]:
//!
//! * [`CachePolicy::Lru`] (the default) — one recency list per lock
//!   shard, admit everything. Bit-exact with the original PR-1 cache.
//! * [`CachePolicy::TinyLfu`] — W-TinyLFU: a small LRU *window*
//!   (~1% of capacity) absorbs arrivals; overflow candidates are
//!   admitted into a segmented main area (probation + protected) only
//!   when a 4-bit count-min frequency sketch ([`CmSketch`], with a
//!   doorkeeper bloom filter and periodic halving) estimates them hotter
//!   than the eviction victim. One-hit-wonder blocks from scans and
//!   churn die in the window instead of displacing proven-hot blocks.
//!   Optionally the capacity is **region-partitioned**: hash-table-slot
//!   blocks (addresses below [`TinyLfuConfig::region_boundary`]) and
//!   bucket-chain blocks each get their own budget, so a deep chain walk
//!   can never flush the small, ultra-hot table blocks.
//!
//! Hits, misses, evictions, invalidations, discarded stale fills,
//! admission rejections, per-region hits/misses and coalesced reads are
//! surfaced through the corresponding [`DeviceStats`] fields, so every
//! report that prints device statistics can report cache effectiveness
//! too.
//!
//! Writers (the online update path) invalidate exactly the blocks they
//! rewrite; per-key epochs make sure a racing miss fill for an
//! invalidated block is discarded while fills for unrelated blocks
//! survive (see [`BlockCache`]). [`CachedDevice`] can additionally
//! **coalesce** concurrent misses on one key into a single device read
//! (single-flight): waiters park on the leader's in-flight fill and
//! receive its bytes at the leader's completion time.

use super::{Device, DeviceStats, IoCompletion, IoRequest};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const NIL: usize = usize::MAX;

/// Region indices: hash-table-slot blocks vs bucket-chain blocks.
const TABLE: usize = 0;
const BUCKET: usize = 1;

/// Segment indices within a region.
const SEG_WINDOW: usize = 0;
const SEG_PROBATION: usize = 1;
const SEG_PROTECTED: usize = 2;

/// Replacement/admission policy of a [`BlockCache`].
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum CachePolicy {
    /// Plain sharded LRU, admit everything (the PR-1 cache, bit-exact).
    #[default]
    Lru,
    /// W-TinyLFU: frequency-gated admission with a recency window, plus
    /// optional table/bucket region partitioning.
    TinyLfu(TinyLfuConfig),
}

/// The one knob of [`CachePolicy::TinyLfu`]; the segment shape is fixed
/// (Caffeine's defaults, the constants below).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct TinyLfuConfig {
    /// First bucket-region block key (block units, i.e.
    /// `heap_base / BLOCK_SIZE`): keys below it are table-region, keys
    /// at or above it bucket-region. 0 (the default) disables
    /// partitioning (single region) — the serving layer fills this in
    /// from the shard's geometry.
    pub region_boundary: u64,
}

impl TinyLfuConfig {
    /// Fraction of each region's capacity given to the admission window
    /// (clamped to at least one block).
    pub const WINDOW_FRACTION: f64 = 0.01;
    /// Fraction of the main (non-window) area reserved for the
    /// protected segment; blocks re-referenced while on probation are
    /// promoted into it.
    pub const PROTECTED_FRACTION: f64 = 0.8;
    /// Fraction of total capacity budgeted to the table region when
    /// `region_boundary > 0` (clamped so both regions keep at least one
    /// block, and to the actual number of table blocks striped onto
    /// each lock shard).
    const TABLE_FRACTION: f64 = 0.2;
}

/// A 4-bit count-min frequency sketch with a doorkeeper bloom filter and
/// periodic halving (TinyLFU aging), deterministic in its inputs.
///
/// The first occurrence of a key lands in the doorkeeper; repeats
/// increment four 4-bit counters (saturating at 15). When the number of
/// additions reaches the sample period (10× the counter count) every
/// counter is halved and the doorkeeper cleared, so old popularity decays
/// and the estimate tracks *recent* frequency. [`CmSketch::estimate`]
/// returns the counter minimum plus one when the doorkeeper holds the
/// key — an upper bound on the true (post-halving) count.
pub struct CmSketch {
    /// 4-bit counters packed 16 per word.
    table: Vec<u64>,
    /// Counter-index mask (`counters − 1`, power of two).
    mask: u64,
    /// Doorkeeper bloom bits.
    doorkeeper: Vec<u64>,
    /// Doorkeeper bit-index mask (power-of-two bit count − 1).
    dk_mask: u64,
    additions: u64,
    sample_period: u64,
}

impl CmSketch {
    const SEEDS: [u64; 4] = [
        0xA076_1D64_78BD_642F,
        0xE703_7ED1_A0B4_28DB,
        0x8EBC_6AF0_9C88_C6E3,
        0x5899_65CC_7537_4CC3,
    ];

    /// Sketch sized for roughly `capacity` distinct hot keys (at least
    /// 64 counters, rounded up to a power of two).
    pub fn new(capacity: usize) -> Self {
        let counters = capacity.max(64).next_power_of_two();
        let dk_bits = (counters * 8).next_power_of_two();
        Self {
            table: vec![0; counters / 16],
            mask: (counters - 1) as u64,
            doorkeeper: vec![0; dk_bits / 64],
            dk_mask: (dk_bits - 1) as u64,
            additions: 0,
            sample_period: 10 * counters as u64,
        }
    }

    #[inline]
    fn spread(key: u64, seed: u64) -> u64 {
        let mut h = key ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }

    #[inline]
    fn counter_at(&self, key: u64, seed: u64) -> (usize, u32) {
        let c = Self::spread(key, seed) & self.mask;
        ((c / 16) as usize, ((c % 16) * 4) as u32)
    }

    fn dk_contains(&self, key: u64) -> bool {
        Self::SEEDS[..2].iter().all(|&s| {
            let b = Self::spread(key, s.rotate_left(17)) & self.dk_mask;
            self.doorkeeper[(b / 64) as usize] & (1 << (b % 64)) != 0
        })
    }

    fn dk_set(&mut self, key: u64) {
        for &s in &Self::SEEDS[..2] {
            let b = Self::spread(key, s.rotate_left(17)) & self.dk_mask;
            self.doorkeeper[(b / 64) as usize] |= 1 << (b % 64);
        }
    }

    /// Record one occurrence of `key`. Triggers a halving pass when the
    /// additions counter reaches the sample period.
    pub fn increment(&mut self, key: u64) {
        if self.dk_contains(key) {
            for &seed in &Self::SEEDS {
                let (w, shift) = self.counter_at(key, seed);
                if (self.table[w] >> shift) & 0xF < 15 {
                    self.table[w] += 1 << shift;
                }
            }
        } else {
            self.dk_set(key);
        }
        self.additions += 1;
        if self.additions >= self.sample_period {
            self.halve();
        }
    }

    /// Estimated occurrence count of `key` since the last few halvings:
    /// minimum over the four counters, plus one when the doorkeeper
    /// holds the key.
    pub fn estimate(&self, key: u64) -> u32 {
        let mut min = u32::MAX;
        for &seed in &Self::SEEDS {
            let (w, shift) = self.counter_at(key, seed);
            min = min.min(((self.table[w] >> shift) & 0xF) as u32);
        }
        min + u32::from(self.dk_contains(key))
    }

    /// The aging step: halve every counter and clear the doorkeeper
    /// (public so tests and benches can force an aging boundary).
    pub fn halve(&mut self) {
        for w in &mut self.table {
            *w = (*w >> 1) & 0x7777_7777_7777_7777;
        }
        self.doorkeeper.iter_mut().for_each(|w| *w = 0);
        self.additions /= 2;
    }

    /// Occurrences recorded since roughly the last halving.
    pub fn additions(&self) -> u64 {
        self.additions
    }
}

/// One intrusive doubly-linked list over the shard's node slab.
#[derive(Clone, Copy)]
struct Dll {
    head: usize,
    tail: usize,
    len: usize,
}

impl Dll {
    fn new() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// One capacity region (table or bucket) of a lock shard: window,
/// probation and protected segments with their budgets.
struct Region {
    lists: [Dll; 3],
    total_cap: usize,
    window_cap: usize,
    protected_cap: usize,
}

impl Region {
    fn empty() -> Self {
        Self {
            lists: [Dll::new(); 3],
            total_cap: 0,
            window_cap: 0,
            protected_cap: 0,
        }
    }

    /// Plain LRU: the whole region is one window list.
    fn lru(cap: usize) -> Self {
        Self {
            lists: [Dll::new(); 3],
            total_cap: cap,
            window_cap: cap,
            protected_cap: 0,
        }
    }

    fn tiny_lfu(cap: usize) -> Self {
        let window =
            (((cap as f64) * TinyLfuConfig::WINDOW_FRACTION).round() as usize).clamp(1, cap);
        let main = cap - window;
        let protected = ((main as f64) * TinyLfuConfig::PROTECTED_FRACTION).floor() as usize;
        Self {
            lists: [Dll::new(); 3],
            total_cap: cap,
            window_cap: window,
            protected_cap: protected,
        }
    }

    fn len(&self) -> usize {
        self.lists.iter().map(|l| l.len).sum()
    }

    fn main_cap(&self) -> usize {
        self.total_cap - self.window_cap
    }
}

struct Node {
    key: u64,
    data: Arc<[u8]>,
    prev: usize,
    next: usize,
    region: u8,
    seg: u8,
}

/// Evictions and admission rejections one insert caused (folded into the
/// cache-level counters outside the shard lock).
#[derive(Default, Clone, Copy)]
struct InsertOutcome {
    evicted: u64,
    rejected: u64,
}

/// One lock shard: a slab of nodes shared by up to two regions × three
/// segments, the policy's frequency sketch, and the per-key invalidation
/// epochs.
struct CacheShard {
    map: HashMap<u64, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    regions: [Region; 2],
    /// `Some` under TinyLFU (the admission filter), `None` under LRU.
    sketch: Option<CmSketch>,
    /// Budget-partition boundary in block units (0 = single region).
    boundary: u64,
    capacity: usize,
    /// Per-key invalidation counters (sparse: only keys invalidated
    /// since this segment's last flush appear). Guarded by the same
    /// mutex as the entries, so epoch reads/bumps are atomic with entry
    /// removal and with fill insertion. Bounded: when the map outgrows
    /// [`CacheShard::epoch_bound`], the segment's `flush` epoch is
    /// bumped and the map dropped — every in-flight fill into this
    /// segment is then conservatively discarded, which is the old
    /// cache-global behaviour for one rare moment instead of on every
    /// write.
    epochs: HashMap<u64, u64>,
    /// This segment's flush epoch: bumped by
    /// [`BlockCache::invalidate_all`] and by epoch-map overflow; gates
    /// every in-flight fill into the segment.
    flush: u64,
}

impl CacheShard {
    fn new(capacity: usize, policy: CachePolicy, table_blocks_hint: usize) -> Self {
        let mut regions = [Region::empty(), Region::empty()];
        let mut sketch = None;
        let mut boundary = 0u64;
        match policy {
            CachePolicy::Lru => {
                regions[BUCKET] = Region::lru(capacity);
            }
            CachePolicy::TinyLfu(cfg) => {
                if cfg.region_boundary > 0 && capacity >= 2 {
                    let want = ((capacity as f64) * TinyLfuConfig::TABLE_FRACTION).round() as usize;
                    let table_cap = want.clamp(1, capacity - 1).min(table_blocks_hint.max(1));
                    regions[TABLE] = Region::tiny_lfu(table_cap);
                    regions[BUCKET] = Region::tiny_lfu(capacity - table_cap);
                    boundary = cfg.region_boundary;
                } else {
                    regions[BUCKET] = Region::tiny_lfu(capacity);
                }
                sketch = Some(CmSketch::new(capacity));
            }
        }
        Self {
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            nodes: Vec::new(),
            free: Vec::new(),
            regions,
            sketch,
            boundary,
            capacity,
            epochs: HashMap::new(),
            flush: 0,
        }
    }

    /// Epoch snapshot for a fill of `key` beginning now.
    fn fill_epoch(&self, key: u64) -> FillEpoch {
        FillEpoch {
            key_epoch: self.epochs.get(&key).copied().unwrap_or(0),
            flush_epoch: self.flush,
        }
    }

    /// True when `epoch` is still current for `key`.
    fn is_fresh(&self, key: u64, epoch: FillEpoch) -> bool {
        self.fill_epoch(key) == epoch
    }

    /// Cap on the sparse epoch map before it is traded for a segment
    /// flush (memory bound: a long-lived cache under a sustained write
    /// stream would otherwise accumulate one entry per distinct block
    /// ever invalidated).
    fn epoch_bound(&self) -> usize {
        (self.capacity * 4).max(1024)
    }

    #[inline]
    fn region_of(&self, key: u64) -> usize {
        if self.boundary > 0 && key < self.boundary {
            TABLE
        } else {
            BUCKET
        }
    }

    fn unlink(&mut self, i: usize) {
        let (r, seg) = (self.nodes[i].region as usize, self.nodes[i].seg as usize);
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.regions[r].lists[seg].head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.regions[r].lists[seg].tail = prev;
        }
        self.regions[r].lists[seg].len -= 1;
    }

    fn push_front(&mut self, i: usize, r: usize, seg: usize) {
        self.nodes[i].region = r as u8;
        self.nodes[i].seg = seg as u8;
        let head = self.regions[r].lists[seg].head;
        self.nodes[i].prev = NIL;
        self.nodes[i].next = head;
        if head != NIL {
            self.nodes[head].prev = i;
        }
        self.regions[r].lists[seg].head = i;
        if self.regions[r].lists[seg].tail == NIL {
            self.regions[r].lists[seg].tail = i;
        }
        self.regions[r].lists[seg].len += 1;
    }

    fn alloc(&mut self, key: u64, data: Arc<[u8]>) -> usize {
        let node = Node {
            key,
            data,
            prev: NIL,
            next: NIL,
            region: BUCKET as u8,
            seg: SEG_WINDOW as u8,
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Unlink a resident entry and return its slab slot to the free
    /// list (eviction and invalidation both end here).
    fn remove_node(&mut self, i: usize) {
        self.unlink(i);
        self.map.remove(&self.nodes[i].key);
        self.nodes[i].data = Arc::from(&[][..]); // release the bytes now
        self.free.push(i);
    }

    /// Remove `key` if resident (invalidation path).
    fn remove_key(&mut self, key: u64) {
        if let Some(&i) = self.map.get(&key) {
            self.remove_node(i);
        }
    }

    fn freq(&self, key: u64) -> u32 {
        self.sketch.as_ref().map_or(0, |s| s.estimate(key))
    }

    /// Record one access in the admission filter (TinyLFU only).
    fn record_access(&mut self, key: u64) {
        if let Some(s) = &mut self.sketch {
            s.increment(key);
        }
    }

    /// A hit's segment transition.
    fn promote(&mut self, i: usize) {
        let r = self.nodes[i].region as usize;
        if self.sketch.is_none() {
            // Plain LRU: refresh recency in the single window list.
            self.unlink(i);
            self.push_front(i, r, SEG_WINDOW);
            return;
        }
        match self.nodes[i].seg as usize {
            // Window and protected hits refresh recency in place.
            SEG_WINDOW => {
                self.unlink(i);
                self.push_front(i, r, SEG_WINDOW);
            }
            SEG_PROTECTED => {
                self.unlink(i);
                self.push_front(i, r, SEG_PROTECTED);
            }
            // A probation hit proves reuse: promote into protected,
            // demoting that segment's LRU back to probation when over
            // budget (it keeps a second chance instead of dying).
            _ => {
                self.unlink(i);
                self.push_front(i, r, SEG_PROTECTED);
                while self.regions[r].lists[SEG_PROTECTED].len > self.regions[r].protected_cap {
                    let demote = self.regions[r].lists[SEG_PROTECTED].tail;
                    self.unlink(demote);
                    self.push_front(demote, r, SEG_PROBATION);
                }
            }
        }
    }

    /// Look up a block, promoting it and (under TinyLFU) recording the
    /// access in the frequency sketch — also on a miss, so the later
    /// insert of the fill competes with an up-to-date estimate.
    fn get(&mut self, key: u64) -> Option<Arc<[u8]>> {
        self.record_access(key);
        let &i = self.map.get(&key)?;
        self.promote(i);
        Some(Arc::clone(&self.nodes[i].data))
    }

    /// Look up a block without promoting it, touching the sketch or the
    /// counters (scan reads — see [`BlockCache::peek`]).
    fn peek(&self, key: u64) -> Option<Arc<[u8]>> {
        self.map.get(&key).map(|&i| Arc::clone(&self.nodes[i].data))
    }

    fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Insert (or refresh) a block. `privileged` inserts (replica cache
    /// warming) bypass the frequency gate: the donated block goes
    /// straight to probation MRU, so a cold sketch cannot reject a
    /// donor's proven-hot working set.
    fn insert(&mut self, key: u64, data: Arc<[u8]>, privileged: bool) -> InsertOutcome {
        let mut out = InsertOutcome::default();
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].data = data;
            self.promote(i);
            return out;
        }
        if self.sketch.is_none() {
            // Plain LRU, bit-exact with the original cache: evict the
            // single list's tail when full, then insert at MRU.
            if self.map.len() >= self.capacity {
                let victim = self.regions[BUCKET].lists[SEG_WINDOW].tail;
                debug_assert_ne!(victim, NIL);
                self.remove_node(victim);
                out.evicted += 1;
            }
            let i = self.alloc(key, data);
            self.map.insert(key, i);
            self.push_front(i, BUCKET, SEG_WINDOW);
            return out;
        }
        let r = self.region_of(key);
        if self.regions[r].total_cap == 0 {
            out.rejected += 1;
            return out;
        }
        if privileged {
            // Warmed blocks carry a sibling's recency, not this cache's
            // history: seed the sketch so they survive the first
            // admission contest after warming.
            self.record_access(key);
            let i = self.alloc(key, data);
            self.map.insert(key, i);
            self.push_front(i, r, SEG_PROBATION);
            while self.regions[r].len() > self.regions[r].total_cap {
                let v = self.coldest_excluding(r, i);
                self.remove_node(v);
                out.evicted += 1;
                if v == i {
                    break;
                }
            }
            return out;
        }
        let i = self.alloc(key, data);
        self.map.insert(key, i);
        self.push_front(i, r, SEG_WINDOW);
        self.rebalance_window(r, &mut out);
        out
    }

    /// Drain window overflow into the main area: candidates are admitted
    /// while the main area has room, and afterwards only when the sketch
    /// estimates them strictly hotter than the probation-tail victim
    /// (the W-TinyLFU admission contest).
    fn rebalance_window(&mut self, r: usize, out: &mut InsertOutcome) {
        while self.regions[r].lists[SEG_WINDOW].len > self.regions[r].window_cap {
            let cand = self.regions[r].lists[SEG_WINDOW].tail;
            if self.regions[r].main_cap() == 0 {
                // Degenerate region (window == whole budget): the
                // window tail is simply the LRU victim.
                self.remove_node(cand);
                out.evicted += 1;
                continue;
            }
            let main_len =
                self.regions[r].lists[SEG_PROBATION].len + self.regions[r].lists[SEG_PROTECTED].len;
            if main_len < self.regions[r].main_cap() {
                self.unlink(cand);
                self.push_front(cand, r, SEG_PROBATION);
                continue;
            }
            let victim = if self.regions[r].lists[SEG_PROBATION].tail != NIL {
                self.regions[r].lists[SEG_PROBATION].tail
            } else {
                self.regions[r].lists[SEG_PROTECTED].tail
            };
            debug_assert_ne!(victim, NIL);
            if self.freq(self.nodes[cand].key) > self.freq(self.nodes[victim].key) {
                self.remove_node(victim);
                out.evicted += 1;
                self.unlink(cand);
                self.push_front(cand, r, SEG_PROBATION);
            } else {
                self.remove_node(cand);
                out.rejected += 1;
            }
        }
    }

    /// Coldest resident entry of region `r` other than `exclude`
    /// (window LRU first, then probation, then protected); `exclude`
    /// itself when it is the only entry left.
    fn coldest_excluding(&self, r: usize, exclude: usize) -> usize {
        for seg in [SEG_WINDOW, SEG_PROBATION, SEG_PROTECTED] {
            let mut t = self.regions[r].lists[seg].tail;
            while t != NIL {
                if t != exclude {
                    return t;
                }
                t = self.nodes[t].prev;
            }
        }
        exclude
    }

    /// Cached blocks of this shard, hottest first: protected segments
    /// (proven reuse), then probation, then the recency window, table
    /// region before bucket region within each tier, MRU→LRU within
    /// each list. Under LRU everything lives in one window list, so
    /// this is exactly the recency order.
    fn hot_blocks(&self, max: usize) -> Vec<(u64, Arc<[u8]>)> {
        let mut list = Vec::new();
        for seg in [SEG_PROTECTED, SEG_PROBATION, SEG_WINDOW] {
            for r in [TABLE, BUCKET] {
                let mut i = self.regions[r].lists[seg].head;
                while i != NIL && list.len() < max {
                    list.push((self.nodes[i].key, Arc::clone(&self.nodes[i].data)));
                    i = self.nodes[i].next;
                }
            }
        }
        list
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Snapshot of a key's invalidation state, taken when a miss read is
/// submitted and checked (under the key's shard lock) when the fill
/// lands. A fill is discarded when *that key* was invalidated in
/// between, or when the whole cache was flushed — invalidations of
/// other keys do not touch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FillEpoch {
    /// The key's per-key invalidation count at submit.
    key_epoch: u64,
    /// The key's lock-segment flush count at submit (bumped by
    /// whole-cache invalidation and by epoch-map overflow).
    flush_epoch: u64,
}

/// A sharded cache over fixed-address blocks, shareable across threads,
/// with a pluggable replacement policy ([`CachePolicy`]).
///
/// ## Invalidation epochs
///
/// A writer rewriting a block calls [`BlockCache::invalidate`], which
/// drops the cached entry *and* bumps that key's epoch. Miss fills
/// snapshot the key's epoch at submit ([`BlockCache::fill_epoch`]) and
/// insert through [`BlockCache::insert_if_fresh`], which re-checks the
/// epoch under the shard lock — so a completion racing an invalidation
/// can never re-populate the cache with pre-rewrite bytes, even through
/// a *different* [`CachedDevice`] sharing this cache. Epochs are
/// **per key**: invalidating key A never discards an in-flight fill for
/// key B (the PR-1 design used one cache-global generation, which did).
/// [`BlockCache::invalidate_all`] bumps per-segment flush epochs that
/// gate every in-flight fill, for bulk updates and index rebuilds; the
/// same mechanism caps the sparse per-key maps — on overflow a segment
/// trades its map for one flush bump, so memory stays bounded no matter
/// how many distinct blocks a long write stream rewrites.
pub struct BlockCache {
    shards: Vec<Mutex<CacheShard>>,
    capacity: usize,
    policy: CachePolicy,
    /// Table/bucket split used for the per-region hit/miss counters
    /// (block units; 0 = everything counts as bucket-region).
    counter_boundary: u64,
    /// Per-lock-shard table-block estimate, kept for shard rebuilds.
    table_hint: usize,
    live: CacheCounters,
}

/// The cache-wide live counters; [`BlockCache::counters`] snapshots each
/// into the [`DeviceStats`] field that documents it.
#[derive(Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    stale_fills: AtomicU64,
    warmed: AtomicU64,
    admission_rejected: AtomicU64,
    table_hits: AtomicU64,
    table_misses: AtomicU64,
    bucket_hits: AtomicU64,
    bucket_misses: AtomicU64,
    coalesced: AtomicU64,
}

impl BlockCache {
    /// LRU cache holding at most `capacity_blocks` blocks, striped over
    /// `num_shards` independently locked segments. The capacity is
    /// exact: it is distributed over the segments as evenly as possible
    /// (both arguments are clamped to at least 1, and the segment count
    /// to at most the capacity).
    pub fn new(capacity_blocks: usize, num_shards: usize) -> Self {
        Self::with_policy(capacity_blocks, num_shards, CachePolicy::Lru)
    }

    /// Like [`BlockCache::new`] with an explicit replacement policy.
    pub fn with_policy(capacity_blocks: usize, num_shards: usize, policy: CachePolicy) -> Self {
        let capacity = capacity_blocks.max(1);
        let num_shards = num_shards.max(1).min(capacity);
        let base = capacity / num_shards;
        let extra = capacity % num_shards;
        let counter_boundary = match policy {
            CachePolicy::TinyLfu(cfg) => cfg.region_boundary,
            CachePolicy::Lru => 0,
        };
        let table_hint = if counter_boundary == 0 {
            0
        } else {
            (counter_boundary as usize).div_ceil(num_shards)
        };
        Self {
            shards: (0..num_shards)
                .map(|s| {
                    Mutex::new(CacheShard::new(
                        base + usize::from(s < extra),
                        policy,
                        table_hint,
                    ))
                })
                .collect(),
            capacity,
            policy,
            counter_boundary,
            table_hint,
            live: CacheCounters::default(),
        }
    }

    #[inline]
    fn shard_for(&self, key: u64) -> &Mutex<CacheShard> {
        // Fibonacci hashing spreads block addresses (which share low
        // zero bits) across shards.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Fold one lookup into the global and per-region counters.
    fn note_lookup(&self, key: u64, hit: bool) {
        let table = self.counter_boundary > 0 && key < self.counter_boundary;
        let c = &self.live;
        let (global, regional) = match (hit, table) {
            (true, true) => (&c.hits, &c.table_hits),
            (true, false) => (&c.hits, &c.bucket_hits),
            (false, true) => (&c.misses, &c.table_misses),
            (false, false) => (&c.misses, &c.bucket_misses),
        };
        global.fetch_add(1, Ordering::Relaxed);
        regional.fetch_add(1, Ordering::Relaxed);
    }

    fn note_outcome(&self, out: InsertOutcome) {
        if out.evicted > 0 {
            self.live
                .evictions
                .fetch_add(out.evicted, Ordering::Relaxed);
        }
        if out.rejected > 0 {
            self.live
                .admission_rejected
                .fetch_add(out.rejected, Ordering::Relaxed);
        }
    }

    /// Look up a block, promoting it to most-recently-used. Counts a hit
    /// or a miss.
    pub fn get(&self, key: u64) -> Option<Arc<[u8]>> {
        let got = self.shard_for(key).lock().unwrap().get(key);
        self.note_lookup(key, got.is_some());
        got
    }

    /// Look up a block **without** promoting it, feeding the frequency
    /// sketch, or counting a hit/miss. The scan read-through: background
    /// maintenance walking every chain can reuse cached bytes without
    /// polluting the recency/frequency state queries depend on.
    pub fn peek(&self, key: u64) -> Option<Arc<[u8]>> {
        self.shard_for(key).lock().unwrap().peek(key)
    }

    /// Look up a block; on a miss, return the epoch a fill beginning
    /// now must present to [`BlockCache::insert_if_fresh`]. One lock
    /// acquisition for the whole miss path (a separate
    /// [`BlockCache::get`] + [`BlockCache::fill_epoch`] pair would lock
    /// the segment twice at exactly the moments of peak cache traffic).
    pub fn get_or_begin_fill(&self, key: u64) -> Result<Arc<[u8]>, FillEpoch> {
        let mut shard = self.shard_for(key).lock().unwrap();
        match shard.get(key) {
            Some(data) => {
                drop(shard);
                self.note_lookup(key, true);
                Ok(data)
            }
            None => {
                let epoch = shard.fill_epoch(key);
                drop(shard);
                self.note_lookup(key, false);
                Err(epoch)
            }
        }
    }

    /// Insert a block read from the device.
    pub fn insert(&self, key: u64, data: Arc<[u8]>) {
        let out = self.shard_for(key).lock().unwrap().insert(key, data, false);
        self.note_outcome(out);
    }

    /// Snapshot `key`'s invalidation epoch without a lookup (the
    /// miss path uses [`BlockCache::get_or_begin_fill`] instead, which
    /// returns the epoch from the same critical section as the miss).
    pub fn fill_epoch(&self, key: u64) -> FillEpoch {
        self.shard_for(key).lock().unwrap().fill_epoch(key)
    }

    /// Insert a miss fill only if `key` was not invalidated (and its
    /// segment not flushed) since `epoch` was taken. The check runs
    /// under the key's shard lock, so an invalidation concurrent with
    /// this call either bumps the epoch first (the fill is skipped) or
    /// removes the entry afterwards — a stale fill can never survive.
    /// Returns whether the fill was accepted (under TinyLFU a fill can
    /// also be *admitted then rejected at the window boundary later*;
    /// acceptance here only means the epoch check passed).
    pub fn insert_if_fresh(&self, key: u64, data: Arc<[u8]>, epoch: FillEpoch) -> bool {
        self.insert_if_fresh_inner(key, data, epoch, false)
    }

    /// [`BlockCache::insert_if_fresh`] for replica cache warming: the
    /// fill bypasses the TinyLFU frequency gate (straight to probation,
    /// sketch seeded) so a cold admission filter cannot reject a
    /// donor's proven-hot blocks. Epoch-gated exactly like a miss fill.
    pub fn warm_insert_if_fresh(&self, key: u64, data: Arc<[u8]>, epoch: FillEpoch) -> bool {
        self.insert_if_fresh_inner(key, data, epoch, true)
    }

    fn insert_if_fresh_inner(
        &self,
        key: u64,
        data: Arc<[u8]>,
        epoch: FillEpoch,
        privileged: bool,
    ) -> bool {
        let mut shard = self.shard_for(key).lock().unwrap();
        if !shard.is_fresh(key, epoch) {
            self.live.stale_fills.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let out = shard.insert(key, data, privileged);
        drop(shard);
        self.note_outcome(out);
        true
    }

    /// Drop one block and bump *its* epoch (call when its backing
    /// storage is rewritten, e.g. by [`Updater`]); in-flight fills for
    /// this key are discarded on completion, in-flight fills for every
    /// other key are untouched — unless the segment's epoch map
    /// overflows its bound, in which case the segment flushes its map
    /// and conservatively gates all of its in-flight fills. Counts
    /// neither a hit nor an eviction.
    ///
    /// [`Updater`]: crate::update::Updater
    pub fn invalidate(&self, key: u64) {
        let mut shard = self.shard_for(key).lock().unwrap();
        *shard.epochs.entry(key).or_insert(0) += 1;
        if shard.epochs.len() > shard.epoch_bound() {
            // Trade the oversized map for one segment flush: every
            // in-flight fill into this segment is discarded on
            // completion (conservative, cheap to retry), and the map
            // starts over.
            shard.flush += 1;
            shard.epochs = HashMap::new();
        }
        shard.remove_key(key);
        self.live.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every cached block and discard every in-flight fill (coarse
    /// invalidation after bulk updates or an index rebuild). Policy
    /// state (segment budgets, frequency sketch) restarts cold.
    pub fn invalidate_all(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().unwrap();
            // The flush bump gates all in-flight fills into this
            // segment, so the per-key epoch map can be dropped with the
            // entries: a fill holding an older flush epoch fails the
            // freshness check even with its key epoch reset to 0.
            let (cap, flush) = (s.capacity, s.flush + 1);
            *s = CacheShard::new(cap, self.policy, self.table_hint);
            s.flush = flush;
        }
    }

    /// Alias of [`BlockCache::invalidate_all`].
    pub fn clear(&self) {
        self.invalidate_all();
    }

    /// Blocks currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum blocks the cache will hold (sum over shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Independently locked segments the key space is striped over.
    pub fn lock_shards(&self) -> usize {
        self.shards.len()
    }

    /// The replacement policy this cache was built with.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// A fresh, empty cache with this cache's capacity, lock striping
    /// and policy — the constructor replica groups use to give each
    /// replica of a shard its own private cache of identical shape.
    pub fn new_like(&self) -> Self {
        Self::with_policy(self.capacity(), self.lock_shards(), self.policy)
    }

    /// The hottest cached blocks, up to `max_blocks`, as `(key, bytes)`
    /// pairs. Per-segment hot lists (protected → probation → window
    /// under TinyLFU, plain MRU order under LRU) are merged round-robin,
    /// so the result approximates the global heat order while holding
    /// each segment lock once. Counts neither hits nor misses.
    pub fn hottest(&self, max_blocks: usize) -> Vec<(u64, Arc<[u8]>)> {
        let per_segment: Vec<Vec<(u64, Arc<[u8]>)>> = self
            .shards
            .iter()
            .map(|m| m.lock().unwrap().hot_blocks(max_blocks))
            .collect();
        let mut out = Vec::new();
        let mut rank = 0;
        while out.len() < max_blocks {
            let mut any = false;
            for seg in &per_segment {
                if let Some(entry) = seg.get(rank) {
                    out.push(entry.clone());
                    any = true;
                    if out.len() >= max_blocks {
                        break;
                    }
                }
            }
            if !any {
                break;
            }
            rank += 1;
        }
        out
    }

    /// Pre-fill this cache with up to `max_blocks` of `donor`'s hottest
    /// blocks (replica-aware cache warming: a fresh or unfenced replica
    /// copies a live sibling's working set instead of starting cold).
    /// Keys already present here are skipped; each copy is epoch-gated
    /// ([`BlockCache::warm_insert_if_fresh`]) so an invalidation racing
    /// the warm pass discards the affected block instead of resurrecting
    /// pre-write bytes, and **bypasses the admission filter** — a cold
    /// TinyLFU sketch would otherwise reject every donated block.
    /// Returns the number of blocks copied (also accumulated in the
    /// `cache_warmed` counter).
    ///
    /// The donor's entries are valid by construction (writers invalidate
    /// rewritten blocks in every replica cache), but the copy is not
    /// atomic with the donor's invalidation sweep: run warming while the
    /// shard has no active writer (the serving layer warms at session
    /// start, before its writers accept work).
    pub fn warm_from(&self, donor: &BlockCache, max_blocks: usize) -> usize {
        let mut copied = 0;
        for (key, data) in donor.hottest(max_blocks) {
            // Snapshot the target epoch *before* taking the bytes: an
            // invalidation of `key` between here and the insert bumps
            // the epoch and the stale copy is rejected.
            let epoch = self.fill_epoch(key);
            if self.shard_for(key).lock().unwrap().contains(key) {
                continue; // already cached (counts no hit)
            }
            if self.warm_insert_if_fresh(key, data, epoch) {
                copied += 1;
            }
        }
        self.live.warmed.fetch_add(copied as u64, Ordering::Relaxed);
        copied
    }

    /// Snapshot of the cache-wide counters in [`DeviceStats`] shape:
    /// every `cache_*` field and `coalesced_reads` (summed over the
    /// [`CachedDevice`]s coalescing on this cache), the rest zero. Two
    /// snapshots subtract with [`DeviceStats::minus`].
    pub fn counters(&self) -> DeviceStats {
        let c = &self.live;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DeviceStats {
            cache_hits: load(&c.hits),
            cache_misses: load(&c.misses),
            cache_evictions: load(&c.evictions),
            cache_invalidations: load(&c.invalidations),
            cache_stale_fills: load(&c.stale_fills),
            cache_warmed: load(&c.warmed),
            cache_admission_rejected: load(&c.admission_rejected),
            cache_table_hits: load(&c.table_hits),
            cache_table_misses: load(&c.table_misses),
            cache_bucket_hits: load(&c.bucket_hits),
            cache_bucket_misses: load(&c.bucket_misses),
            coalesced_reads: load(&c.coalesced),
            ..DeviceStats::default()
        }
    }
}

/// A [`Device`] wrapper serving repeated block reads from a shared DRAM
/// [`BlockCache`].
///
/// Cache hits complete at the submission timestamp (a DRAM copy costs no
/// device time — the CPU-side cost is already charged by the engine's
/// `T_request` model); misses pass through to the inner device and fill
/// the cache when they complete. Only whole-block reads are cached;
/// other lengths (superblock, filter scans at open) bypass the cache.
///
/// With [`CachedDevice::set_coalescing`] enabled, a miss for a key that
/// already has a fill in flight **on this device** parks on that fill
/// instead of issuing a duplicate device read (single-flight): the
/// waiter's completion is delivered with the leader's bytes at the
/// leader's completion time. The reactor serving layer drives hundreds
/// of interleaved query contexts through one `CachedDevice`, which is
/// exactly where concurrent same-block misses arise. Coalescing is
/// epoch-guarded: a waiter only joins a leader whose fill epoch is still
/// current, so a block invalidated mid-flight is re-read rather than
/// served pre-rewrite bytes.
///
/// **Writes are not observed.** The [`Device`] trait is read-only, so a
/// writer mutating the index underneath (e.g.
/// [`Updater`](crate::update::Updater)) must tell the cache: call
/// [`CachedDevice::invalidate`] per rewritten block, or
/// [`BlockCache::invalidate_all`] after a bulk update — otherwise
/// subsequent hits serve the pre-update bytes. Invalidating a block
/// also discards miss fills for *that block* that were in flight when
/// it happened (epoch-gated), on every device sharing the cache;
/// in-flight fills for other blocks are untouched.
pub struct CachedDevice<D: Device> {
    inner: D,
    cache: Arc<BlockCache>,
    block_size: u32,
    /// Completions served from DRAM, delivered on the next poll.
    hit_queue: Vec<IoCompletion>,
    /// tag → (block key, key epoch at submit) for in-flight misses
    /// (tags are unique per in-flight I/O: one engine context never has
    /// two same-kind I/Os for the same probe in flight). The epoch
    /// gates the fill: an invalidation of this key between submit and
    /// completion discards it.
    pending_fills: HashMap<u64, (u64, FillEpoch)>,
    /// Single-flight coalescing of concurrent same-key misses (off by
    /// default: it changes completion timing, and the default suites
    /// are bit-exact against the uncoalesced cache).
    coalesce: bool,
    /// key → leader tag of the in-flight fill coalescable misses join.
    leaders: HashMap<u64, u64>,
    /// leader tag → tags parked on that fill.
    waiters: HashMap<u64, Vec<u64>>,
    /// Parked waiter count (they occupy no slot in the inner device but
    /// are in flight from the engine's point of view).
    parked: usize,
    /// This device's own cache hits (the shared [`BlockCache`] counters
    /// span every device on the cache; per-device stats must stay
    /// summable across replicas).
    local_hits: u64,
    /// This device's own cache misses.
    local_misses: u64,
    /// This device's own coalesced reads.
    local_coalesced: u64,
}

impl<D: Device> CachedDevice<D> {
    /// Wrap `inner`, serving `block_size`-byte aligned reads from
    /// `cache`.
    pub fn new(inner: D, cache: Arc<BlockCache>, block_size: u32) -> Self {
        assert!(block_size > 0);
        Self {
            inner,
            cache,
            block_size,
            hit_queue: Vec::new(),
            pending_fills: HashMap::new(),
            coalesce: false,
            leaders: HashMap::new(),
            waiters: HashMap::new(),
            parked: 0,
            local_hits: 0,
            local_misses: 0,
            local_coalesced: 0,
        }
    }

    /// Convenience: wrap with a fresh private cache of
    /// `capacity_blocks` × [`BLOCK_SIZE`] blocks.
    ///
    /// [`BLOCK_SIZE`]: crate::layout::BLOCK_SIZE
    pub fn with_capacity(inner: D, capacity_blocks: usize) -> Self {
        Self::new(
            inner,
            Arc::new(BlockCache::new(capacity_blocks, 8)),
            crate::layout::BLOCK_SIZE as u32,
        )
    }

    /// Enable or disable single-flight coalescing of concurrent
    /// same-key misses on this device.
    pub fn set_coalescing(&mut self, on: bool) {
        self.coalesce = on;
    }

    /// Whether single-flight coalescing is enabled.
    pub fn coalescing(&self) -> bool {
        self.coalesce
    }

    /// The shared cache.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Drop the cached copy of the block containing `addr` (call after
    /// rewriting it on storage).
    pub fn invalidate(&self, addr: u64) {
        self.cache.invalidate(self.key_of(addr));
    }

    #[inline]
    fn key_of(&self, addr: u64) -> u64 {
        addr / u64::from(self.block_size)
    }
}

impl<D: Device> Device for CachedDevice<D> {
    fn submit(&mut self, req: IoRequest, now: f64) {
        let block = u64::from(self.block_size);
        if req.len != self.block_size || !req.addr.is_multiple_of(block) {
            // Not a whole aligned block (superblock, filter scans):
            // bypasses the cache and books nothing.
            return self.inner.submit(req, now);
        }
        let key = self.key_of(req.addr);
        let epoch = match self.cache.get_or_begin_fill(key) {
            Ok(data) => {
                // DRAM hit: complete at the submission timestamp.
                self.local_hits += 1;
                self.hit_queue.push(IoCompletion {
                    tag: req.tag,
                    data,
                    time: now,
                });
                return;
            }
            Err(epoch) => epoch,
        };
        self.local_misses += 1;
        if self.coalesce {
            if let Some(&leader) = self.leaders.get(&key) {
                // Join the leader only while its fill is still fresh: if
                // the key was invalidated since the leader submitted, its
                // bytes pre-date the rewrite and this read must fetch
                // its own.
                if self.pending_fills.get(&leader).map(|&(_, e)| e) == Some(epoch) {
                    self.waiters.entry(leader).or_default().push(req.tag);
                    self.parked += 1;
                    self.local_coalesced += 1;
                    self.cache.live.coalesced.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            self.leaders.insert(key, req.tag);
        }
        let prev = self.pending_fills.insert(req.tag, (key, epoch));
        debug_assert!(prev.is_none(), "duplicate in-flight tag {:#x}", req.tag);
        self.inner.submit(req, now);
    }

    fn poll(&mut self, now: f64, out: &mut Vec<IoCompletion>) {
        // Hits first: they completed at submission time, which is never
        // after `now`.
        out.append(&mut self.hit_queue);
        let start = out.len();
        self.inner.poll(now, out);
        let mut released: Vec<IoCompletion> = Vec::new();
        for comp in &out[start..] {
            if let Some((key, epoch)) = self.pending_fills.remove(&comp.tag) {
                // Fills that raced an invalidation of their own key are
                // discarded (checked atomically with the insert): the
                // bytes were read before the rewrite and must not
                // re-enter. Fills for other keys are unaffected.
                self.cache
                    .insert_if_fresh(key, Arc::clone(&comp.data), epoch);
                if self.coalesce {
                    // A stale leader (superseded after an invalidation)
                    // no longer owns the key entry.
                    if self.leaders.get(&key) == Some(&comp.tag) {
                        self.leaders.remove(&key);
                    }
                    if let Some(tags) = self.waiters.remove(&comp.tag) {
                        self.parked -= tags.len();
                        for tag in tags {
                            released.push(IoCompletion {
                                tag,
                                data: Arc::clone(&comp.data),
                                time: comp.time,
                            });
                        }
                    }
                }
            }
        }
        out.append(&mut released);
    }

    fn next_completion_time(&self) -> Option<f64> {
        let hit = self
            .hit_queue
            .iter()
            .map(|c| c.time)
            .fold(f64::INFINITY, f64::min);
        match self.inner.next_completion_time() {
            Some(t) => Some(t.min(hit)),
            None if !self.hit_queue.is_empty() => Some(hit),
            None => None,
        }
    }

    fn wait(&mut self) {
        if self.hit_queue.is_empty() {
            self.inner.wait();
        }
    }

    fn inflight(&self) -> usize {
        // Parked waiters hold no device slot but are outstanding from
        // the engine's point of view until their leader completes.
        self.hit_queue.len() + self.parked + self.inner.inflight()
    }

    fn read_sync(&mut self, addr: u64, len: u32) -> Vec<u8> {
        self.inner.read_sync(addr, len)
    }

    fn stats(&self) -> DeviceStats {
        // `completed`/`bytes` count only what the underlying device
        // served; DRAM hits are reported separately via the cache
        // counters. Hits/misses/coalesced are *this device's own*
        // lookups so that summing replica stats never multiplies
        // shared-cache totals. Evictions are a property of the (possibly
        // shared) cache, not of any one device — read them from
        // [`BlockCache::counters`].
        let mut s = self.inner.stats();
        s.cache_hits = self.local_hits;
        s.cache_misses = self.local_misses;
        s.coalesced_reads = self.local_coalesced;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::sim::{Backing, DeviceProfile, SimStorage};
    use crate::layout::BLOCK_SIZE;

    fn image(blocks: usize) -> Vec<u8> {
        let mut v = vec![0u8; blocks * BLOCK_SIZE];
        for (i, b) in v.iter_mut().enumerate() {
            *b = (i / BLOCK_SIZE) as u8;
        }
        v
    }

    fn read_block(dev: &mut dyn Device, addr: u64, now: f64) -> (Vec<u8>, f64) {
        dev.submit(
            IoRequest {
                addr,
                len: BLOCK_SIZE as u32,
                tag: addr,
            },
            now,
        );
        let t = dev.next_completion_time().unwrap();
        let mut out = Vec::new();
        dev.poll(t, &mut out);
        assert_eq!(out.len(), 1);
        (out.pop().unwrap().data.to_vec(), t)
    }

    #[test]
    fn hit_serves_same_bytes_instantly() {
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image(8)));
        let mut dev = CachedDevice::with_capacity(sim, 4);
        let (cold, t_cold) = read_block(&mut dev, 512, 0.0);
        assert!(t_cold > 0.0, "cold read takes device time");
        let (warm, t_warm) = read_block(&mut dev, 512, t_cold);
        assert_eq!(cold, warm);
        assert_eq!(t_warm, t_cold, "hit completes at submission time");
        let s = dev.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.completed, 1, "only the cold read touched the device");
    }

    #[test]
    fn unaligned_or_oversize_reads_bypass_cache() {
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image(8)));
        let mut dev = CachedDevice::with_capacity(sim, 4);
        for (tag, addr, len) in [(1, 100, BLOCK_SIZE as u32), (2, 0, 4096)] {
            dev.submit(IoRequest { addr, len, tag }, 0.0);
            let t = dev.next_completion_time().unwrap();
            let mut out = Vec::new();
            dev.poll(t, &mut out);
            assert_eq!(out.len(), 1, "tag {tag}: the read is still served");
        }
        let (s, c) = (dev.stats(), dev.cache().counters());
        assert_eq!(s.cache_hits + s.cache_misses, 0);
        assert_eq!(c.cache_hits + c.cache_misses, 0);
        assert!(dev.cache().is_empty());
    }

    #[test]
    fn capacity_never_exceeded_and_evictions_counted() {
        let cache = BlockCache::new(8, 2);
        for i in 0..100u64 {
            cache.insert(i, Arc::from(vec![0u8; 4].as_slice()));
            assert!(
                cache.len() <= cache.capacity(),
                "len {} at i {i}",
                cache.len()
            );
        }
        assert!(cache.counters().cache_evictions > 0);
        assert_eq!(cache.len() as u64 + cache.counters().cache_evictions, 100);
    }

    #[test]
    fn lru_order_within_shard() {
        // Single shard so the eviction order is the global LRU order.
        let cache = BlockCache::new(2, 1);
        cache.insert(1, Arc::from([1u8].as_slice()));
        cache.insert(2, Arc::from([2u8].as_slice()));
        assert!(cache.get(1).is_some()); // 1 becomes MRU
        cache.insert(3, Arc::from([3u8].as_slice())); // evicts 2
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.counters().cache_evictions, 1);
    }

    #[test]
    fn capacity_is_exact_even_when_striped() {
        let cache = BlockCache::new(10, 8);
        assert_eq!(cache.capacity(), 10);
        for i in 0..200u64 {
            cache.insert(i, Arc::from(vec![0u8; 1].as_slice()));
            assert!(cache.len() <= 10, "len {} > 10", cache.len());
        }
    }

    #[test]
    fn invalidate_drops_stale_block_and_clear_empties() {
        let cache = BlockCache::new(8, 2);
        cache.insert(1, Arc::from([1u8].as_slice()));
        cache.insert(2, Arc::from([2u8].as_slice()));
        assert!(cache.get(1).is_some());
        cache.invalidate(1);
        assert!(cache.get(1).is_none(), "invalidated block still served");
        cache.invalidate(99); // unknown key: no-op
        assert!(cache.get(2).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.get(2).is_none());
        // Invalidation and clearing count neither hits nor evictions.
        assert_eq!(cache.counters().cache_evictions, 0);
    }

    #[test]
    fn cached_device_invalidate_realigns_addr() {
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image(8)));
        let mut dev = CachedDevice::with_capacity(sim, 4);
        let (before, t) = read_block(&mut dev, 1024, 0.0);
        // Invalidate via an interior address of the same block.
        dev.invalidate(1024 + 77);
        let (after, _) = read_block(&mut dev, 1024, t);
        assert_eq!(before, after);
        let s = dev.stats();
        assert_eq!(s.cache_hits, 0, "second read had to miss");
        assert_eq!(s.cache_misses, 2);
    }

    #[test]
    fn invalidation_discards_in_flight_fill() {
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image(8)));
        let mut dev = CachedDevice::with_capacity(sim, 4);
        // Miss in flight…
        dev.submit(
            IoRequest {
                addr: 512,
                len: BLOCK_SIZE as u32,
                tag: 1,
            },
            0.0,
        );
        // …then the block is rewritten and invalidated before the read
        // completes.
        dev.invalidate(512);
        let t = dev.next_completion_time().unwrap();
        let mut out = Vec::new();
        dev.poll(t, &mut out);
        assert_eq!(out.len(), 1, "completion still delivered to the engine");
        assert!(
            dev.cache().is_empty(),
            "stale in-flight fill must not re-populate the cache"
        );
        assert_eq!(dev.cache().counters().cache_stale_fills, 1);
        // The next read goes to the device again (fresh bytes).
        let (_, _) = read_block(&mut dev, 512, t);
        let s = dev.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (0, 2), "one lookup a read");
    }

    /// The per-key-epoch acceptance scenario: an in-flight miss fill for
    /// block B must complete, enter the cache and serve the next read as
    /// a hit even though an unrelated block A was invalidated while the
    /// fill was in flight. The PR-1 cache-global generation provably
    /// fails this (any invalidation discarded every in-flight fill); the
    /// single lock shard below makes A and B share one mutex, so even a
    /// per-lock-shard epoch would fail it.
    #[test]
    fn in_flight_fill_for_other_key_survives_invalidation() {
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image(8)));
        let cache = Arc::new(BlockCache::new(4, 1));
        let mut dev = CachedDevice::new(sim, Arc::clone(&cache), BLOCK_SIZE as u32);
        // Miss for block B (addr 1024) in flight…
        dev.submit(
            IoRequest {
                addr: 1024,
                len: BLOCK_SIZE as u32,
                tag: 1,
            },
            0.0,
        );
        // …while block A (addr 512) is rewritten and invalidated.
        dev.invalidate(512);
        let t = dev.next_completion_time().unwrap();
        let mut out = Vec::new();
        dev.poll(t, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            cache.len(),
            1,
            "fill for B must survive the invalidation of A"
        );
        assert_eq!(cache.counters().cache_stale_fills, 0);
        assert_eq!(cache.counters().cache_invalidations, 1);
        // The next read of B is a DRAM hit.
        let (_, _) = read_block(&mut dev, 1024, t);
        assert_eq!(dev.stats().cache_hits, 1);
        assert_eq!(
            dev.stats().completed,
            1,
            "only the first read hit the device"
        );
    }

    #[test]
    fn stale_fill_counted_and_discarded_per_key() {
        let cache = BlockCache::new(8, 1);
        let ea = cache.fill_epoch(1);
        let eb = cache.fill_epoch(2);
        cache.invalidate(1);
        assert!(
            !cache.insert_if_fresh(1, Arc::from([0u8].as_slice()), ea),
            "fill for the invalidated key must be rejected"
        );
        assert!(
            cache.insert_if_fresh(2, Arc::from([2u8].as_slice()), eb),
            "fill for an unrelated key must be accepted"
        );
        assert_eq!(cache.counters().cache_stale_fills, 1);
        // A fresh epoch taken after the invalidation fills fine.
        let ea2 = cache.fill_epoch(1);
        assert!(cache.insert_if_fresh(1, Arc::from([1u8].as_slice()), ea2));
        // invalidate_all gates every epoch taken before it, even for
        // keys never individually invalidated.
        let e3 = cache.fill_epoch(3);
        cache.invalidate_all();
        assert!(!cache.insert_if_fresh(3, Arc::from([3u8].as_slice()), e3));
        assert!(cache.is_empty());
        assert_eq!(cache.counters().cache_stale_fills, 2);
    }

    /// Epoch-map overflow: invalidating more distinct keys than the
    /// segment bound trades the map for one segment flush — fills that
    /// were in flight are conservatively discarded, the map stays
    /// bounded, and the cache keeps serving afterwards.
    #[test]
    fn epoch_map_overflow_flushes_segment_conservatively() {
        let cache = BlockCache::new(4, 1); // bound = max(4*4, 1024) = 1024
        let victim_key = 2_000_000u64;
        let epoch = cache.fill_epoch(victim_key);
        for k in 0..1100u64 {
            cache.invalidate(k);
        }
        assert!(
            !cache.insert_if_fresh(victim_key, Arc::from([1u8].as_slice()), epoch),
            "fill spanning an epoch-map overflow must be discarded"
        );
        assert_eq!(cache.counters().cache_stale_fills, 1);
        // A fresh fill after the overflow is accepted and served.
        let epoch = cache.fill_epoch(victim_key);
        assert!(cache.insert_if_fresh(victim_key, Arc::from([2u8].as_slice()), epoch));
        assert!(cache.get(victim_key).is_some());
    }

    #[test]
    fn warm_from_copies_mru_first_and_is_epoch_gated() {
        let donor = BlockCache::new(8, 1);
        for k in 0..6u64 {
            donor.insert(k, Arc::from([k as u8].as_slice()));
        }
        donor.get(2); // 2 becomes MRU
        let hot = donor.hottest(3);
        assert_eq!(hot.len(), 3);
        assert_eq!(hot[0].0, 2, "MRU block leads the hottest list");

        let fresh = donor.new_like();
        let copied = fresh.warm_from(&donor, 4);
        assert_eq!(copied, 4);
        assert_eq!(fresh.counters().cache_warmed, 4);
        assert_eq!(fresh.len(), 4);
        // Warmed blocks serve as hits with the donor's exact bytes.
        assert_eq!(fresh.get(2).unwrap().as_ref(), &[2u8][..]);
        // Re-warming skips blocks already present.
        assert_eq!(fresh.warm_from(&donor, 4), 0);
        // A block invalidated in the target mid-warm stays out: the copy
        // is epoch-gated exactly like a miss fill.
        let cold = donor.new_like();
        let epoch = cold.fill_epoch(5);
        cold.invalidate(5);
        assert!(!cold.insert_if_fresh(5, Arc::from([9u8].as_slice()), epoch));
    }

    #[test]
    fn hottest_caps_and_handles_empty() {
        let cache = BlockCache::new(16, 4);
        assert!(cache.hottest(8).is_empty());
        for k in 0..10u64 {
            cache.insert(k, Arc::from([0u8].as_slice()));
        }
        assert_eq!(cache.hottest(4).len(), 4);
        assert_eq!(cache.hottest(100).len(), 10);
    }

    #[test]
    fn counters_consistent() {
        // Capacity exceeds the working set so the cyclic scan hits after
        // the first pass (an LRU thrashes on cycles larger than itself).
        let cache = BlockCache::new(8, 2);
        let mut expect_hits = 0;
        let mut expect_misses = 0;
        for i in 0..50u64 {
            let key = i % 6;
            if cache.get(key).is_some() {
                expect_hits += 1;
            } else {
                expect_misses += 1;
                cache.insert(key, Arc::from(key.to_le_bytes().as_slice()));
            }
        }
        let c = cache.counters();
        assert_eq!(c.cache_hits, expect_hits);
        assert_eq!(c.cache_misses, expect_misses);
        assert_eq!(c.cache_hits + c.cache_misses, 50);
        assert!(c.cache_hit_rate() > 0.0 && c.cache_hit_rate() < 1.0);
        // Unpartitioned: every lookup counts as bucket-region.
        assert_eq!(c.cache_bucket_hits + c.cache_bucket_misses, 50);
        assert_eq!(c.cache_table_hits + c.cache_table_misses, 0);
    }

    #[test]
    fn shared_cache_across_devices() {
        let cache = Arc::new(BlockCache::new(64, 4));
        let mk = || SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image(8)));
        let mut a = CachedDevice::new(mk(), Arc::clone(&cache), BLOCK_SIZE as u32);
        let mut b = CachedDevice::new(mk(), Arc::clone(&cache), BLOCK_SIZE as u32);
        let (bytes_a, _) = read_block(&mut a, 1024, 0.0); // miss, fills shared cache
        let (bytes_b, _) = read_block(&mut b, 1024, 0.0); // hit via the other device
        assert_eq!(bytes_a, bytes_b);
        assert_eq!(cache.counters().cache_hits, 1);
        assert_eq!(cache.counters().cache_misses, 1);
    }

    // ── TinyLFU admission ────────────────────────────────────────────

    fn tinylfu(capacity: usize, shards: usize, boundary: u64) -> BlockCache {
        BlockCache::with_policy(
            capacity,
            shards,
            CachePolicy::TinyLfu(TinyLfuConfig {
                region_boundary: boundary,
            }),
        )
    }

    /// Miss-then-insert, the way a device fill reaches the cache.
    fn access(cache: &BlockCache, key: u64) -> bool {
        if cache.get(key).is_some() {
            true
        } else {
            cache.insert(key, Arc::from(key.to_le_bytes().as_slice()));
            false
        }
    }

    #[test]
    fn tinylfu_scan_cannot_displace_hot_blocks() {
        let cache = tinylfu(8, 1, 0);
        // Heat four blocks until they sit in the main area with real
        // frequency history.
        for _ in 0..5 {
            for k in 1..=4u64 {
                access(&cache, k);
            }
        }
        assert!((1..=4).all(|k| cache.peek(k).is_some()));
        // A one-shot scan: 30 blocks seen exactly once each.
        for k in 100..130u64 {
            access(&cache, k);
        }
        assert!(
            (1..=4).all(|k| cache.peek(k).is_some()),
            "one-hit-wonder scan displaced the proven-hot working set"
        );
        assert!(
            cache.counters().cache_admission_rejected > 0,
            "no admission contest ran"
        );
        assert!(cache.len() <= cache.capacity());
        // The same scan against plain LRU flushes the hot set.
        let lru = BlockCache::new(8, 1);
        for _ in 0..5 {
            for k in 1..=4u64 {
                access(&lru, k);
            }
        }
        for k in 100..130u64 {
            access(&lru, k);
        }
        assert!((1..=4).all(|k| lru.peek(k).is_none()));
        assert_eq!(lru.counters().cache_admission_rejected, 0);
    }

    #[test]
    fn tinylfu_probation_hit_promotes_to_protected() {
        let cache = tinylfu(16, 1, 0);
        // First pass: keys land in window → probation.
        for k in 0..4u64 {
            access(&cache, k);
        }
        // Second pass: probation hits promote to protected, so the
        // hottest list leads with protected entries.
        for k in 0..4u64 {
            assert!(access(&cache, k), "resident key must hit");
        }
        let hot: Vec<u64> = cache.hottest(16).iter().map(|&(k, _)| k).collect();
        assert!(!hot.is_empty());
        // All four re-referenced keys outrank any window-only key.
        for k in 0..4u64 {
            assert!(hot.contains(&k));
        }
    }

    #[test]
    fn peek_promotes_and_counts_nothing() {
        let cache = BlockCache::new(2, 1);
        cache.insert(1, Arc::from([1u8].as_slice()));
        cache.insert(2, Arc::from([2u8].as_slice()));
        assert!(cache.peek(1).is_some());
        assert!(cache.peek(99).is_none());
        let c = cache.counters();
        assert_eq!(c.cache_hits + c.cache_misses, 0, "peek counts no lookup");
        // peek(1) did not refresh 1's recency: it is still the LRU
        // victim (a get(1) would have saved it).
        cache.insert(3, Arc::from([3u8].as_slice()));
        assert!(cache.peek(1).is_none(), "peek must not promote");
        assert!(cache.peek(2).is_some());
    }

    #[test]
    fn region_partition_protects_table_blocks() {
        // Keys 0..4 are table-region; budget = round(8 * TABLE_FRACTION) = 2.
        let cache = BlockCache::with_policy(
            8,
            1,
            CachePolicy::TinyLfu(TinyLfuConfig { region_boundary: 4 }),
        );
        access(&cache, 0);
        access(&cache, 1);
        assert_eq!(cache.counters().cache_table_misses, 2);
        // Hammer the bucket region with far more traffic than its
        // budget: the table entries must be untouchable.
        for k in 100..200u64 {
            access(&cache, k);
        }
        assert!(
            cache.peek(0).is_some(),
            "bucket churn evicted a table block"
        );
        assert!(cache.peek(1).is_some());
        assert!(cache.len() <= cache.capacity());
        assert_eq!(cache.counters().cache_bucket_misses, 100);
        assert!(cache.get(0).is_some());
        assert_eq!(cache.counters().cache_table_hits, 1);
    }

    #[test]
    fn warm_insert_bypasses_cold_admission_filter() {
        // A hot donor (any policy) warms a cold TinyLFU sibling: the
        // sibling's sketch has never seen the keys, so the normal
        // admission path would strand every copy in the 1-block window.
        let donor = BlockCache::new(32, 1);
        for _ in 0..3 {
            for k in 0..16u64 {
                access(&donor, k);
            }
        }
        let fresh = tinylfu(32, 1, 0);
        let copied = fresh.warm_from(&donor, 12);
        assert_eq!(copied, 12);
        assert_eq!(fresh.len(), 12);
        assert_eq!(fresh.counters().cache_warmed, 12);
        // Every donated block is resident and served as a hit.
        let warmed_keys: Vec<u64> = donor.hottest(12).iter().map(|&(k, _)| k).collect();
        for k in warmed_keys {
            assert!(fresh.get(k).is_some(), "warmed block {k} not resident");
        }
    }

    #[test]
    fn tinylfu_policy_shapes_survive_new_like_and_clear() {
        let cache = tinylfu(64, 4, 0);
        assert_eq!(cache.policy(), cache.new_like().policy());
        for k in 0..32u64 {
            access(&cache, k);
        }
        cache.clear();
        assert!(cache.is_empty());
        // Still admits and serves after the rebuild.
        access(&cache, 7);
        assert!(cache.get(7).is_some());
    }

    // ── Count-min sketch ─────────────────────────────────────────────

    #[test]
    fn sketch_estimate_upper_bounds_true_count() {
        let mut s = CmSketch::new(256);
        for _ in 0..9 {
            s.increment(42);
        }
        assert!(s.estimate(42) >= 9);
        // Saturation: counters cap at 15 (+1 doorkeeper).
        for _ in 0..100 {
            s.increment(42);
        }
        assert!(s.estimate(42) >= 15);
        assert!(s.estimate(42) <= 16);
        // An unseen key can only be inflated by collisions, never
        // deflated below zero.
        assert!(s.estimate(7777) <= s.estimate(42));
    }

    #[test]
    fn sketch_halving_decays_and_clears_doorkeeper() {
        let mut s = CmSketch::new(256);
        for _ in 0..10 {
            s.increment(5);
        }
        let before = s.estimate(5);
        s.halve();
        let after = s.estimate(5);
        assert!(
            after <= before / 2,
            "halve must at least halve ({before} → {after})"
        );
        // Automatic aging: the sample period bounds additions.
        let mut auto = CmSketch::new(64); // period = 10 * 64
        for k in 0..2000u64 {
            auto.increment(k % 50);
        }
        assert!(auto.additions() < 640, "sample period never triggered");
    }

    // ── Single-flight coalescing ─────────────────────────────────────

    #[test]
    fn concurrent_misses_coalesce_to_one_device_read() {
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image(8)));
        let cache = Arc::new(BlockCache::new(4, 1));
        let mut dev = CachedDevice::new(sim, Arc::clone(&cache), BLOCK_SIZE as u32);
        dev.set_coalescing(true);
        // Three concurrent misses on one block before any completes.
        for tag in 1..=3u64 {
            dev.submit(
                IoRequest {
                    addr: 1024,
                    len: BLOCK_SIZE as u32,
                    tag,
                },
                0.0,
            );
        }
        assert_eq!(dev.inflight(), 3, "waiters count as in flight");
        let t = dev.next_completion_time().unwrap();
        let mut out = Vec::new();
        dev.poll(t, &mut out);
        assert_eq!(out.len(), 3, "every request gets its completion");
        assert!(
            out.iter().all(|c| Arc::ptr_eq(&c.data, &out[0].data)),
            "one fill, shared"
        );
        assert!(
            out.iter().all(|c| c.time == t),
            "waiters share the leader's time"
        );
        let tags: std::collections::HashSet<u64> = out.iter().map(|c| c.tag).collect();
        assert_eq!(tags.len(), 3);
        assert_eq!(dev.stats().completed, 1, "one device read served all three");
        assert_eq!(dev.stats().coalesced_reads, 2);
        assert_eq!(cache.counters().coalesced_reads, 2);
        assert_eq!(dev.stats().cache_misses, 3, "a parked waiter is a miss");
        assert_eq!(dev.inflight(), 0);
        // The block is cached: the next read is a DRAM hit.
        let (_, _) = read_block(&mut dev, 1024, t);
        assert_eq!(dev.stats().cache_hits, 1);
    }

    #[test]
    fn invalidation_mid_flight_prevents_coalescing() {
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image(8)));
        let cache = Arc::new(BlockCache::new(4, 1));
        let mut dev = CachedDevice::new(sim, Arc::clone(&cache), BLOCK_SIZE as u32);
        dev.set_coalescing(true);
        dev.submit(
            IoRequest {
                addr: 512,
                len: BLOCK_SIZE as u32,
                tag: 1,
            },
            0.0,
        );
        // The block is rewritten while the leader is in flight: a new
        // miss must fetch its own (fresh) bytes, not the leader's.
        dev.invalidate(512);
        dev.submit(
            IoRequest {
                addr: 512,
                len: BLOCK_SIZE as u32,
                tag: 2,
            },
            0.0,
        );
        let mut out = Vec::new();
        while out.len() < 2 {
            let t = dev.next_completion_time().unwrap();
            dev.poll(t, &mut out);
        }
        assert_eq!(
            dev.stats().completed,
            2,
            "post-invalidation miss must not coalesce"
        );
        assert_eq!(dev.stats().coalesced_reads, 0);
        // The stale leader's fill was discarded; the fresh read filled.
        assert_eq!(cache.counters().cache_stale_fills, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn coalescing_disabled_by_default_issues_every_read() {
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image(8)));
        let mut dev = CachedDevice::with_capacity(sim, 4);
        assert!(!dev.coalescing());
        for tag in 1..=2u64 {
            dev.submit(
                IoRequest {
                    addr: 1024,
                    len: BLOCK_SIZE as u32,
                    tag,
                },
                0.0,
            );
        }
        let mut out = Vec::new();
        while out.len() < 2 {
            let t = dev.next_completion_time().unwrap();
            dev.poll(t, &mut out);
        }
        assert_eq!(dev.stats().completed, 2);
        assert_eq!(dev.stats().coalesced_reads, 0);
    }
}
