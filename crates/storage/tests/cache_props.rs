//! Property tests for the DRAM block cache: the sharded LRU must agree
//! with a naive reference model, never exceed its capacity, keep its
//! counters consistent, and — wrapped as a [`CachedDevice`] — never
//! change the bytes a read returns.
//!
//! The per-key invalidation-epoch protocol is model-checked too: under
//! any interleaving of fills, invalidations and whole-cache flushes,
//! a fill that raced an invalidation of *its own* key is discarded
//! (stale bytes never resurrect) while fills for other keys are never
//! stale-gated — the regression the old cache-global generation would
//! fail.
//!
//! The W-TinyLFU policy gets the same treatment: the count-min sketch
//! must never under-estimate (below its saturation point) and halving
//! must actually halve; a single-shard TinyLFU cache must agree
//! move-for-move with a naive window/probation/protected reference
//! model driven by an identically-seeded sketch; and single-flight
//! coalescing must collapse any multiset of concurrent misses into
//! exactly one device read per distinct block.

use e2lsh_storage::device::cached::{
    BlockCache, CachePolicy, CachedDevice, CmSketch, FillEpoch, TinyLfuConfig,
};
use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
use e2lsh_storage::device::{Device, IoRequest};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Naive LRU: a deque with MRU at the front.
struct ModelLru {
    order: VecDeque<u64>,
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ModelLru {
    fn new(cap: usize) -> Self {
        Self {
            order: VecDeque::new(),
            cap,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: u64) -> bool {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
            self.order.push_front(key);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    fn insert(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        } else if self.order.len() >= self.cap {
            self.order.pop_back();
            self.evictions += 1;
        }
        self.order.push_front(key);
    }
}

/// Naive single-region W-TinyLFU: three deques (MRU at the front) with
/// the same budget formulas as `Region::tiny_lfu`, driven by its own
/// `CmSketch` fed the identical access sequence as the cache under
/// test. No intrusive lists, no slab — just the policy.
struct ModelTinyLfu {
    window: VecDeque<u64>,
    probation: VecDeque<u64>,
    protected: VecDeque<u64>,
    window_cap: usize,
    main_cap: usize,
    protected_cap: usize,
    sketch: CmSketch,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
}

impl ModelTinyLfu {
    fn new(cap: usize) -> Self {
        let window =
            (((cap as f64) * TinyLfuConfig::WINDOW_FRACTION).round() as usize).clamp(1, cap);
        let main = cap - window;
        let protected = ((main as f64) * TinyLfuConfig::PROTECTED_FRACTION).floor() as usize;
        Self {
            window: VecDeque::new(),
            probation: VecDeque::new(),
            protected: VecDeque::new(),
            window_cap: window,
            main_cap: main,
            protected_cap: protected,
            sketch: CmSketch::new(cap),
            hits: 0,
            misses: 0,
            evictions: 0,
            rejected: 0,
        }
    }

    fn len(&self) -> usize {
        self.window.len() + self.probation.len() + self.protected.len()
    }

    fn contains(&self, key: u64) -> bool {
        self.window.contains(&key) || self.probation.contains(&key) || self.protected.contains(&key)
    }

    /// A hit's segment transition (mirrors `CacheShard::promote`).
    fn promote(&mut self, key: u64) {
        if let Some(pos) = self.window.iter().position(|&k| k == key) {
            self.window.remove(pos);
            self.window.push_front(key);
        } else if let Some(pos) = self.protected.iter().position(|&k| k == key) {
            self.protected.remove(pos);
            self.protected.push_front(key);
        } else if let Some(pos) = self.probation.iter().position(|&k| k == key) {
            self.probation.remove(pos);
            self.protected.push_front(key);
            while self.protected.len() > self.protected_cap {
                let demote = self.protected.pop_back().unwrap();
                self.probation.push_front(demote);
            }
        }
    }

    fn get(&mut self, key: u64) -> bool {
        self.sketch.increment(key);
        if self.contains(key) {
            self.promote(key);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    fn insert(&mut self, key: u64) {
        if self.contains(key) {
            self.promote(key);
            return;
        }
        self.window.push_front(key);
        // The admission contest (mirrors `CacheShard::rebalance_window`).
        while self.window.len() > self.window_cap {
            let cand = self.window.pop_back().unwrap();
            if self.main_cap == 0 {
                self.evictions += 1;
                continue;
            }
            if self.probation.len() + self.protected.len() < self.main_cap {
                self.probation.push_front(cand);
                continue;
            }
            let victim = if let Some(&v) = self.probation.back() {
                v
            } else {
                *self.protected.back().unwrap()
            };
            if self.sketch.estimate(cand) > self.sketch.estimate(victim) {
                if self.probation.back() == Some(&victim) {
                    self.probation.pop_back();
                } else {
                    self.protected.pop_back();
                }
                self.evictions += 1;
                self.probation.push_front(cand);
            } else {
                self.rejected += 1;
            }
        }
    }
}

proptest! {
    /// A single-shard BlockCache is observationally equal to the naive
    /// model: same hit/miss verdict per op, same counters, same bound.
    #[test]
    fn single_shard_lru_matches_reference_model(
        ops in proptest::collection::vec((0u8..2, 0u64..24), 1..300),
        cap in 1usize..12,
    ) {
        let cache = BlockCache::new(cap, 1);
        let mut model = ModelLru::new(cap);
        for &(op, key) in &ops {
            if op == 0 {
                let got = cache.get(key).is_some();
                let want = model.get(key);
                prop_assert_eq!(got, want, "get({}) diverged", key);
            } else {
                cache.insert(key, Arc::from(key.to_le_bytes().as_slice()));
                model.insert(key);
            }
            prop_assert!(cache.len() <= cache.capacity());
            prop_assert_eq!(cache.len(), model.order.len());
        }
        let c = cache.counters();
        prop_assert_eq!(c.cache_hits, model.hits);
        prop_assert_eq!(c.cache_misses, model.misses);
        prop_assert_eq!(c.cache_evictions, model.evictions);
    }

    /// Capacity and counter invariants hold for any shard count.
    #[test]
    fn sharded_cache_capacity_and_counters(
        keys in proptest::collection::vec(0u64..512, 1..400),
        cap in 1usize..48,
        shards in 1usize..8,
    ) {
        let cache = BlockCache::new(cap, shards);
        let mut lookups = 0u64;
        for &k in &keys {
            let hit = cache.get(k).is_some();
            lookups += 1;
            if !hit {
                cache.insert(k, Arc::from(k.to_le_bytes().as_slice()));
            }
            prop_assert!(
                cache.len() <= cache.capacity(),
                "{} blocks in a {}-block cache",
                cache.len(),
                cache.capacity()
            );
        }
        let c = cache.counters();
        prop_assert_eq!(c.cache_hits + c.cache_misses, lookups);
        // Every cached or evicted block came from a miss-triggered insert.
        prop_assert_eq!(c.cache_misses, cache.len() as u64 + c.cache_evictions);
        // A hit must return the bytes that were inserted for that key.
        for &k in &keys {
            if let Some(data) = cache.get(k) {
                prop_assert_eq!(&data[..], &k.to_le_bytes()[..]);
            }
        }
    }

    /// Model check of the per-key epoch protocol. Keys carry a version
    /// that bumps on every invalidation (modelling the storage rewrite
    /// that motivated it); fills snapshot `(epoch, version)` at begin
    /// and try to insert their begin-time bytes at completion. The
    /// cache must accept a fill iff its key saw no invalidation (and
    /// the cache no flush) in between — and a lookup must never return
    /// bytes older than the key's current version.
    #[test]
    fn per_key_epochs_never_resurrect_stale_bytes(
        ops in proptest::collection::vec((0u8..5, 0u64..8), 1..400),
    ) {
        const KEYS: usize = 8;
        let bytes = |key: u64, version: u64| -> Arc<[u8]> {
            let mut b = key.to_le_bytes().to_vec();
            b.extend_from_slice(&version.to_le_bytes());
            Arc::from(b.as_slice())
        };
        // Ample capacity: evictions would only weaken the must-serve
        // side of the check, never the staleness side.
        let cache = BlockCache::new(64, 2);
        let mut version = [0u64; KEYS];
        let mut inv_count = [0u64; KEYS];
        let mut flushes = 0u64;
        // (key, epoch, version at begin, inv_count at begin, flushes at begin)
        let mut pending: VecDeque<(u64, FillEpoch, u64, u64, u64)> = VecDeque::new();
        for &(op, key) in &ops {
            let k = key as usize;
            match op {
                // Begin a miss fill: snapshot the epoch and the bytes
                // the device would return right now.
                0 => pending.push_back((
                    key,
                    cache.fill_epoch(key),
                    version[k],
                    inv_count[k],
                    flushes,
                )),
                // Complete the oldest pending fill.
                1 => {
                    if let Some((key, epoch, v, inv0, fl0)) = pending.pop_front() {
                        let accepted = cache.insert_if_fresh(key, bytes(key, v), epoch);
                        let fresh =
                            inv_count[key as usize] == inv0 && flushes == fl0;
                        prop_assert_eq!(
                            accepted, fresh,
                            "fill for key {} (v{}): accepted {} but model says fresh {}",
                            key, v, accepted, fresh
                        );
                    }
                }
                // Synchronous insert of current bytes.
                2 => cache.insert(key, bytes(key, version[k])),
                // Invalidate = storage rewrite of this key.
                3 => {
                    version[k] += 1;
                    inv_count[k] += 1;
                    cache.invalidate(key);
                }
                // Whole-cache flush (no storage rewrite).
                _ => {
                    flushes += 1;
                    cache.invalidate_all();
                }
            }
            // A lookup must never see pre-invalidation bytes.
            for key in 0..KEYS as u64 {
                if let Some(d) = cache.get(key) {
                    let got = u64::from_le_bytes(d[8..16].try_into().unwrap());
                    prop_assert_eq!(
                        got, version[key as usize],
                        "key {} served version {} but storage is at {}",
                        key, got, version[key as usize]
                    );
                }
            }
        }
    }

    /// Invalidating key A must neither evict nor stale-gate an
    /// in-flight fill for key B — under any amount of churn on A, and
    /// with a single lock shard so A and B always share a mutex (the
    /// cache-global generation of PR 1 fails this for every A ≠ B).
    #[test]
    fn invalidating_a_never_gates_in_flight_fill_for_b(
        a_churn in 1usize..20,
        a in 0u64..16,
        b in 16u64..32,
        flush_before_begin in 0u8..2,
    ) {
        let cache = BlockCache::new(8, 1);
        if flush_before_begin == 1 {
            cache.invalidate_all();
        }
        cache.invalidate(a); // pre-churn: per-key epochs already diverge
        let epoch_b = cache.fill_epoch(b);
        for _ in 0..a_churn {
            cache.invalidate(a);
            cache.insert(a, Arc::from(a.to_le_bytes().as_slice()));
        }
        prop_assert!(
            cache.insert_if_fresh(b, Arc::from(b.to_le_bytes().as_slice()), epoch_b),
            "fill for B stale-gated by churn on A"
        );
        let served = cache.get(b).expect("B must be cached after its fill");
        prop_assert_eq!(&served[..], &b.to_le_bytes()[..]);
    }

    /// Reads through a CachedDevice return exactly the backing bytes, no
    /// matter the (tiny, thrashing or ample) cache capacity.
    #[test]
    fn cached_device_reads_match_backing(
        blocks in proptest::collection::vec(0u64..16, 1..120),
        cap in 1usize..32,
    ) {
        let mut image = vec![0u8; 16 * 512];
        for (i, b) in image.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image.clone()));
        let mut dev = CachedDevice::new(sim, Arc::new(BlockCache::new(cap, 2)), 512);
        let mut now = 0.0f64;
        for (tag, &blk) in blocks.iter().enumerate() {
            let addr = blk * 512;
            dev.submit(IoRequest { addr, len: 512, tag: tag as u64 }, now);
            now = dev.next_completion_time().unwrap().max(now);
            let mut out = Vec::new();
            dev.poll(now, &mut out);
            prop_assert_eq!(out.len(), 1);
            prop_assert_eq!(out[0].tag, tag as u64);
            prop_assert_eq!(
                &out[0].data[..],
                &image[addr as usize..addr as usize + 512]
            );
        }
        let s = dev.stats();
        prop_assert_eq!(s.cache_hits + s.cache_misses, blocks.len() as u64);
        prop_assert_eq!(s.completed, s.cache_misses);
    }

    /// Below its saturation point the count-min sketch never
    /// under-estimates: a key incremented `c` times estimates at least
    /// `min(c, 16)` (15 from the 4-bit counters + 1 doorkeeper bonus).
    /// Bounded at fewer additions than the sample period so no halving
    /// pass fires mid-count.
    #[test]
    fn cm_sketch_never_underestimates(
        keys in proptest::collection::vec(0u64..64, 1..600),
    ) {
        // `new(1)` → 64 counters → sample period 640 > 599 additions.
        let mut sketch = CmSketch::new(1);
        let mut truth = std::collections::HashMap::new();
        for &k in &keys {
            sketch.increment(k);
            *truth.entry(k).or_insert(0u32) += 1;
        }
        prop_assert_eq!(sketch.additions(), keys.len() as u64);
        for (&k, &count) in &truth {
            let est = sketch.estimate(k);
            prop_assert!(
                est >= count.min(16),
                "key {} incremented {} times but estimates {}",
                k, count, est
            );
        }
    }

    /// The aging step actually ages: after `halve()` every estimate is
    /// at most half its pre-halving value (integer division), the
    /// doorkeeper bonus is gone, and the additions counter is halved.
    #[test]
    fn cm_sketch_halving_bounds_estimates(
        keys in proptest::collection::vec(0u64..64, 1..600),
        halvings in 1usize..4,
    ) {
        let mut sketch = CmSketch::new(1);
        for &k in &keys {
            sketch.increment(k);
        }
        for _ in 0..halvings {
            let before: Vec<(u64, u32)> = (0..64).map(|k| (k, sketch.estimate(k))).collect();
            let additions_before = sketch.additions();
            sketch.halve();
            prop_assert_eq!(sketch.additions(), additions_before / 2);
            for (k, est_before) in before {
                let est_after = sketch.estimate(k);
                prop_assert!(
                    est_after <= est_before / 2,
                    "key {}: estimate {} -> {} after halving (bound {})",
                    k, est_before, est_after, est_before / 2
                );
            }
        }
    }

    /// A single-shard TinyLFU cache (no region split) is observationally
    /// equal to the naive window/probation/protected model: same
    /// hit/miss verdict per get, same membership, same counters.
    #[test]
    fn tiny_lfu_single_shard_matches_reference_model(
        ops in proptest::collection::vec((0u8..2, 0u64..24), 1..300),
        cap in 1usize..12,
    ) {
        let policy = CachePolicy::TinyLfu(TinyLfuConfig::default());
        let cache = BlockCache::with_policy(cap, 1, policy);
        let mut model = ModelTinyLfu::new(cap);
        for &(op, key) in &ops {
            if op == 0 {
                let got = cache.get(key).is_some();
                let want = model.get(key);
                prop_assert_eq!(got, want, "get({}) diverged", key);
            } else {
                cache.insert(key, Arc::from(key.to_le_bytes().as_slice()));
                model.insert(key);
            }
            prop_assert!(cache.len() <= cache.capacity());
            prop_assert_eq!(cache.len(), model.len());
            // Membership agrees exactly (peek touches no state).
            for k in 0u64..24 {
                prop_assert_eq!(
                    cache.peek(k).is_some(),
                    model.contains(k),
                    "membership of {} diverged", k
                );
            }
        }
        let c = cache.counters();
        prop_assert_eq!(c.cache_hits, model.hits);
        prop_assert_eq!(c.cache_misses, model.misses);
        prop_assert_eq!(c.cache_evictions, model.evictions);
        prop_assert_eq!(c.cache_admission_rejected, model.rejected);
    }

    /// Single-flight invariant: any multiset of reads submitted while
    /// their fills are in flight costs exactly one device read per
    /// distinct block — the rest coalesce onto the leader — and every
    /// completion still carries the right bytes for its tag.
    #[test]
    fn concurrent_misses_coalesce_to_one_read_per_block(
        blocks in proptest::collection::vec(0u64..16, 1..80),
        cap in 16usize..32,
    ) {
        let mut image = vec![0u8; 16 * 512];
        for (i, b) in image.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image.clone()));
        let cache = Arc::new(BlockCache::new(cap, 2));
        let mut dev = CachedDevice::new(sim, Arc::clone(&cache), 512);
        dev.set_coalescing(true);
        // Submit the whole multiset before polling anything: the first
        // read of each distinct block leads, every repeat must join it.
        for (tag, &blk) in blocks.iter().enumerate() {
            dev.submit(IoRequest { addr: blk * 512, len: 512, tag: tag as u64 }, 0.0);
        }
        let distinct: std::collections::HashSet<u64> = blocks.iter().copied().collect();
        let mut out = Vec::new();
        while out.len() < blocks.len() {
            let t = dev.next_completion_time().expect("completions pending");
            dev.poll(t, &mut out);
        }
        prop_assert_eq!(out.len(), blocks.len());
        let mut tags_seen = std::collections::HashSet::new();
        for c in &out {
            let blk = blocks[c.tag as usize];
            let addr = (blk * 512) as usize;
            prop_assert_eq!(&c.data[..], &image[addr..addr + 512], "bytes for tag {}", c.tag);
            tags_seen.insert(c.tag);
        }
        prop_assert_eq!(tags_seen.len(), blocks.len(), "every tag completes exactly once");
        let s = dev.stats();
        prop_assert_eq!(s.completed, distinct.len() as u64, "one device read per block");
        prop_assert_eq!(s.coalesced_reads, (blocks.len() - distinct.len()) as u64);
        prop_assert_eq!(cache.counters().coalesced_reads, s.coalesced_reads);
        prop_assert_eq!(s.cache_misses, blocks.len() as u64);
        prop_assert_eq!(s.cache_hits, 0);
    }
}
