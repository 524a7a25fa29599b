//! Dataset sharding and per-shard index management.
//!
//! The serving layer splits the database into `N` contiguous partitions,
//! builds one E2LSHoS index per partition (each on its own device /
//! index file), and serves every query against all shards, merging the
//! per-shard top-k. Contiguous partitioning keeps the global→local id
//! mapping a single offset, so per-shard results translate with one add.
//!
//! ## Online growth
//!
//! Objects inserted after the build get the next global ids
//! (`n, n+1, …`) and are routed round-robin over the shards, so the
//! global↔local mapping for appended ids stays pure arithmetic — no
//! shared routing table, no lock on the hot result-mapping path (see
//! [`ShardPlan::shard_of_any`] / [`Shard::to_global`]). Each shard's
//! rows live behind an [`RwLock`] so the write path can append
//! coordinates while query reactors keep running.
//!
//! Each shard owns an optional [`BlockCache`] shared by every replica
//! driving that shard, so a bucket fetched by one replica is a DRAM hit
//! for all of them.

use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_storage::build::{build_index, BuildConfig};
use e2lsh_storage::device::cached::{BlockCache, CachePolicy};
use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
use e2lsh_storage::index::StorageIndex;
use e2lsh_storage::layout::BLOCK_SIZE;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// A contiguous partition of `0..n` into shards of near-equal size,
/// extended to ids `≥ n` (online inserts) by round-robin assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Split `n` objects into `num_shards` contiguous ranges whose sizes
    /// differ by at most one.
    pub fn contiguous(n: usize, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1).min(n.max(1));
        let base = n / num_shards;
        let extra = n % num_shards;
        let mut bounds = Vec::with_capacity(num_shards + 1);
        let mut at = 0;
        bounds.push(0);
        for s in 0..num_shards {
            at += base + usize::from(s < extra);
            bounds.push(at);
        }
        debug_assert_eq!(*bounds.last().unwrap(), n);
        Self { bounds }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Objects covered at build time (appended ids start here).
    pub fn base_total(&self) -> usize {
        *self.bounds.last().unwrap()
    }

    /// Build-time size of shard `s`.
    pub fn base_len(&self, s: usize) -> usize {
        self.bounds[s + 1] - self.bounds[s]
    }

    /// Global id range of shard `s` at build time.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// Shard owning **build-time** global id `i < n`.
    pub fn shard_of(&self, i: usize) -> usize {
        match self.bounds.binary_search(&i) {
            Ok(s) => s.min(self.num_shards() - 1),
            Err(s) => s - 1,
        }
    }

    /// Shard owning any global id, including ids appended online:
    /// appended ids are dealt round-robin, so id `n + j` lives on shard
    /// `j mod N`.
    pub fn shard_of_any(&self, g: usize) -> usize {
        let n = self.base_total();
        if g < n {
            self.shard_of(g)
        } else {
            (g - n) % self.num_shards()
        }
    }

    /// Shard-local id of global id `g` (build-time or appended).
    pub fn local_of(&self, g: usize) -> usize {
        let n = self.base_total();
        if g < n {
            g - self.bounds[self.shard_of(g)]
        } else {
            self.base_len(self.shard_of_any(g)) + (g - n) / self.num_shards()
        }
    }

    /// Global id of shard `s`'s local id (inverse of
    /// [`ShardPlan::local_of`] within one shard).
    pub fn global_of(&self, s: usize, local: usize) -> usize {
        let base = self.base_len(s);
        if local < base {
            self.bounds[s] + local
        } else {
            self.base_total() + (local - base) * self.num_shards() + s
        }
    }
}

/// One partition: its rows, its opened on-storage index, and the shared
/// DRAM block cache its replicas use.
pub struct Shard {
    /// Shard index within the service.
    pub id: usize,
    /// Global id of local object 0.
    pub start: usize,
    /// The shard's rows (local ids `0..len`), behind a lock so the
    /// online write path can append coordinates while query reactors
    /// read them. Coordinates of deleted objects are kept (in-flight
    /// queries may still distance-check them; their index entries are
    /// gone, so they stop appearing in results).
    pub data: RwLock<Dataset>,
    /// The shard's opened E2LSHoS index (occupancy filters are live:
    /// the write path publishes new filter bits into it).
    pub index: StorageIndex,
    /// The shard's index file.
    pub path: PathBuf,
    /// DRAM block cache shared by all replicas of this shard (None =
    /// uncached).
    pub cache: Option<Arc<BlockCache>>,
    /// Build-time rows of this shard (locals `>= base_len` were
    /// appended online).
    base_len: usize,
    /// Build-time total over all shards (appended global ids start
    /// here).
    base_total: usize,
    /// Shards in the service (round-robin modulus for appended ids).
    num_shards: usize,
}

impl Shard {
    /// Map a shard-local neighbor id to its global id. Pure arithmetic
    /// (contiguous base partition + round-robin appended ids), so the
    /// result-mapping hot path takes no lock.
    #[inline]
    pub fn to_global(&self, local: u32) -> u32 {
        if (local as usize) < self.base_len {
            local + self.start as u32
        } else {
            (self.base_total + (local as usize - self.base_len) * self.num_shards + self.id) as u32
        }
    }

    /// Shard-local id of a global id owned by this shard (inverse of
    /// [`Shard::to_global`]).
    #[inline]
    pub fn local_of(&self, global: u32) -> u32 {
        let g = global as usize;
        if g < self.base_total {
            debug_assert!(self.start <= g && g - self.start < self.base_len);
            (g - self.start) as u32
        } else {
            debug_assert_eq!((g - self.base_total) % self.num_shards, self.id);
            (self.base_len + (g - self.base_total) / self.num_shards) as u32
        }
    }

    /// Checked [`Shard::local_of`]: `Some(local)` when this shard owns
    /// `global` **and** the row exists (the id was assigned — inserted
    /// rows land in the dataset even when the index write failed).
    /// `None` for ids of other shards and ids never assigned — the
    /// writer's guard against deletes of unminted ids, which must fail
    /// cleanly instead of panicking.
    pub fn try_local_of(&self, global: u32) -> Option<u32> {
        let g = global as usize;
        let local = if g < self.base_total {
            if g < self.start || g - self.start >= self.base_len {
                return None;
            }
            (g - self.start) as u32
        } else {
            if (g - self.base_total) % self.num_shards != self.id {
                return None;
            }
            (self.base_len + (g - self.base_total) / self.num_shards) as u32
        };
        ((local as usize) < self.num_rows()).then_some(local)
    }

    /// Rows currently held (build-time + appended).
    pub fn num_rows(&self) -> usize {
        self.data.read().unwrap().len()
    }

    /// Build-time rows (before any online insert).
    pub fn base_len(&self) -> usize {
        self.base_len
    }
}

/// Independently locked segments each shard cache's key space is
/// striped over (contention reduction; clamped to the cache's capacity).
const CACHE_LOCK_SHARDS: usize = 8;

/// How shard indexes are built.
#[derive(Clone, Debug)]
pub struct ShardBuildConfig {
    /// Number of partitions.
    pub num_shards: usize,
    /// Hash-family seed (per-shard seed = `seed + shard id`, so shards
    /// use independent families; with one shard the index is identical to
    /// a plain `build_index` at this seed).
    pub seed: u64,
    /// Directory for the per-shard index files. The default is a fresh
    /// unique directory under the system temp dir, so two builds that
    /// leave it unset never share files.
    pub dir: PathBuf,
    /// Per-shard DRAM cache capacity in 512-byte blocks (0 = uncached).
    pub cache_blocks: usize,
    /// Per-shard object-ID capacity reserved for online inserts
    /// (`None` = the storage default, 2× the shard's build-time size).
    pub capacity: Option<usize>,
}

impl Default for ShardBuildConfig {
    fn default() -> Self {
        Self {
            num_shards: 1,
            seed: 42,
            dir: e2lsh_storage::testutil::temp_path("e2lsh-service"),
            cache_blocks: 0,
            capacity: None,
        }
    }
}

/// All shards of one dataset.
pub struct ShardSet {
    shards: Vec<Shard>,
    plan: ShardPlan,
    dim: usize,
    total: usize,
}

impl ShardSet {
    /// Partition `data` and build one index per shard.
    ///
    /// `params_for` derives the E2LSH parameters from each shard's local
    /// rows (parameters like `L = n^ρ` depend on the partition size, so
    /// they are per-shard).
    pub fn build(
        data: &Dataset,
        cfg: &ShardBuildConfig,
        params_for: impl Fn(&Dataset) -> E2lshParams,
    ) -> io::Result<Self> {
        assert!(!data.is_empty(), "cannot shard an empty dataset");
        std::fs::create_dir_all(&cfg.dir)?;
        let plan = ShardPlan::contiguous(data.len(), cfg.num_shards);
        let mut shards = Vec::with_capacity(plan.num_shards());
        for s in 0..plan.num_shards() {
            let range = plan.range(s);
            let mut local = Dataset::with_capacity(data.dim(), range.len());
            for i in range.clone() {
                local.push(data.point(i));
            }
            let params = params_for(&local);
            let path = cfg.dir.join(format!(
                "shard-{s}-of-{}-n{}-seed{}.idx",
                plan.num_shards(),
                local.len(),
                cfg.seed
            ));
            let build_cfg = BuildConfig {
                seed: cfg.seed + s as u64,
                capacity: cfg.capacity,
                ..Default::default()
            };
            build_index(&local, &params, &build_cfg, &path)?;
            let index = open_index(&path)?;
            let cache = (cfg.cache_blocks > 0)
                .then(|| Arc::new(BlockCache::new(cfg.cache_blocks, CACHE_LOCK_SHARDS)));
            let base_len = local.len();
            shards.push(Shard {
                id: s,
                start: range.start,
                data: RwLock::new(local),
                index,
                path,
                cache,
                base_len,
                base_total: data.len(),
                num_shards: plan.num_shards(),
            });
        }
        Ok(Self {
            shards,
            plan,
            dim: data.dim(),
            total: data.len(),
        })
    }

    /// The shards.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Replace every shard's block cache with an empty one of the same
    /// capacity under `policy`. A
    /// [`TinyLfu`](CachePolicy::TinyLfu) `region_boundary` of 0 is
    /// resolved per shard from its index geometry
    /// (`heap_base / BLOCK_SIZE`): keys below the boundary are
    /// table-region blocks (hash-table slots and filters), keys at or
    /// above it are bucket-chain blocks. Call before replicas clone
    /// their caches (the service does this at construction); uncached
    /// shards are untouched.
    pub fn set_cache_policy(&mut self, policy: CachePolicy) {
        for shard in &mut self.shards {
            let Some(cache) = &shard.cache else { continue };
            let mut policy = policy;
            if let CachePolicy::TinyLfu(cfg) = &mut policy {
                if cfg.region_boundary == 0 {
                    cfg.region_boundary = shard.index.geometry().heap_base() / BLOCK_SIZE as u64;
                }
            }
            shard.cache = Some(Arc::new(BlockCache::with_policy(
                cache.capacity(),
                cache.lock_shards(),
                policy,
            )));
        }
    }

    /// The partition plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total objects across shards.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when the set holds no objects.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Remove the shard index files (call when the service is done).
    pub fn cleanup(&self) {
        for s in &self.shards {
            std::fs::remove_file(&s.path).ok();
            // Drop the directory too once the last shard file is gone
            // (fails harmlessly while non-empty or shared).
            if let Some(dir) = s.path.parent() {
                std::fs::remove_dir(dir).ok();
            }
        }
    }
}

/// Open an index file without standing up a real device (metadata reads
/// only).
fn open_index(path: &Path) -> io::Result<StorageIndex> {
    let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(path)?);
    StorageIndex::open(&mut dev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_plan_covers_everything() {
        let plan = ShardPlan::contiguous(10, 3);
        assert_eq!(plan.num_shards(), 3);
        assert_eq!(plan.range(0), 0..4);
        assert_eq!(plan.range(1), 4..7);
        assert_eq!(plan.range(2), 7..10);
        for i in 0..10 {
            let s = plan.shard_of(i);
            assert!(plan.range(s).contains(&i), "id {i} in shard {s}");
        }
    }

    #[test]
    fn plan_clamps_shard_count() {
        let plan = ShardPlan::contiguous(2, 8);
        assert_eq!(plan.num_shards(), 2);
        let plan = ShardPlan::contiguous(5, 1);
        assert_eq!(plan.num_shards(), 1);
        assert_eq!(plan.range(0), 0..5);
    }

    #[test]
    fn appended_ids_route_round_robin_and_roundtrip() {
        let plan = ShardPlan::contiguous(10, 3);
        // Base ids roundtrip through the contiguous mapping.
        for g in 0..10 {
            let s = plan.shard_of_any(g);
            assert_eq!(s, plan.shard_of(g));
            assert_eq!(plan.global_of(s, plan.local_of(g)), g);
        }
        // Appended ids (10, 11, …) are dealt round-robin and locals are
        // dense continuations of each shard's base range.
        for j in 0..12 {
            let g = 10 + j;
            let s = plan.shard_of_any(g);
            assert_eq!(s, j % 3);
            let local = plan.local_of(g);
            assert_eq!(local, plan.base_len(s) + j / 3);
            assert_eq!(plan.global_of(s, local), g);
        }
    }
}
