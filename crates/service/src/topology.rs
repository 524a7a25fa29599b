//! Serving topology: replica groups over the shard set.
//!
//! PRs 1–3 hard-wired one serving loop per shard. This module
//! generalizes that to **R replicas per shard**: every replica of shard
//! `s` serves queries against the *same* on-storage index and the same
//! locked row store (the [`Shard`] — its `RwLock`'d dataset and atomic
//! occupancy-filter words make the shared mutable state safe), but
//! owns an **independent** reactor thread, DRAM block cache and
//! admission queue. Reads scale out by adding replicas; writes keep the
//! single writer per shard and publish to every replica for free — the index
//! and rows are shared, only the per-replica caches need the writer's
//! block invalidations (see [`crate::update::ShardUpdater`]).
//!
//! The topology also owns each replica's **health**: a replica can be
//! *fenced* ([`Topology::fence`]) — marked down so the router stops
//! selecting it — either by an operator/test (simulating a crash) or by
//! the serving layer itself when the replica's reactor panics.
//! The fencing protocol that makes this race-free lives with the
//! per-run dispatch state in [`crate::router`]; the topology just holds
//! the durable flag (a fenced replica stays fenced across sessions
//! until [`Topology::unfence`]).
//!
//! Replica 0 of each shard reuses the cache the [`ShardSet`] built (so
//! a `Topology` with `replicas_per_shard == 1` is exactly the PR-3
//! service); replicas 1..R get fresh private caches of identical shape
//! ([`BlockCache::new_like`]). Private caches are the point: replicas
//! model independent serving processes (possibly on different machines
//! or NUMA domains), and a query's cache locality depends on which
//! replica the router picks.

use crate::shard::{Shard, ShardSet};
use e2lsh_storage::device::cached::BlockCache;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Health and per-replica resources of one replica.
pub struct Replica {
    /// The replica's private DRAM block cache (`None` when the shard
    /// set was built uncached).
    cache: Option<Arc<BlockCache>>,
    /// True when the replica is fenced: the router must not select it
    /// and its reactor abandons its queue (see `crate::router` for the
    /// handshake).
    down: AtomicBool,
}

impl Replica {
    /// The replica's private cache.
    pub fn cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref()
    }

    /// True when the replica is fenced.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Fence this replica (idempotent; returns whether the call changed
    /// the state). All fences — operator calls through
    /// [`Topology::fence`] and a panicking reactor fencing its own
    /// replica — go through here.
    pub(crate) fn fence(&self) -> bool {
        !self.down.swap(true, Ordering::SeqCst)
    }
}

/// The serving topology: every shard of a [`ShardSet`], each backed by
/// `replicas_per_shard` replicas.
pub struct Topology {
    shards: ShardSet,
    /// `[shard][replica]` health + resources.
    replicas: Vec<Vec<Replica>>,
    replicas_per_shard: usize,
}

impl Topology {
    /// Back every shard of `shards` with `replicas_per_shard` replicas
    /// (clamped to at least 1). Replica 0 adopts the shard's existing
    /// cache; higher replicas get fresh private caches of the same
    /// capacity and lock striping.
    pub fn new(shards: ShardSet, replicas_per_shard: usize) -> Self {
        let r = replicas_per_shard.max(1);
        let replicas = shards
            .shards()
            .iter()
            .map(|shard| {
                (0..r)
                    .map(|ri| Replica {
                        cache: match (&shard.cache, ri) {
                            (Some(c), 0) => Some(Arc::clone(c)),
                            (Some(c), _) => Some(Arc::new(c.new_like())),
                            (None, _) => None,
                        },
                        down: AtomicBool::new(false),
                    })
                    .collect()
            })
            .collect();
        Self {
            shards,
            replicas,
            replicas_per_shard: r,
        }
    }

    /// The underlying shard set.
    pub fn shards(&self) -> &ShardSet {
        &self.shards
    }

    /// Shard `s` (shared by all of its replicas).
    pub fn shard(&self, s: usize) -> &Shard {
        &self.shards.shards()[s]
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.num_shards()
    }

    /// Replicas backing each shard.
    pub fn replicas_per_shard(&self) -> usize {
        self.replicas_per_shard
    }

    /// Replica `r` of shard `s`.
    pub fn replica(&self, s: usize, r: usize) -> &Replica {
        &self.replicas[s][r]
    }

    /// The replicas of shard `s`.
    pub fn shard_replicas(&self, s: usize) -> &[Replica] {
        &self.replicas[s]
    }

    /// All replica caches of shard `s` (the writer invalidates
    /// rewritten blocks in every one of them).
    pub fn shard_caches(&self, s: usize) -> Vec<Arc<BlockCache>> {
        self.replicas[s]
            .iter()
            .filter_map(|r| r.cache.clone())
            .collect()
    }

    /// Fence replica `r` of shard `s`: the router stops selecting it,
    /// its reactor abandons its queue at the next loop iteration, and
    /// the per-run failover scan re-dispatches its outstanding queries
    /// to a live sibling. Idempotent. Returns whether the call changed
    /// the state.
    ///
    /// Fencing the *last* live replica of a shard leaves the shard
    /// unreachable for reads: new queries are shed and outstanding ones
    /// complete with that shard's partial empty (the run still
    /// terminates). Writes are unaffected — the per-shard writer is not
    /// a replica.
    pub fn fence(&self, s: usize, r: usize) -> bool {
        self.replicas[s][r].fence()
    }

    /// Clear a replica's fence so future sessions use it again
    /// (reactors are spawned per session, so recovery needs no
    /// handshake; a session that already fenced the replica's reactor
    /// picks it back up at the next session start).
    pub fn unfence(&self, s: usize, r: usize) {
        self.replicas[s][r].down.store(false, Ordering::SeqCst);
    }

    /// Warm replica `r`'s block cache from the warmest sibling of shard
    /// `s`: copy up to `max_blocks` of the sibling's most-recently-used
    /// blocks ([`BlockCache::warm_from`]) so the replica starts serving
    /// from a populated cache instead of paying the cold-start misses.
    /// The donor is the sibling (fenced or not — a fenced replica's
    /// cache is still invalidation-maintained) with the most cached
    /// blocks. Returns the number of blocks copied (0 when the shard is
    /// uncached, `max_blocks` is 0, or no sibling holds anything).
    ///
    /// Call while the shard has no active writer (see
    /// [`BlockCache::warm_from`] for the race this avoids); the serving
    /// layer warms at session start, before writers accept work.
    pub fn warm_replica(&self, s: usize, r: usize, max_blocks: usize) -> usize {
        if max_blocks == 0 {
            return 0;
        }
        let Some(target) = self.replicas[s][r].cache() else {
            return 0;
        };
        let donor = self.replicas[s]
            .iter()
            .enumerate()
            .filter(|&(ri, _)| ri != r)
            .filter_map(|(_, rep)| rep.cache())
            .max_by_key(|c| c.len());
        match donor {
            Some(donor) => target.warm_from(donor, max_blocks),
            None => 0,
        }
    }

    /// [`Topology::unfence`] + [`Topology::warm_replica`]: bring a
    /// fenced replica back and pre-fill its cache from the warmest live
    /// sibling so its first queries do not pay the full cold-start miss
    /// cost. Returns the number of blocks copied.
    pub fn unfence_and_warm(&self, s: usize, r: usize, max_blocks: usize) -> usize {
        self.unfence(s, r);
        self.warm_replica(s, r, max_blocks)
    }

    /// True when replica `r` of shard `s` is fenced.
    pub fn is_down(&self, s: usize, r: usize) -> bool {
        self.replicas[s][r].is_down()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardBuildConfig;
    use e2lsh_core::dataset::Dataset;
    use e2lsh_core::params::E2lshParams;

    fn tiny_shards(cache_blocks: usize, tag: &str) -> ShardSet {
        let mut data = Dataset::with_capacity(4, 64);
        for i in 0..64 {
            data.push(&[i as f32, 0.0, 1.0, -1.0]);
        }
        ShardSet::build(
            &data,
            &ShardBuildConfig {
                num_shards: 2,
                seed: 11,
                dir: e2lsh_storage::testutil::temp_path(&format!("topology-{tag}")),
                cache_blocks,
                ..Default::default()
            },
            |local| {
                E2lshParams::derive(
                    local.len(),
                    2.0,
                    4.0,
                    1.0,
                    local.max_abs_coord(),
                    local.dim(),
                )
            },
        )
        .expect("build")
    }

    #[test]
    fn replicas_share_shard_but_own_caches() {
        let shards = tiny_shards(128, "caches");
        let topo = Topology::new(shards, 3);
        assert_eq!(topo.replicas_per_shard(), 3);
        for s in 0..topo.num_shards() {
            let caches = topo.shard_caches(s);
            assert_eq!(caches.len(), 3);
            // Replica 0 adopts the shard cache; siblings are private
            // but identically shaped.
            assert!(Arc::ptr_eq(
                &caches[0],
                topo.shard(s).cache.as_ref().unwrap()
            ));
            assert!(!Arc::ptr_eq(&caches[0], &caches[1]));
            assert_eq!(caches[1].capacity(), caches[0].capacity());
            assert_eq!(caches[1].lock_shards(), caches[0].lock_shards());
        }
        topo.shards().cleanup();
    }

    #[test]
    fn uncached_shards_yield_uncached_replicas() {
        let shards = tiny_shards(0, "nocache");
        let topo = Topology::new(shards, 2);
        assert!(topo.shard_caches(0).is_empty());
        assert!(topo.replica(0, 1).cache().is_none());
        topo.shards().cleanup();
    }

    #[test]
    fn warm_replica_copies_from_warmest_sibling() {
        let shards = tiny_shards(128, "warm");
        let topo = Topology::new(shards, 3);
        // Heat replica 0's cache (the shard cache) by hand.
        let donor = topo.replica(0, 0).cache().unwrap();
        for k in 0..20u64 {
            donor.insert(k, std::sync::Arc::from([k as u8].as_slice()));
        }
        let copied = topo.warm_replica(0, 1, 8);
        assert_eq!(copied, 8);
        let warmed = topo.replica(0, 1).cache().unwrap();
        assert_eq!(warmed.len(), 8);
        assert_eq!(warmed.counters().cache_warmed, 8);
        // Budget 0 and uncached shards are no-ops.
        assert_eq!(topo.warm_replica(0, 2, 0), 0);
        // unfence_and_warm clears the fence and warms in one call.
        topo.fence(0, 2);
        let copied = topo.unfence_and_warm(0, 2, 4);
        assert!(!topo.is_down(0, 2));
        assert_eq!(copied, 4);
        topo.shards().cleanup();

        let uncached = Topology::new(tiny_shards(0, "warmless"), 2);
        assert_eq!(uncached.warm_replica(0, 1, 8), 0);
        uncached.shards().cleanup();
    }

    #[test]
    fn fencing_is_idempotent_and_reversible() {
        let shards = tiny_shards(0, "fence");
        let topo = Topology::new(shards, 2);
        assert!(!topo.is_down(0, 0) && !topo.is_down(0, 1));
        assert!(topo.fence(0, 1));
        assert!(!topo.fence(0, 1), "second fence is a no-op");
        assert!(topo.is_down(0, 1) && !topo.is_down(0, 0));
        assert!(!topo.is_down(1, 1), "other shard untouched");
        topo.unfence(0, 1);
        assert!(!topo.is_down(0, 1));
        topo.shards().cleanup();
    }
}
