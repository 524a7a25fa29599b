//! Failure injection: the storage layer must reject corrupt inputs
//! loudly rather than serving wrong answers — and the online write
//! path must leave a shard queryable (and its block cache free of
//! bytes from the failed write) when a device error lands mid
//! insert/delete.

use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;
use e2lsh_storage::build::{build_index, BuildConfig, Superblock};
use e2lsh_storage::device::cached::{BlockCache, CachedDevice};
use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
use e2lsh_storage::device::{Device, IoRequest};
use e2lsh_storage::index::StorageIndex;
use e2lsh_storage::layout::{BLOCK_SIZE, SUPERBLOCK_SIZE};
use e2lsh_storage::testutil::temp_path;
use e2lsh_storage::update::Updater;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Seed override so the CI stress job exercises distinct datasets; a
/// failing seed reproduces locally via `E2LSH_TEST_SEED=…`.
fn test_seed() -> u64 {
    std::env::var("E2LSH_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn dataset_seeded(n: usize, seed: u64) -> Dataset {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..6).map(|_| rng.gen::<f32>() * 5.0).collect())
        .collect();
    Dataset::from_rows(&rows)
}

fn dataset(n: usize) -> Dataset {
    dataset_seeded(n, 3)
}

#[test]
fn zeroed_superblock_is_rejected() {
    let mut dev = SimStorage::new(
        DeviceProfile::ESSD,
        1,
        Backing::Mem(vec![0u8; SUPERBLOCK_SIZE * 2]),
    );
    assert!(StorageIndex::open(&mut dev).is_err());
}

#[test]
fn corrupted_magic_is_rejected() {
    let ds = dataset(200);
    let params = E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
    let path = temp_path("corrupt_magic.idx");
    build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();
    let mut image = std::fs::read(&path).unwrap();
    image[0] ^= 0xFF; // flip a magic byte
    let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image));
    assert!(StorageIndex::open(&mut dev).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_radius_count_is_rejected() {
    let ds = dataset(200);
    let params = E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
    let path = temp_path("corrupt_radii.idx");
    build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();
    let mut image = std::fs::read(&path).unwrap();
    // The radius count lives after magic(8)+n(8)+capacity(8)+dim(4)+m(4)+
    // l(4)+u(4)+filter(4)+c(4)+w(4)+gamma(4)+s(8)+seed(8)+total(8) = 80.
    image[80..84].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = Superblock::decode(&image).unwrap_err();
    assert!(err.to_string().contains("radii"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// Read every whole block of the index file through a CachedDevice so
/// the cache is warm everywhere an update could strike.
fn warm_cache(dev: &mut CachedDevice<SimStorage>, file_len: u64) {
    let blocks = file_len.div_ceil(BLOCK_SIZE as u64);
    let mut now = 0.0f64;
    let mut out = Vec::new();
    for b in 0..blocks {
        dev.submit(
            IoRequest {
                addr: b * BLOCK_SIZE as u64,
                len: BLOCK_SIZE as u32,
                tag: b,
            },
            now,
        );
        now = dev.next_completion_time().unwrap().max(now);
        out.clear();
        dev.poll(now, &mut out);
    }
}

/// Device errors injected mid-`Updater::insert`: the operation fails,
/// but (1) the shard stays queryable — the index reopens and serves
/// correct answers for pre-existing objects without panicking, even
/// though half-linked entries for the failed id are on storage; and
/// (2) a block cache over the file holds no bytes from the failed
/// write once the write trace is invalidated (exactly what the
/// service's `ShardUpdater` does on error).
#[test]
fn failed_insert_keeps_shard_queryable_and_cache_clean() {
    let seed = test_seed();
    let ds = dataset_seeded(300, seed);
    let params = E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
    let path = temp_path("failed_insert.idx");
    build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();
    let file_len = std::fs::metadata(&path).unwrap().len();

    // Warm a shared cache over the whole file, as serving workers would.
    let cache = Arc::new(BlockCache::new(1 << 16, 4));
    let mk_dev = || SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
    let mut dev = CachedDevice::new(mk_dev(), Arc::clone(&cache), BLOCK_SIZE as u32);
    warm_cache(&mut dev, file_len);
    assert!(!cache.is_empty());

    let newpoint: Vec<f32> = (0..6).map(|i| 0.123 * (i as f32 + seed as f32)).collect();
    let mut up = Updater::open(&path).unwrap();
    let mut expect_n = up.len();
    for fail_at in [0u64, 1, 3, 9] {
        up.fail_after_writes(Some(fail_at));
        let err = up.insert(&newpoint).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Other, "{err}");
        up.fail_after_writes(None);
        // The trace records every touched cacheable block, failed write
        // included. fail_at 0 kills the first write of the insert: when
        // a fresh block is needed that is the (untracked) superblock
        // allocation flush and the trace is empty, but a squeeze-only
        // insert skips that flush and its first write is already a
        // tracked block write. Later faults always leave a trace.
        let trace = up.take_trace();
        assert!(
            fail_at == 0 || !trace.blocks.is_empty(),
            "fail_at {fail_at}: unexpected trace {:?}",
            trace.blocks
        );
        // Mirror ShardUpdater: invalidate the rewritten blocks even on
        // failure. Afterwards the cache must hold nothing for them —
        // neither pre-write nor partial post-write bytes.
        for &addr in &trace.blocks {
            cache.invalidate(addr / BLOCK_SIZE as u64);
            assert!(
                cache.get(addr / BLOCK_SIZE as u64).is_none(),
                "fail_at {fail_at}: cache still serves block {addr}"
            );
        }
        // A re-read through the cached device returns the current file
        // bytes (whatever the failed write left behind), not stale ones.
        for &addr in &trace.blocks {
            let fresh = dev.read_sync(addr, BLOCK_SIZE as u32);
            let mut out = Vec::new();
            dev.submit(
                IoRequest {
                    addr,
                    len: BLOCK_SIZE as u32,
                    tag: u64::MAX - addr,
                },
                1e9,
            );
            let t = dev.next_completion_time().unwrap();
            dev.poll(t.max(1e9), &mut out);
            assert_eq!(out.len(), 1);
            assert_eq!(
                out[0].data[..],
                fresh[..],
                "fail_at {fail_at}: stale bytes served"
            );
        }
        // A failed insert burns its id — uniformly, whichever write
        // failed: entries for it may half-exist in some tables, so
        // recycling the id would corrupt a later insert's results, and
        // callers that mirror coordinates (the serving layer) rely on
        // the id being consumed in every error path.
        expect_n += 1;
        assert_eq!(up.len(), expect_n, "failed insert must burn its id");
    }
    drop(up);

    // The shard stays queryable: reopen and self-query pre-existing
    // objects. Half-linked entries for the failed id decode but are
    // skipped (no coordinates), never panic.
    let mut qdev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
    let index = StorageIndex::open(&mut qdev).unwrap();
    // The burn is flushed best-effort: with the fault still armed the
    // final superblock write of an iteration can fail too, in which
    // case the next operation's reservation write publishes it. The
    // last burn may therefore be in-memory only — the on-disk count
    // lands between the build-time n and the in-process one.
    assert!(
        (300..=expect_n).contains(&index.len()),
        "reopened n {} outside [300, {expect_n}]",
        index.len()
    );
    // The engine serves a dataset of 300 coordinate rows against an
    // index whose id space includes the burned ids: entries for them
    // decode but are skipped (no coordinates), never panic.
    let mut queries = Dataset::with_capacity(6, 10);
    for i in (0..300).step_by(30) {
        queries.push(ds.point(i));
    }
    let mut cfg =
        e2lsh_storage::query::EngineConfig::simulated(e2lsh_storage::device::Interface::SPDK, 1);
    cfg.s_override = Some(1_000_000);
    let report = e2lsh_storage::query::run_queries(&index, &ds, &queries, &cfg, &mut qdev);
    let found = report
        .outcomes
        .iter()
        .filter(|o| o.neighbors.first().map(|&(_, d)| d == 0.0).unwrap_or(false))
        .count();
    assert!(
        found >= 8,
        "only {found}/10 self-queries found after failed inserts"
    );
    std::fs::remove_file(&path).ok();
}

/// Device errors injected mid-`Updater::delete`: the delete fails
/// part-way (the victim may keep entries in some tables), but the
/// shard stays queryable and the trace covers the rewritten blocks.
#[test]
fn failed_delete_keeps_shard_queryable() {
    let seed = test_seed();
    let ds = dataset_seeded(250, seed);
    let params = E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
    let path = temp_path("failed_delete.idx");
    build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();

    let victim = 77u32;
    let mut up = Updater::open(&path).unwrap();
    up.fail_after_writes(Some(0));
    let err = up.delete(ds.point(victim as usize), victim).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Other, "{err}");
    up.fail_after_writes(None);
    let trace = up.take_trace();
    assert!(!trace.blocks.is_empty(), "failed delete left no trace");
    // Retrying the delete completes the removal.
    let removed = up.delete(ds.point(victim as usize), victim).unwrap();
    assert!(removed > 0, "retry must remove the remaining entries");
    drop(up);

    let mut qdev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
    let index = StorageIndex::open(&mut qdev).unwrap();
    let queries = Dataset::from_rows(&[ds.point(victim as usize).to_vec()]);
    let mut cfg =
        e2lsh_storage::query::EngineConfig::simulated(e2lsh_storage::device::Interface::SPDK, 1);
    cfg.s_override = Some(1_000_000);
    let report = e2lsh_storage::query::run_queries(&index, &ds, &queries, &cfg, &mut qdev);
    if let Some(&(id, _)) = report.outcomes[0].neighbors.first() {
        assert_ne!(id, victim, "victim still served after completed delete");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_index_serves_zero_filled_blocks_without_panicking() {
    // A partially-written heap must not crash the engine: reads past EOF
    // come back zero-filled and decode as empty blocks (count = 0).
    let ds = dataset(500);
    let params = E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), 6);
    let path = temp_path("truncated.idx");
    build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();
    let mut image = std::fs::read(&path).unwrap();
    image.truncate(image.len() - image.len() / 3); // chop the heap tail
    let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::Mem(image));
    let index = StorageIndex::open(&mut dev).unwrap();
    let queries = dataset(5);
    let cfg =
        e2lsh_storage::query::EngineConfig::simulated(e2lsh_storage::device::Interface::SPDK, 1);
    // Must not panic; results may be degraded (some buckets unreadable).
    let _ = e2lsh_storage::query::run_queries(&index, &ds, &queries, &cfg, &mut dev);
}
