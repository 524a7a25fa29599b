//! Churn suite: sustained delete/reinsert cycles against one shard's
//! index file, with background maintenance running — the space side of
//! the paper's Section 7 online-update story.
//!
//! What is checked (seeded; `E2LSH_TEST_SEED=…` reproduces a CI
//! failure locally):
//!
//! 1. **oracle equivalence** — after many delete/reinsert cycles with
//!    interleaved `maintain` ticks, every surviving object self-queries
//!    at distance 0 (modulo LSH recall) and no deleted id is ever
//!    served again; deletes find their victim in every chain
//!    (`chain_inconsistencies == 0` throughout);
//! 2. **space plateau** — with the live set held constant, freed blocks
//!    are reused: over any window of at least one fill period the heap
//!    grows by no more than a small fraction of the live set's footprint,
//!    and the final heap stays within 2× the build footprint (a leak
//!    grows every cycle; reuse plateaus near 1×);
//! 3. **filter-bit GC** — deleting half the objects and running a full
//!    maintenance pass clears occupancy-filter bits on storage, so a
//!    reopened index probes measurably fewer buckets
//!    (`occupancy_rate` drops) while survivors stay findable;
//! 4. **no torn blocks** — reader threads walk bucket chains through
//!    their own file handles while the writer churns and compacts;
//!    every block decodes (count within bounds) and every chain
//!    pointer stays block-aligned inside the heap;
//! 5. **no false negatives** — under random insert / delete /
//!    `maintain(budget)` sequences, after every operation every live
//!    object passes the occupancy filter in every table, on the
//!    updater's mirror, on a live index kept in sync the way the serving
//!    layer does it, and on a handle reopened from the file.

use e2lsh_core::dataset::Dataset;
use e2lsh_core::lsh::hash_v_bits;
use e2lsh_core::params::E2lshParams;
use e2lsh_storage::build::{build_index, BuildConfig};
use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
use e2lsh_storage::device::Interface;
use e2lsh_storage::index::StorageIndex;
use e2lsh_storage::layout::{BucketBlock, BLOCK_SIZE, ENTRIES_PER_BLOCK, HASH_BITS};
use e2lsh_storage::query::{run_queries, EngineConfig};
use e2lsh_storage::testutil::{temp_path, test_seed};
use e2lsh_storage::update::Updater;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const DIM: usize = 6;

fn random_point(rng: &mut ChaCha8Rng) -> Vec<f32> {
    (0..DIM).map(|_| rng.gen::<f32>() * 10.0).collect()
}

/// `k` ids drawn without replacement (partial Fisher–Yates; the
/// workspace `rand` build has no `seq` module).
fn sample_ids(ids: &[u32], k: usize, rng: &mut ChaCha8Rng) -> Vec<u32> {
    let mut pool = ids.to_vec();
    let k = k.min(pool.len());
    for i in 0..k {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

fn dataset(n: usize, rng: &mut ChaCha8Rng) -> Dataset {
    let mut ds = Dataset::with_capacity(DIM, n);
    for _ in 0..n {
        ds.push(&random_point(rng));
    }
    ds
}

fn params_for(ds: &Dataset) -> E2lshParams {
    E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), DIM)
}

/// Self-query `queries` against the index at `path`, using `data` as
/// the id→coordinates mirror (deleted rows included, like the serving
/// layer keeps them).
fn nn_of(data: &Dataset, queries: &Dataset, path: &Path) -> Vec<Vec<(u32, f32)>> {
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

/// Run `cycles` delete/reinsert rounds of `batch` objects each against
/// a freshly built index, with one budgeted maintenance tick per
/// round. Returns `(path, all_rows, live_ids, deleted_ids,
/// total_bytes_per_cycle)`; the caller removes the file.
fn churn_harness(
    seed: u64,
    n0: usize,
    cycles: usize,
    batch: usize,
    maint_budget: usize,
) -> (std::path::PathBuf, Dataset, Vec<u32>, Vec<u32>, Vec<u64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data = dataset(n0, &mut rng);
    let params = params_for(&data);
    let path = temp_path(&format!("churn-{seed}-{n0}-{cycles}.idx"));
    let cfg = BuildConfig {
        capacity: Some(n0 + cycles * batch),
        ..Default::default()
    };
    build_index(&data, &params, &cfg, &path).unwrap();

    // `all` mirrors every id ever assigned (the serving layer keeps
    // deleted rows too); `live` is the oracle's view of what must be
    // findable.
    let mut all = data.clone();
    let mut live: Vec<u32> = (0..n0 as u32).collect();
    let mut deleted: Vec<u32> = Vec::new();
    let mut tb_per_cycle = Vec::with_capacity(cycles);

    let mut up = Updater::open(&path).unwrap();
    for _ in 0..cycles {
        for _ in 0..batch.min(live.len()) {
            let at = rng.gen_range(0..live.len());
            let id = live.swap_remove(at);
            let removed = up.delete(all.point(id as usize), id).unwrap();
            assert_eq!(
                removed,
                params.l * params.num_radii(),
                "delete of live id {id} missed chains (seed {seed})"
            );
            deleted.push(id);
        }
        for _ in 0..batch {
            let p = random_point(&mut rng);
            let id = up.insert(&p).unwrap();
            assert_eq!(id as usize, all.len(), "ids must stay sequential");
            all.push(&p);
            live.push(id);
        }
        up.maintain(maint_budget).unwrap();
        tb_per_cycle.push(up.total_bytes());
    }
    assert_eq!(
        up.trace().chain_inconsistencies,
        0,
        "churn of live ids must never miss a chain (seed {seed})"
    );
    drop(up);
    (path, all, live, deleted, tb_per_cycle)
}

/// 1. Oracle equivalence after churn: survivors findable, deleted ids
///    never served.
#[test]
fn delete_reinsert_cycles_match_oracle() {
    let seed = test_seed();
    let (path, all, live, deleted, _) = churn_harness(seed, 300, 10, 25, 128);

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
    let sample = sample_ids(&live, 30, &mut rng);
    let mut queries = Dataset::with_capacity(DIM, sample.len());
    for &id in &sample {
        queries.push(all.point(id as usize));
    }
    let res = nn_of(&all, &queries, &path);
    let found = res
        .iter()
        .zip(&sample)
        .filter(|(r, &id)| r.first().is_some_and(|&(got, d)| got == id && d == 0.0))
        .count();
    assert!(
        found * 10 >= sample.len() * 9,
        "only {found}/{} survivors self-found after churn (seed {seed})",
        sample.len()
    );

    // Deleted ids must never be served — their entries are gone from
    // every chain, so even their own coordinates resolve elsewhere.
    let dead_sample = sample_ids(&deleted, 30, &mut rng);
    let mut dead_queries = Dataset::with_capacity(DIM, dead_sample.len());
    for &id in &dead_sample {
        dead_queries.push(all.point(id as usize));
    }
    for (r, &id) in nn_of(&all, &dead_queries, &path).iter().zip(&dead_sample) {
        if let Some(&(got, _)) = r.first() {
            assert_ne!(got, id, "deleted id {id} served after churn (seed {seed})");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// 2. Space plateau: with the live set constant, reclamation caps heap
///    growth. Growth comes in bursts — the few long chains of the large
///    radii take every insert, so their head blocks fill together once
///    per *fill period* (`ENTRIES_PER_BLOCK` inserts) and each allocates
///    a block — so the bound is stated over windows of at least one
///    period, not cycle by cycle or half against half: no such window
///    grows the heap by more than 1/16 of the live set's footprint
///    (42 seeds measured: at most 2.5 % over the whole run; the writer
///    frees ≈ 320 blocks per cycle, so one that never reused them would
///    grow ≈ 4 % per cycle, ≈ 16 % per period), and the end state stays
///    within 2× the build footprint.
#[test]
fn total_bytes_plateaus_under_constant_live_set() {
    const BATCH: usize = 25;
    let seed = test_seed();
    let (path, _, live, _, tb) = churn_harness(seed, 300, 12, BATCH, 256);
    assert_eq!(live.len(), 300, "live set must be back to n0 each cycle");

    let tb_start = {
        // Build footprint = the bytes a no-churn index of the same
        // live-set size occupies; cycle 0's pre-churn baseline.
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
        let index = StorageIndex::open(&mut dev).unwrap();
        let heap = index.geometry().heap_base();
        // Heap growth is what churn can inflate; fixed regions are
        // identical for any index of this geometry.
        assert!(tb[0] > heap, "heap empty after first cycle?");
        heap
    };
    // The live set's footprint: the heap right after the first cycle.
    let heap0 = tb[0] - tb_start;
    let fill_period = ENTRIES_PER_BLOCK.div_ceil(BATCH);
    assert!(fill_period < tb.len(), "run shorter than a fill period");
    for from in 0..tb.len() - fill_period {
        for to in from + fill_period..tb.len() {
            let growth = tb[to].saturating_sub(tb[from]);
            assert!(
                growth <= heap0 / 16,
                "no plateau: cycles {from}..{to} grew the heap by {growth} of {heap0} (seed {seed})"
            );
        }
    }
    // A leaking writer grows the heap every cycle, a reusing one
    // plateaus near 1×: 2× of the initial heap separates the two.
    let heap_end = tb[tb.len() - 1] - tb_start;
    assert!(
        heap_end <= 2 * heap0,
        "churned heap {heap_end} exceeds 2× initial heap {heap0} (seed {seed})"
    );
    std::fs::remove_file(&path).ok();
}

/// 3. Filter-bit GC: after mass deletion and one full maintenance
///    pass, the on-storage occupancy filters shrink (a reopened index
///    reports lower occupancy) while survivors stay findable.
#[test]
fn filter_occupancy_decays_after_gc() {
    let seed = test_seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF117E5);
    let data = dataset(300, &mut rng);
    let params = params_for(&data);
    let path = temp_path(&format!("churn-gc-{seed}.idx"));
    build_index(&data, &params, &BuildConfig::default(), &path).unwrap();

    let occ_before = {
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
        StorageIndex::open(&mut dev).unwrap().occupancy_rate()
    };

    let mut up = Updater::open(&path).unwrap();
    for id in 0..300u32 {
        if id % 2 == 0 {
            up.delete(data.point(id as usize), id).unwrap();
        }
    }
    let rep = up.maintain(usize::MAX).unwrap();
    assert!(rep.completed_pass, "unbounded tick must finish the pass");
    assert!(
        rep.filter_bits_cleared > 0,
        "half the objects gone, yet no filter bit cleared (seed {seed})"
    );
    drop(up);

    // The clears were persisted: a fresh open (which rebuilds the DRAM
    // occupancy from storage) sees the smaller filters.
    let occ_after = {
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
        StorageIndex::open(&mut dev).unwrap().occupancy_rate()
    };
    assert!(
        occ_after < occ_before,
        "occupancy {occ_before} -> {occ_after} did not decay (seed {seed})"
    );

    // Survivors still findable through the GC'd filters.
    let sample: Vec<u32> = (1..300).step_by(30).map(|i| i as u32).collect();
    let mut queries = Dataset::with_capacity(DIM, sample.len());
    for &id in &sample {
        queries.push(data.point(id as usize));
    }
    let res = nn_of(&data, &queries, &path);
    let found = res
        .iter()
        .zip(&sample)
        .filter(|(r, &id)| r.first().is_some_and(|&(got, d)| got == id && d == 0.0))
        .count();
    assert!(
        found * 10 >= sample.len() * 9,
        "only {found}/{} survivors found after GC (seed {seed})",
        sample.len()
    );
    std::fs::remove_file(&path).ok();
}

/// 4. No torn blocks: concurrent chain walks through independent file
///    handles stay structurally valid while the writer deletes,
///    reinserts, compacts and reuses blocks. A transiently odd read is
///    re-checked once (page-cache writes are not byte-atomic under
///    `pread`); only a *stable* violation is a failure.
#[test]
fn concurrent_chain_walks_see_no_torn_blocks() {
    let seed = test_seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7042);
    let data = dataset(400, &mut rng);
    let params = params_for(&data);
    let path = temp_path(&format!("churn-torn-{seed}.idx"));
    let cfg = BuildConfig {
        capacity: Some(2000),
        ..Default::default()
    };
    build_index(&data, &params, &cfg, &path).unwrap();

    let (geometry, codec) = {
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
        let index = StorageIndex::open(&mut dev).unwrap();
        (index.geometry(), index.codec())
    };
    let stop = AtomicBool::new(false);
    let walks = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for t in 0..2u64 {
            let path = path.clone();
            let stop = &stop;
            let walks = &walks;
            readers.push(scope.spawn(move || {
                use std::os::unix::fs::FileExt;
                let file = std::fs::File::open(&path).unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0xBEEF + t));
                let heap = geometry.heap_base();
                let read_block = |addr: u64| {
                    let mut buf = vec![0u8; BLOCK_SIZE];
                    file.read_exact_at(&mut buf, addr).unwrap();
                    buf
                };
                while !stop.load(Ordering::Relaxed) {
                    let ri = rng.gen_range(0..geometry.num_radii);
                    let li = rng.gen_range(0..geometry.l);
                    let slot = rng.gen_range(0..geometry.slots());
                    let mut head = [0u8; 8];
                    file.read_exact_at(&mut head, geometry.slot_addr(ri, li, slot))
                        .unwrap();
                    let mut addr = u64::from_le_bytes(head);
                    // Prepend-only chains cannot cycle, but a torn
                    // pointer could; bound the walk regardless.
                    for _ in 0..256 {
                        if addr == 0 {
                            break;
                        }
                        let aligned = addr >= heap && (addr - heap) % BLOCK_SIZE as u64 == 0;
                        assert!(aligned, "chain pointer {addr:#x} off the block grid");
                        let mut block = BucketBlock::decode(&codec, &read_block(addr));
                        if block.entries.len() > ENTRIES_PER_BLOCK
                            || (block.next != 0
                                && (block.next < heap
                                    || !(block.next - heap).is_multiple_of(BLOCK_SIZE as u64)))
                        {
                            // Re-read once: a concurrent in-place
                            // rewrite can expose a transient mix.
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            block = BucketBlock::decode(&codec, &read_block(addr));
                            assert!(
                                block.entries.len() <= ENTRIES_PER_BLOCK,
                                "stable overfull block at {addr:#x}"
                            );
                            assert!(
                                block.next == 0
                                    || (block.next >= heap
                                        && (block.next - heap).is_multiple_of(BLOCK_SIZE as u64)),
                                "stable torn next {:#x} at {addr:#x}",
                                block.next
                            );
                        }
                        addr = block.next;
                    }
                    walks.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }

        // The writer: delete/reinsert churn with compaction, against
        // the same file the readers walk.
        let mut up = Updater::open(&path).unwrap();
        let mut live: Vec<u32> = (0..400).collect();
        let mut all = data.clone();
        for _ in 0..8 {
            for _ in 0..30 {
                let at = rng.gen_range(0..live.len());
                let id = live.swap_remove(at);
                up.delete(all.point(id as usize), id).unwrap();
            }
            for _ in 0..30 {
                let p = random_point(&mut rng);
                let id = up.insert(&p).unwrap();
                all.push(&p);
                live.push(id);
            }
            up.maintain(256).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader thread saw a torn block");
        }
    });
    assert!(
        walks.load(Ordering::Relaxed) > 0,
        "readers never completed a walk"
    );
    std::fs::remove_file(&path).ok();
}

/// 5. No false negatives under random operation sequences, at the
///    default geometry and at the block layout's edges (one bit per
///    slot; eight slots to a filter word). Some inserts repeat a live
///    object's coordinates, so deletes and GC meet hash values that
///    another live object still needs.
#[test]
fn filter_never_hides_a_live_object_under_random_ops() {
    let seed = test_seed();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB100F);
    let open = |path: &Path| {
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(path).unwrap());
        StorageIndex::open(&mut dev).unwrap()
    };
    for (u_bits, filter_bits) in [(None, None), (Some(8), Some(8)), (Some(8), Some(11))] {
        let data = dataset(60, &mut rng);
        let params = params_for(&data);
        let path = temp_path(&format!("churn-filter-{seed}-{filter_bits:?}.idx"));
        let cfg = BuildConfig {
            u_bits,
            filter_bits,
            capacity: Some(512),
            ..Default::default()
        };
        build_index(&data, &params, &cfg, &path).unwrap();

        // The serving layer's arrangement: one index opened up front,
        // fed every write's trace and every maintenance report.
        let synced = open(&path);
        let mut up = Updater::open(&path).unwrap();
        let g = *up.geometry();
        let mut scratch = Vec::new();
        let mut hashes_of = |p: &[f32]| -> Vec<u64> {
            (0..g.num_tables())
                .map(|t| {
                    let (ri, li) = (t / g.l, t % g.l);
                    let compound = synced.family().compound(ri, li);
                    hash_v_bits(
                        compound.hash64(p, params.radii[ri], &mut scratch),
                        HASH_BITS,
                    )
                })
                .collect()
        };
        // The oracle: every live id with its coordinates and its hash
        // value in each table.
        let mut live: Vec<(u32, Vec<f32>, Vec<u64>)> = (0..data.len())
            .map(|i| (i as u32, data.point(i).to_vec(), hashes_of(data.point(i))))
            .collect();

        for step in 0..120 {
            let what = match rng.gen_range(0..10) {
                0..=3 => {
                    let p = if !live.is_empty() && rng.gen_range(0..3) == 0 {
                        live[rng.gen_range(0..live.len())].1.clone()
                    } else {
                        random_point(&mut rng)
                    };
                    let id = up.insert(&p).unwrap();
                    let hashes = hashes_of(&p);
                    live.push((id, p, hashes));
                    "insert"
                }
                4..=7 if !live.is_empty() => {
                    let (id, p, _) = live.swap_remove(rng.gen_range(0..live.len()));
                    up.delete(&p, id).unwrap();
                    "delete"
                }
                _ => {
                    let rep = up.maintain(rng.gen_range(1..300)).unwrap();
                    for &(ri, li, word, value) in &rep.filter_words {
                        synced.set_filter_word(ri, li, word, value);
                    }
                    "maintain"
                }
            };
            for (ri, li, h32) in up.take_trace().filter_bits {
                synced.set_filter_bit(ri, li, h32);
            }

            let reopened = open(&path);
            for (id, _, hashes) in &live {
                for (t, &h32) in hashes.iter().enumerate() {
                    let (ri, li) = (t / g.l, t % g.l);
                    let mirror = up.filter_words(ri, li);
                    let in_mirror = g
                        .filter_positions(h32)
                        .iter()
                        .all(|&(word, bit)| mirror[word] & bit != 0);
                    assert!(
                        in_mirror && synced.filter_hit(ri, li, h32) && reopened.filter_hit(ri, li, h32),
                        "step {step} ({what}): object {id} hidden in table ({ri}, {li}) — mirror \
                         {in_mirror}, synced {}, reopened {} (seed {seed}, filter_bits {filter_bits:?})",
                        synced.filter_hit(ri, li, h32),
                        reopened.filter_hit(ri, li, h32),
                    );
                }
            }
        }
        assert_eq!(up.trace().chain_inconsistencies, 0);
        std::fs::remove_file(&path).ok();
    }
}
