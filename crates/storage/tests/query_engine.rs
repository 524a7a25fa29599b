//! End-to-end tests of the E2LSHoS index: build → open → query, against
//! simulated devices (virtual time) and a real file (wall clock), checking
//! result quality against brute force and equivalence with the in-memory
//! E2LSH index built from the same hash family.

use e2lsh_core::dataset::Dataset;
use e2lsh_core::distance::dist2;
use e2lsh_core::index::MemIndex;
use e2lsh_core::params::E2lshParams;
use e2lsh_core::search::{knn_search, SearchOptions};
use e2lsh_storage::build::{build_index, BuildConfig};
use e2lsh_storage::device::cached::{BlockCache, CachedDevice};
use e2lsh_storage::device::file::FileDevice;
use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
use e2lsh_storage::device::{Device, DeviceStats, Interface};
use e2lsh_storage::index::StorageIndex;
use e2lsh_storage::layout::BLOCK_SIZE;
use e2lsh_storage::query::{run_queries, EngineConfig};
use e2lsh_storage::testutil::{temp_path, ReadFloor};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 4242;

fn make_dataset(n: usize, dim: usize) -> (Dataset, Dataset) {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    // Clustered data so real near neighbors exist.
    let centers: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 40.0).collect())
        .collect();
    let mut gen_points = |count: usize| {
        let mut ds = Dataset::with_capacity(dim, count);
        let mut p = vec![0.0f32; dim];
        for _ in 0..count {
            let c = &centers[rng.gen_range(0..centers.len())];
            for (v, &cv) in p.iter_mut().zip(c) {
                *v = cv + (rng.gen::<f32>() - 0.5) * 2.0;
            }
            ds.push(&p);
        }
        ds
    };
    (gen_points(n), gen_points(20))
}

struct Fixture {
    data: Dataset,
    queries: Dataset,
    params: E2lshParams,
    path: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

fn build_fixture(n: usize, dim: usize, name: &str) -> Fixture {
    let (data, queries) = make_dataset(n, dim);
    let params = E2lshParams::derive(n, 2.0, 4.0, 1.0, data.max_abs_coord(), dim);
    let path = temp_path(name);
    let cfg = BuildConfig {
        seed: SEED,
        ..Default::default()
    };
    build_index(&data, &params, &cfg, &path).unwrap();
    Fixture {
        data,
        queries,
        params,
        path,
    }
}

fn brute_nn(data: &Dataset, q: &[f32]) -> (u32, f32) {
    let mut best = (0u32, f32::INFINITY);
    for i in 0..data.len() {
        let d = dist2(q, data.point(i));
        if d < best.1 {
            best = (i as u32, d);
        }
    }
    (best.0, best.1.sqrt())
}

#[test]
fn simulated_query_matches_brute_force_quality() {
    let fx = build_fixture(1500, 16, "sim_quality.idx");
    let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&fx.path).unwrap());
    let index = StorageIndex::open(&mut dev).unwrap();
    let cfg = EngineConfig::simulated(Interface::SPDK, 1);
    let report = run_queries(&index, &fx.data, &fx.queries, &cfg, &mut dev);
    assert_eq!(report.outcomes.len(), fx.queries.len());
    let mut ok = 0;
    for (qi, out) in report.outcomes.iter().enumerate() {
        let exact = brute_nn(&fx.data, fx.queries.point(qi));
        if let Some(&(_, d)) = out.neighbors.first() {
            // c²-ANNS guarantee with c = 2: within 4× exact.
            if d <= 4.0 * exact.1.max(1e-3) {
                ok += 1;
            }
        }
    }
    assert!(ok >= 18, "quality held for {ok}/20 queries");
    assert!(report.makespan > 0.0);
    assert!(report.mean_n_io() > 0.0);
}

#[test]
fn storage_results_match_inmemory_results() {
    // Build the in-memory index from the same family seed; with ample
    // budget both must return the same nearest neighbor for nearly every
    // query (the disk index can only see a candidate superset thanks to
    // u-bit slot sharing).
    let fx = build_fixture(1000, 12, "equiv.idx");
    let mut dev = SimStorage::new(DeviceProfile::XLFDD, 1, Backing::open(&fx.path).unwrap());
    let index = StorageIndex::open(&mut dev).unwrap();
    let mem = MemIndex::build(&fx.data, &fx.params, SEED);

    let mut cfg = EngineConfig::simulated(Interface::XLFDD, 1);
    cfg.s_override = Some(1_000_000);
    let report = run_queries(&index, &fx.data, &fx.queries, &cfg, &mut dev);

    let opts = SearchOptions {
        s_override: Some(1_000_000),
        ..Default::default()
    };
    let mut agree = 0;
    for qi in 0..fx.queries.len() {
        let q = fx.queries.point(qi).to_vec();
        let (mem_res, _) = knn_search(&mem, &fx.data, &q, 1, &opts);
        let disk_res = &report.outcomes[qi].neighbors;
        match (mem_res.first(), disk_res.first()) {
            (Some(&(_, md)), Some(&(_, dd))) => {
                // The disk candidate set is a superset: it can only do
                // at least as well.
                assert!(dd <= md + 1e-4, "query {qi}: disk {dd} worse than mem {md}");
                if (dd - md).abs() < 1e-4 {
                    agree += 1;
                }
            }
            (None, None) => agree += 1,
            (a, b) => panic!("query {qi}: presence mismatch {a:?} vs {b:?}"),
        }
    }
    assert!(agree >= 18, "distance agreement on {agree}/20");
}

#[test]
fn real_file_device_agrees_with_simulated_device() {
    let fx = build_fixture(800, 10, "realfile.idx");
    // An ample candidate budget on both sides: with a *binding* budget
    // the candidates that make the cut depend on completion order,
    // which real I/O through a thread pool does not fix (this test
    // failed ~1 run in 15 that way).
    let ample = |mut cfg: EngineConfig| {
        cfg.s_override = Some(1_000_000);
        cfg
    };
    // Simulated run.
    let mut sim = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&fx.path).unwrap());
    let index = StorageIndex::open(&mut sim).unwrap();
    let sim_report = run_queries(
        &index,
        &fx.data,
        &fx.queries,
        &ample(EngineConfig::simulated(Interface::SPDK, 3)),
        &mut sim,
    );
    // Real I/O through the worker pool.
    let mut file_dev = FileDevice::open(&fx.path, 4).unwrap();
    let index2 = StorageIndex::open(&mut file_dev).unwrap();
    let wall_report = run_queries(
        &index2,
        &fx.data,
        &fx.queries,
        &ample(EngineConfig::wall_clock(3)),
        &mut file_dev,
    );
    // Same index, same state machine → identical neighbor sets.
    for qi in 0..fx.queries.len() {
        assert_eq!(
            sim_report.outcomes[qi].neighbors, wall_report.outcomes[qi].neighbors,
            "query {qi} differs between simulated and real I/O"
        );
        assert_eq!(
            sim_report.outcomes[qi].n_io(),
            wall_report.outcomes[qi].n_io(),
            "I/O counts must match"
        );
    }
}

#[test]
fn async_beats_sync_by_an_order_of_magnitude() {
    // Paper Section 6.5: the synchronous implementation is ~20× slower.
    let fx = build_fixture(1200, 12, "sync_async.idx");
    let mut dev = SimStorage::new(DeviceProfile::CSSD, 4, Backing::open(&fx.path).unwrap());
    let index = StorageIndex::open(&mut dev).unwrap();
    let async_report = run_queries(
        &index,
        &fx.data,
        &fx.queries,
        &EngineConfig::simulated(Interface::IO_URING, 1),
        &mut dev,
    );
    let mut dev2 = SimStorage::new(DeviceProfile::CSSD, 4, Backing::open(&fx.path).unwrap());
    let sync_report = run_queries(
        &index,
        &fx.data,
        &fx.queries,
        &EngineConfig::synchronous(1),
        &mut dev2,
    );
    let speedup = sync_report.mean_query_time() / async_report.mean_query_time();
    assert!(
        speedup > 5.0,
        "async speedup over sync only {speedup:.1}× \
         (async {:.2e}s vs sync {:.2e}s)",
        async_report.mean_query_time(),
        sync_report.mean_query_time()
    );
}

#[test]
fn lighter_interface_is_never_slower() {
    let fx = build_fixture(1200, 12, "interfaces.idx");
    let mut times = Vec::new();
    for iface in [Interface::IO_URING, Interface::SPDK, Interface::XLFDD] {
        let mut dev = SimStorage::new(DeviceProfile::XLFDD, 1, Backing::open(&fx.path).unwrap());
        let index = StorageIndex::open(&mut dev).unwrap();
        let report = run_queries(
            &index,
            &fx.data,
            &fx.queries,
            &EngineConfig::simulated(iface, 1),
            &mut dev,
        );
        times.push((iface.name, report.mean_query_time()));
    }
    assert!(
        times[0].1 >= times[1].1 && times[1].1 >= times[2].1,
        "interface ordering violated: {times:?}"
    );
}

#[test]
fn faster_device_is_never_slower() {
    let fx = build_fixture(1200, 12, "devices.idx");
    let mut times = Vec::new();
    for profile in [
        DeviceProfile::CSSD,
        DeviceProfile::ESSD,
        DeviceProfile::XLFDD,
    ] {
        let mut dev = SimStorage::new(profile, 1, Backing::open(&fx.path).unwrap());
        let index = StorageIndex::open(&mut dev).unwrap();
        let report = run_queries(
            &index,
            &fx.data,
            &fx.queries,
            &EngineConfig::simulated(Interface::SPDK, 1),
            &mut dev,
        );
        times.push((profile.name, report.mean_query_time()));
    }
    assert!(
        times[0].1 >= times[1].1 && times[1].1 >= times[2].1,
        "device ordering violated: {times:?}"
    );
}

#[test]
fn occupancy_filter_reduces_ios_without_hurting_results() {
    let fx = build_fixture(900, 10, "filter.idx");
    let run = |filter: bool| {
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&fx.path).unwrap());
        let index = StorageIndex::open(&mut dev).unwrap();
        let mut cfg = EngineConfig::simulated(Interface::SPDK, 1);
        cfg.use_occupancy_filter = filter;
        run_queries(&index, &fx.data, &fx.queries, &cfg, &mut dev)
    };
    let with = run(true);
    let without = run(false);
    assert!(with.mean_n_io() <= without.mean_n_io());
    // What the filter saves is exactly the waste it exists to avoid:
    // block reads no fingerprint matched (its false positives remain).
    assert!(with.mean_wasted_block_reads() < without.mean_wasted_block_reads());
    for qi in 0..fx.queries.len() {
        let out = &with.outcomes[qi];
        assert!(out.wasted_block_reads <= out.block_reads);
        assert_eq!(
            with.outcomes[qi].neighbors, without.outcomes[qi].neighbors,
            "filter must not change results"
        );
    }
}

#[test]
fn budget_caps_candidates() {
    let fx = build_fixture(900, 10, "budget.idx");
    let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&fx.path).unwrap());
    let index = StorageIndex::open(&mut dev).unwrap();
    let mut cfg = EngineConfig::simulated(Interface::SPDK, 1);
    cfg.s_override = Some(5);
    let report = run_queries(&index, &fx.data, &fx.queries, &cfg, &mut dev);
    for out in &report.outcomes {
        assert!(
            out.candidates as usize <= 5 * out.radii_searched as usize,
            "budget is per radius: {} candidates over {} radii",
            out.candidates,
            out.radii_searched
        );
    }
}

#[test]
fn interleaving_raises_queue_depth_and_throughput() {
    let fx = build_fixture(1500, 12, "contexts.idx");
    let run = |contexts: usize| {
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&fx.path).unwrap());
        let index = StorageIndex::open(&mut dev).unwrap();
        let mut cfg = EngineConfig::simulated(Interface::SPDK, 1);
        cfg.contexts = contexts;
        run_queries(&index, &fx.data, &fx.queries, &cfg, &mut dev).qps()
    };
    let qps1 = run(1);
    let qps32 = run(32);
    assert!(
        qps32 > 1.5 * qps1,
        "interleaving should raise throughput: {qps1:.0} → {qps32:.0} qps"
    );
}

#[test]
fn topk_returns_sorted_k_results() {
    let fx = build_fixture(1200, 12, "topk.idx");
    let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&fx.path).unwrap());
    let index = StorageIndex::open(&mut dev).unwrap();
    let cfg = EngineConfig::simulated(Interface::SPDK, 10);
    let report = run_queries(&index, &fx.data, &fx.queries, &cfg, &mut dev);
    for out in &report.outcomes {
        assert!(out.neighbors.len() <= 10);
        for w in out.neighbors.windows(2) {
            assert!(w[0].1 <= w[1].1, "results must be sorted");
        }
        // IDs must be unique.
        let mut ids: Vec<u32> = out.neighbors.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), out.neighbors.len());
    }
}

/// No query reads the table region: every probe takes its chain head
/// from the DRAM slot directory, so each I/O the engine submits is a
/// bucket-block read at or above `heap_base` (the device panics on any
/// other) — uncached and through a block cache alike — and a query's
/// `N_IO` is exactly its block reads.
#[test]
fn no_query_reads_the_table_region() {
    fn run<D: Device>(fx: &Fixture, index: &StorageIndex, inner: D) -> (u64, DeviceStats) {
        let mut dev = ReadFloor::new(inner, index.geometry().heap_base());
        let cfg = EngineConfig::simulated(Interface::SPDK, 3);
        let report = run_queries(index, &fx.data, &fx.queries, &cfg, &mut dev);
        let mut n_io = 0u64;
        for out in &report.outcomes {
            assert_eq!(out.table_reads, 0);
            assert_eq!(out.n_io(), out.block_reads);
            n_io += u64::from(out.n_io());
        }
        assert!(n_io > 0, "the queries issued no I/O");
        assert_eq!(dev.submitted(), n_io, "one device read per engine I/O");
        (n_io, dev.stats())
    }
    let fx = build_fixture(1500, 16, "read_floor.idx");
    let sim = || SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&fx.path).unwrap());
    let mut dev = sim();
    let index = StorageIndex::open(&mut dev).unwrap();
    run(&fx, &index, dev);
    let cache = Arc::new(BlockCache::new(1 << 12, 4));
    let (n_io, stats) = run(
        &fx,
        &index,
        CachedDevice::new(sim(), cache, BLOCK_SIZE as u32),
    );
    assert_eq!(stats.cache_hits + stats.cache_misses, n_io);
}
