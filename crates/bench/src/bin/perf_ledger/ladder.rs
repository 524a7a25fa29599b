//! The layer ladder: one index, one query set, pushed through every
//! entry depth.
//!
//! ```text
//! ladder.core_mem_us       knn_search on MemIndex          (e2lsh_core)
//! ladder.engine_us         run_queries on in-memory SimStorage (e2lsh_storage)
//! ladder.engine_cached_us  + CachedDevice, warm
//! ladder.session_us        Session / Client, one shard     (e2lsh_service)
//! ladder.net_us            NetServer / NetClient, loopback (e2lsh_service::net)
//! ```
//!
//! Each rung reports process CPU µs per query, best of
//! [`LADDER_PASSES`]; the difference between adjacent rungs is what the
//! upper layer adds. From `engine_us` up the answers must be identical
//! (on every query that does not exhaust its candidate budget — see
//! `gate`). The engine rung runs in virtual time, so its counts and its
//! modeled throughput repeat exactly.

use crate::alloc;
use crate::data::{stream, Inputs};
use crate::load::{closed_loop, Keep, Op};
use crate::procfs;
use crate::rng::SplitMix64;
use crate::run::Outcome;
use crate::serving::{Stack, StackSpec};
use crate::spec::{Transport, K, N_QUERY_POOL};
use crate::tempdir::ScratchDir;
use e2lsh_analysis::model::{CostInputs, QueryTimeModel};
use e2lsh_core::dataset::Dataset;
use e2lsh_core::index::MemIndex;
use e2lsh_core::search::{knn_search, SearchOptions};
use e2lsh_service::DeviceSpec;
use e2lsh_storage::device::cached::CachedDevice;
use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
use e2lsh_storage::device::Interface;
use e2lsh_storage::query::{run_queries, BatchReport, EngineConfig};
use std::time::Instant;

/// Rows of the ladder's single-shard index (the first rows of the
/// dataset).
pub const LADDER_ROWS: usize = 8_000;
/// Queries pushed through every rung.
pub const LADDER_QUERIES: usize = 400;
/// Timed passes per rung; the best is reported.
pub const LADDER_PASSES: usize = 3;
/// Counting allocations must cost less than this share of the engine
/// rung's CPU time, in percent; at or above it the run fails.
const COUNTING_OVERHEAD_LIMIT: f64 = 1.0;
/// Generator window of the session and net rungs.
const WINDOW: usize = 32;
/// Large enough to hold every block the ladder's queries touch.
const CACHE_BLOCKS: usize = 65_536;
const PROFILE: DeviceProfile = DeviceProfile::CSSD;
const INTERFACE: Interface = Interface::SPDK;

/// Process CPU µs per query of `pass`, best of [`LADDER_PASSES`].
fn best_cpu_us(queries: usize, mut pass: impl FnMut()) -> f64 {
    (0..LADDER_PASSES)
        .map(|_| {
            let c0 = procfs::cpu_seconds();
            pass();
            (procfs::cpu_seconds() - c0) * 1e6 / queries as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// What the ladder leaves behind for the micro-suite: a built
/// single-shard stack (session stopped by the caller when needed).
pub struct Ladder {
    pub stack: Stack,
    pub rows: Dataset,
}

/// Run the ladder and record its rows in `out`. Returns the stack so the
/// micro-suite can reuse the built image.
pub fn run(inputs: &Inputs, seed: u64, scratch: &ScratchDir, out: &mut Outcome) -> Ladder {
    let rows = inputs.data.prefix(LADDER_ROWS);
    let mut rng = SplitMix64::stream(seed, stream::LADDER);
    let picks: Vec<u32> = (0..LADDER_QUERIES)
        .map(|_| (rng.next_u64() % N_QUERY_POOL as u64) as u32)
        .collect();
    let mut queries = Dataset::with_capacity(rows.dim(), picks.len());
    for &q in &picks {
        queries.push(inputs.queries.point(q as usize));
    }
    let nq = queries.len();

    // One build serves every rung from the engine up.
    let spec = StackSpec {
        num_shards: 1,
        cache_blocks: CACHE_BLOCKS,
        device: DeviceSpec::SimShared {
            profile: PROFILE,
            num_devices: 1,
        },
        maintenance_blocks_per_tick: 0,
        transport: Transport::InProcess,
        trace_sample: 0.0,
    };
    let t = Instant::now();
    let mut stack = Stack::bring_up(&spec, &rows, &scratch.join("ladder"));
    out.set(
        "storage.build_objs_per_s",
        rows.len() as f64 / t.elapsed().as_secs_f64(),
    );

    // --- core: the in-memory index over the same hash family ---------
    let (core_us, core_dist_comps, core_n_io_inf) = {
        let shard = &stack.service().shards().shards()[0];
        let mem =
            MemIndex::build_with_family(&rows, shard.index.params(), shard.index.family().clone());
        let opts = SearchOptions::default();
        let (mut dist_comps, mut n_io_inf) = (0usize, 0usize);
        for qi in 0..nq {
            let (_, stats) = knn_search(&mem, &rows, queries.point(qi), K, &opts);
            dist_comps += stats.distance_computations;
            n_io_inf += stats.n_io_inf();
        }
        let us = best_cpu_us(nq, || {
            for qi in 0..nq {
                std::hint::black_box(knn_search(&mem, &rows, queries.point(qi), K, &opts));
            }
        });
        (
            us,
            dist_comps as f64 / nq as f64,
            n_io_inf as f64 / nq as f64,
        )
    };
    out.set("ladder.core_mem_us", core_us);
    out.set("core.mem_dist_comps_per_query", core_dist_comps);

    // --- storage engine on an in-memory image -------------------------
    let cfg = EngineConfig::simulated(INTERFACE, K);
    let (engine_report, engine_us, engine_allocs, cached_us, cached_answers) = {
        let shard = &stack.service().shards().shards()[0];
        let image = std::fs::read(&shard.path).expect("read ladder image");
        let fresh = || SimStorage::new(PROFILE, 1, Backing::Mem(image.clone()));
        let data = shard.data.read().expect("shard rows lock");
        let engine = |dev: &mut SimStorage| run_queries(&shard.index, &data, &queries, &cfg, dev);

        // Counting on: exact allocation counts (single-threaded, nothing
        // else allocates).
        let mut dev = fresh();
        alloc::set_enabled(true);
        let a0 = alloc::snapshot();
        let report = engine(&mut dev);
        let allocs = alloc::snapshot().since(a0);
        alloc::set_enabled(false);
        let allocs = (allocs.0 as f64 / nq as f64, allocs.1 as f64 / nq as f64);

        let engine_us = best_cpu_us(nq, || {
            std::hint::black_box(engine(&mut fresh()));
        });

        let mut cached = CachedDevice::with_capacity(fresh(), CACHE_BLOCKS);
        let run_cached = |dev: &mut CachedDevice<SimStorage>| {
            run_queries(&shard.index, &data, &queries, &cfg, dev)
        };
        run_cached(&mut cached); // warm
        let answers: Vec<Vec<(u32, f32)>> = run_cached(&mut cached)
            .outcomes
            .into_iter()
            .map(|o| o.neighbors)
            .collect();
        let cached_us = best_cpu_us(nq, || {
            std::hint::black_box(run_cached(&mut cached));
        });
        (report, engine_us, allocs, cached_us, answers)
    };
    out.set("ladder.engine_us", engine_us);
    out.set("ladder.engine_cached_us", cached_us);
    out.set("storage.engine_allocs_per_query", engine_allocs.0);
    out.set("storage.engine_alloc_bytes_per_query", engine_allocs.1);

    // What counting costs the engine rung: its allocations per query
    // times the measured cost of counting one. (Timing the rung itself
    // with counting on and off cannot resolve 1% on a shared box: that
    // difference read anywhere from -4% to +6% for the same code.)
    let counting_ns = alloc::counting_cost_ns();
    let counting_overhead = engine_allocs.0 * counting_ns / (engine_us * 1e3) * 100.0;
    println!(
        "  ladder: counting one allocation costs {counting_ns:.2} ns, {counting_overhead:.2}% of the engine rung (limit {COUNTING_OVERHEAD_LIMIT}%)"
    );
    out.set("bench.alloc_count_overhead_pct", counting_overhead);
    out.attempted += 1;
    if counting_overhead >= COUNTING_OVERHEAD_LIMIT {
        out.failed += 1;
    }
    record_engine_counts(&engine_report, core_n_io_inf, out);

    // --- the answers every upper rung must reproduce -------------------
    let budget = stack.service().shards().shards()[0]
        .index
        .params()
        .s_for_k(K) as u32;
    let comparable: Vec<bool> = engine_report
        .outcomes
        .iter()
        .map(|o| o.candidates < budget)
        .collect();
    let compared = comparable.iter().filter(|&&c| c).count() as u64;
    // Queries (among the comparable ones) on which a rung's answers
    // differ from the engine rung's.
    let disagreements = |rung: &str, answers: &[Vec<(u32, f32)>]| {
        let wrong = engine_report
            .outcomes
            .iter()
            .zip(answers)
            .zip(&comparable)
            .filter(|((want, got), &cmp)| cmp && want.neighbors != **got)
            .count();
        if wrong > 0 {
            println!("  ladder: {rung} disagrees with the engine rung on {wrong} queries");
        }
        wrong as u64
    };
    out.attempted += compared;
    out.failed += disagreements("engine_cached", &cached_answers);

    // --- session and net rungs -----------------------------------------
    let ops: Vec<Op> = picks.iter().map(|&q| Op::Read(q)).collect();
    let keep = Keep {
        neighbors: true,
        ..Default::default()
    };
    for (rung, metric, transport) in [
        ("session", "ladder.session_us", Transport::InProcess),
        ("net", "ladder.net_us", Transport::Net { connections: 2 }),
    ] {
        stack.restart_over(transport);
        closed_loop(stack.link(), inputs, &ops, WINDOW, Keep::default()); // warm
        let served = closed_loop(stack.link(), inputs, &ops, WINDOW, keep);
        out.attempted += compared;
        out.failed += served.failed as u64 + disagreements(rung, &served.neighbors);
        let us = best_cpu_us(nq, || {
            let o = closed_loop(stack.link(), inputs, &ops, WINDOW, Keep::default());
            assert_eq!(o.failed, 0, "ladder {rung} rung shed requests");
        });
        out.set(metric, us);
    }
    let rung = |n: &str| out.get(n).expect("rung measured");
    // A layer cannot cost less than nothing: a rung that reads below the
    // one under it is noise, and the suite flags the ladder NOT monotone.
    let session_overhead = (rung("ladder.session_us") - rung("ladder.engine_cached_us")).max(0.0);
    let net_overhead = (rung("ladder.net_us") - rung("ladder.session_us")).max(0.0);
    out.set("service.session_cpu_overhead_us", session_overhead);
    out.set("service.net_cpu_overhead_us", net_overhead);
    let get = |n: &str| out.get(n).expect("rung measured");

    println!(
        "  ladder ({} rows, {} queries, CPU us/query, best of {}): core_mem {:.1} | engine {:.1} | engine_cached {:.1} | session {:.1} | net {:.1}",
        LADDER_ROWS,
        nq,
        LADDER_PASSES,
        get("ladder.core_mem_us"),
        get("ladder.engine_us"),
        get("ladder.engine_cached_us"),
        get("ladder.session_us"),
        get("ladder.net_us"),
    );
    Ladder { stack, rows }
}

/// The engine rung's exact virtual-time outputs, and the paper's model
/// beside them.
fn record_engine_counts(rep: &BatchReport, core_n_io_inf: f64, out: &mut Outcome) {
    let n = rep.outcomes.len();
    let per_query = |f: fn(&e2lsh_storage::query::QueryOutcome) -> u32| {
        rep.outcomes.iter().map(|o| f(o) as f64).sum::<f64>() / n.max(1) as f64
    };
    out.set("storage.engine_sim_qps", rep.qps());
    out.set("storage.engine_io_per_query", rep.mean_n_io());
    out.set(
        "storage.engine_table_reads_per_query",
        per_query(|o| o.table_reads),
    );
    out.set(
        "storage.engine_block_reads_per_query",
        per_query(|o| o.block_reads),
    );
    out.set("storage.engine_radii_per_query", rep.mean_radii());
    out.set(
        "storage.engine_candidates_per_query",
        per_query(|o| o.candidates),
    );

    // Eq. 7: T_async = max(T_compute + N_IO·T_request, N_IO·T_read), with
    // T_read the device's saturated per-I/O time.
    let model = QueryTimeModel {
        t_request: INTERFACE.t_request,
        t_read: 1.0 / (PROFILE.max_kiops * 1e3),
    };
    let predicted = model.async_time(&CostInputs {
        t_compute: rep.cpu_compute / n.max(1) as f64,
        n_io: rep.mean_n_io(),
    });
    out.set("analysis.model_qps_residual", rep.qps() * predicted);
    out.set(
        "analysis.model_io_residual",
        rep.mean_n_io() / core_n_io_inf.max(1e-9),
    );
}
