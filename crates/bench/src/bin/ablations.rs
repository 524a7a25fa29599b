//! **Ablations** (DESIGN.md §5) — the E2LSHoS design choices the paper
//! calls out, each toggled in isolation on SIFT:
//!
//! * occupancy filter on/off (I/Os for empty buckets);
//! * context interleaving depth (queue depth vs throughput);
//! * fingerprint width `v − u` (false-collision distance checks);
//! * candidate budget `S` (γ fixed).

use ann_datasets::suite::DatasetId;
use e2lsh_bench::prep::{ensure_disk_index, workload};
use e2lsh_bench::report;
use e2lsh_storage::build::{build_index, BuildConfig, FORMAT_VERSION};
use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
use e2lsh_storage::device::Interface;
use e2lsh_storage::index::StorageIndex;
use e2lsh_storage::query::{run_queries, EngineConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    ablation: String,
    query_us: f64,
    n_io: f64,
    /// Block reads per query no fingerprint matched (filter false
    /// positives; every empty-bucket probe with the filter off).
    wasted_block_reads: f64,
    qps: f64,
    extra: f64,
}

fn main() {
    report::banner(
        "ablations",
        "Section 5 design choices",
        "Each design choice toggled in isolation (SIFT, cSSD×4, io_uring, γ = 0.7).",
    );
    let w = workload(DatasetId::Sift);
    let path = ensure_disk_index(&w, 0.7);
    let gamma_s = 8 * 36; // γ=0.7 budget used elsewhere

    let emit = |name: String, cfg: &EngineConfig, extra: f64| {
        let mut dev = SimStorage::new(DeviceProfile::CSSD, 4, Backing::open(&path).unwrap());
        let index = StorageIndex::open(&mut dev).unwrap();
        let rep = run_queries(&index, &w.data, &w.queries, cfg, &mut dev);
        let fp_rejects: u64 = rep.outcomes.iter().map(|o| o.fp_rejects as u64).sum();
        println!(
            "{:<34} {:>10.1} µs {:>8.1} I/O {:>8.1} wasted {:>9.0} qps {:>12.0}",
            name,
            rep.mean_query_time() * 1e6,
            rep.mean_n_io(),
            rep.mean_wasted_block_reads(),
            rep.qps(),
            if extra < 0.0 {
                fp_rejects as f64 / rep.outcomes.len() as f64
            } else {
                extra
            }
        );
        report::record(
            "ablations",
            &Row {
                ablation: name,
                query_us: rep.mean_query_time() * 1e6,
                n_io: rep.mean_n_io(),
                wasted_block_reads: rep.mean_wasted_block_reads(),
                qps: rep.qps(),
                extra,
            },
        );
    };

    println!(
        "{:<34} {:>13} {:>12} {:>15} {:>13} {:>12}",
        "Ablation", "query time", "N_IO", "wasted reads", "QPS", "extra"
    );
    // 1. Occupancy filter.
    let mut cfg = EngineConfig::simulated(Interface::IO_URING, 1);
    cfg.s_override = Some(gamma_s);
    emit("filter: on (default)".into(), &cfg, -1.0);
    let mut off = cfg.clone();
    off.use_occupancy_filter = false;
    emit("filter: off".into(), &off, -1.0);

    // 2. Context interleaving depth.
    for contexts in [1usize, 4, 16, 64, 256] {
        let mut c = cfg.clone();
        c.contexts = contexts;
        emit(format!("contexts: {contexts}"), &c, contexts as f64);
    }

    // 3. Candidate budget S.
    for mult in [2usize, 8, 32] {
        let mut c = cfg.clone();
        c.s_override = Some(mult * 36);
        emit(format!("budget S = {mult}L"), &c, mult as f64);
    }

    // 4. Fingerprint width: rebuild with a narrow filter/fingerprint
    //    (u close to 32 leaves few fingerprint bits).
    for u in [10u32, 14, 18] {
        let p = e2lsh_bench::prep::e2lsh_params_gamma(&w.data, 0.7);
        // Keyed by the format version: an image of another format is
        // refused at open, not rebuilt.
        let path2 =
            e2lsh_bench::prep::index_cache_dir().join(format!("ablate-u{u}-f{FORMAT_VERSION}.idx"));
        if !path2.exists() {
            build_index(
                &w.data,
                &p,
                &BuildConfig {
                    u_bits: Some(u),
                    ..Default::default()
                },
                &path2,
            )
            .unwrap();
        }
        let mut dev = SimStorage::new(DeviceProfile::CSSD, 4, Backing::open(&path2).unwrap());
        let index = StorageIndex::open(&mut dev).unwrap();
        let rep = run_queries(&index, &w.data, &w.queries, &cfg, &mut dev);
        let fp_rejects: u64 = rep.outcomes.iter().map(|o| o.fp_rejects as u64).sum();
        println!(
            "{:<34} {:>10.1} µs {:>8.1} I/O {:>8.1} wasted {:>9.0} qps {:>9.0} fp-rej",
            format!("table bits u = {u} (fp = {} bits)", 32 - u),
            rep.mean_query_time() * 1e6,
            rep.mean_n_io(),
            rep.mean_wasted_block_reads(),
            rep.qps(),
            fp_rejects as f64 / rep.outcomes.len() as f64
        );
    }
}
