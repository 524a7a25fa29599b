//! Device study: the paper's central claim in miniature.
//!
//! Builds one E2LSHoS index over a GIST-like dataset and runs the *same*
//! query batch across the storage hierarchy — HDD, consumer SSD,
//! enterprise SSD, XL-FLASH prototype — and across I/O interfaces
//! (io_uring / SPDK / XLFDD), using the virtual-time engine. Shows how
//! random-read IOPS first, then per-I/O CPU overhead, decide whether a
//! flash-resident sublinear index can match in-memory speed.
//!
//! Run with: `cargo run --release --example device_study`

use e2lshos::prelude::*;

fn main() -> std::io::Result<()> {
    let named = e2lshos::datasets::suite::load_sized(DatasetId::Gist, 15_000, 30);
    let (data, queries) = (named.data, named.queries);
    let params = E2lshParams::derive_practical(
        data.len(),
        2.0,
        2.0,
        0.7,
        0.3,
        data.max_abs_coord(),
        data.dim(),
    );
    let path = e2lshos::storage::testutil::temp_path("device-study.idx");
    build_index(&data, &params, &BuildConfig::default(), &path)?;

    println!(
        "{:<26} {:>14} {:>12} {:>12}",
        "Configuration", "query time", "QPS", "N_IO/query"
    );
    let configs = [
        (
            "HDD ×1 + io_uring",
            DeviceProfile::HDD,
            1,
            Interface::IO_URING,
        ),
        (
            "cSSD ×1 + io_uring",
            DeviceProfile::CSSD,
            1,
            Interface::IO_URING,
        ),
        (
            "cSSD ×4 + io_uring",
            DeviceProfile::CSSD,
            4,
            Interface::IO_URING,
        ),
        ("cSSD ×4 + SPDK", DeviceProfile::CSSD, 4, Interface::SPDK),
        ("eSSD ×1 + SPDK", DeviceProfile::ESSD, 1, Interface::SPDK),
        ("eSSD ×8 + SPDK", DeviceProfile::ESSD, 8, Interface::SPDK),
        (
            "XLFDD ×12 + XLFDD if.",
            DeviceProfile::XLFDD,
            12,
            Interface::XLFDD,
        ),
    ];
    for (name, profile, num, iface) in configs {
        let mut dev = SimStorage::new(profile, num, Backing::open(&path)?);
        let index = StorageIndex::open(&mut dev)?;
        let mut cfg = EngineConfig::simulated(iface, 1);
        cfg.s_override = Some(8 * params.l);
        let batch = run_queries(&index, &data, &queries, &cfg, &mut dev);
        println!(
            "{:<26} {:>12.1} µs {:>12.0} {:>12.1}",
            name,
            batch.mean_query_time() * 1e6,
            batch.qps(),
            batch.mean_n_io()
        );
    }

    // In-memory reference.
    let mem = MemIndex::build(&data, &params, BuildConfig::default().seed);
    let opts = SearchOptions {
        s_override: Some(8 * params.l),
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    for qi in 0..queries.len() {
        let _ = knn_search(&mem, &data, queries.point(qi), 1, &opts);
    }
    let t = t0.elapsed().as_secs_f64() / queries.len() as f64;
    println!(
        "{:<26} {:>12.1} µs {:>12.0} {:>12}",
        "in-memory E2LSH",
        t * 1e6,
        1.0 / t,
        "0"
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
