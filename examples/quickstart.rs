//! Quickstart: build an E2LSHoS index on disk and answer top-k queries
//! through real asynchronous file I/O, then compare with the in-memory
//! E2LSH index and exact brute force.
//!
//! Run with: `cargo run --release --example quickstart`

use e2lshos::prelude::*;

fn main() -> std::io::Result<()> {
    // 1. A synthetic dataset: 20k SIFT-like byte descriptors plus 20
    //    held-out queries from the same distribution.
    let named = e2lshos::datasets::suite::load_sized(DatasetId::Sift, 20_000, 20);
    let (data, queries) = (named.data, named.queries);
    println!("dataset: n = {}, d = {}", data.len(), data.dim());

    // 2. Derive E2LSH parameters (Equation 5 with the paper's practical
    //    index-size exponent) and build the on-storage index.
    let params = E2lshParams::derive_practical(
        data.len(),
        2.0, // approximation ratio c
        2.0, // bucket width w
        0.7, // gamma (accuracy knob)
        0.3, // effective rho: L = n^0.3
        data.max_abs_coord(),
        data.dim(),
    );
    println!(
        "params: m = {}, L = {}, S = {}, {} radii",
        params.m,
        params.l,
        params.s,
        params.num_radii()
    );
    let path = e2lshos::storage::testutil::temp_path("quickstart.idx");
    let report = build_index(&data, &params, &BuildConfig::default(), &path)?;
    println!(
        "index built: {:.1} MiB on storage ({} bucket blocks)",
        report.total_bytes as f64 / (1 << 20) as f64,
        report.blocks
    );

    // 3. Open it through the real asynchronous file device (a worker-pool
    //    of positioned reads) and run top-5 queries.
    let mut dev = FileDevice::open(&path, 8)?;
    let index = StorageIndex::open(&mut dev)?;
    let mut cfg = EngineConfig::wall_clock(5);
    cfg.s_override = Some(8 * params.l);
    let batch = run_queries(&index, &data, &queries, &cfg, &mut dev);
    println!(
        "E2LSHoS (real file I/O): {:.0} queries/s, {:.1} I/Os per query",
        batch.qps(),
        batch.mean_n_io()
    );

    // 4. Cross-check against the in-memory index and exact search.
    let mem = MemIndex::build(&data, &params, BuildConfig::default().seed);
    let opts = SearchOptions {
        s_override: Some(8 * params.l),
        ..Default::default()
    };
    let mut agree = 0;
    for qi in 0..queries.len() {
        let q = queries.point(qi);
        let exact = e2lshos::baselines::brute::knn(&data, q, 1)[0];
        let (mem_res, _) = knn_search(&mem, &data, q, 1, &opts);
        let disk_res = &batch.outcomes[qi].neighbors;
        let d_disk = disk_res.first().map(|r| r.1).unwrap_or(f32::INFINITY);
        let d_mem = mem_res.first().map(|r| r.1).unwrap_or(f32::INFINITY);
        println!(
            "query {qi:>2}: exact {:.1} | in-memory {:.1} | on-storage {:.1}",
            exact.1, d_mem, d_disk
        );
        if (d_disk - exact.1).abs() < 1e-3 {
            agree += 1;
        }
    }
    println!(
        "on-storage answer equals the exact NN for {agree}/{} queries",
        queries.len()
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
