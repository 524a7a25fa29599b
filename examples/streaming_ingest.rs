//! Streaming ingestion: keep an E2LSHoS index fresh under inserts and
//! deletes without rebuilding (paper Section 7: updates are cheap; full
//! rebuilds burn SSD endurance and should be rare).
//!
//! Run with: `cargo run --release --example streaming_ingest`

use e2lshos::prelude::*;
use e2lshos::storage::update::Updater;

fn main() -> std::io::Result<()> {
    // Start with a 10k-point index, reserving capacity for growth.
    let named = e2lshos::datasets::suite::load_sized(DatasetId::Glove, 12_000, 0);
    let all = named.data;
    let mut live = all.prefix(10_000);
    let params =
        E2lshParams::derive_practical(10_000, 2.0, 2.0, 0.7, 0.3, all.max_abs_coord(), all.dim());
    let path = e2lshos::storage::testutil::temp_path("streaming.idx");
    let cfg = BuildConfig {
        capacity: Some(12_000),
        ..Default::default()
    };
    build_index(&live, &params, &cfg, &path)?;
    println!("initial index: 10000 objects");

    // Stream in 2000 new points.
    let t0 = std::time::Instant::now();
    let mut up = Updater::open(&path)?;
    for i in 10_000..12_000 {
        let id = up.insert(all.point(i))?;
        live.push(all.point(i));
        debug_assert_eq!(id as usize, i);
    }
    let ins = t0.elapsed();
    println!(
        "inserted 2000 objects in {:.2}s ({:.0} inserts/s)",
        ins.as_secs_f64(),
        2000.0 / ins.as_secs_f64()
    );

    // Delete 500 of the originals.
    let t0 = std::time::Instant::now();
    for i in (0..500).map(|i| i * 7) {
        up.delete(live.point(i), i as u32)?;
    }
    let del = t0.elapsed();
    println!(
        "deleted 500 objects in {:.2}s ({:.0} deletes/s)",
        del.as_secs_f64(),
        500.0 / del.as_secs_f64()
    );
    drop(up);

    // Query the updated index through real file I/O: inserted points are
    // findable, deleted ones are gone.
    let mut dev = FileDevice::open(&path, 8)?;
    let index = StorageIndex::open(&mut dev)?;
    let mut queries = e2lshos::core::Dataset::with_capacity(all.dim(), 2);
    queries.push(all.point(11_500)); // inserted after the build
    queries.push(live.point(7)); // deleted (i = 1·7)
    let mut qcfg = EngineConfig::wall_clock(1);
    qcfg.s_override = Some(16 * params.l);
    let batch = run_queries(&index, &live, &queries, &qcfg, &mut dev);
    let inserted_found = batch.outcomes[0]
        .neighbors
        .first()
        .map(|&(id, d)| id == 11_500 && d == 0.0)
        .unwrap_or(false);
    let deleted_gone = batch.outcomes[1]
        .neighbors
        .first()
        .map(|&(id, _)| id != 7)
        .unwrap_or(true);
    println!("inserted object findable: {inserted_found}");
    println!("deleted object absent:    {deleted_gone}");
    std::fs::remove_file(&path).ok();
    Ok(())
}
