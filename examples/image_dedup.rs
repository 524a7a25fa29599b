//! Near-duplicate image search — the workload class that motivates the
//! paper's introduction (multimedia indexing).
//!
//! A corpus of SIFT-like byte descriptors contains planted near-duplicate
//! pairs (the "same image re-encoded"). The example builds an E2LSHoS
//! index on disk, then streams "incoming uploads" against it to flag
//! near-duplicates, comparing E2LSHoS throughput with a brute-force scan
//! and reporting precision/recall of the duplicate detector.
//!
//! Run with: `cargo run --release --example image_dedup`

use e2lshos::prelude::*;
use rand::{Rng, SeedableRng};

fn main() -> std::io::Result<()> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2024);
    // Corpus: 15k descriptors.
    let base = e2lshos::datasets::suite::load_sized(DatasetId::Sift, 15_000, 1).data;

    // Uploads: 60 near-duplicates of corpus items (small perturbations)
    // interleaved with 60 genuinely new descriptors.
    let dim = base.dim();
    let mut uploads = e2lshos::core::Dataset::with_capacity(dim, 120);
    let mut is_dup = Vec::new();
    for i in 0..120 {
        if i % 2 == 0 {
            let src = rng.gen_range(0..base.len());
            let p: Vec<f32> = base
                .point(src)
                .iter()
                .map(|&v| (v + rng.gen_range(-3.0f32..3.0)).clamp(0.0, 255.0).round())
                .collect();
            uploads.push(&p);
            is_dup.push(true);
        } else {
            let p: Vec<f32> = (0..dim)
                .map(|_| (rng.gen::<f32>() * 255.0).round())
                .collect();
            uploads.push(&p);
            is_dup.push(false);
        }
    }

    let params = E2lshParams::derive_practical(
        base.len(),
        2.0,
        2.0,
        0.7,
        0.3,
        base.max_abs_coord().max(255.0),
        dim,
    );
    let path = e2lshos::storage::testutil::temp_path("dedup.idx");
    build_index(&base, &params, &BuildConfig::default(), &path)?;
    let mut dev = FileDevice::open(&path, 8)?;
    let index = StorageIndex::open(&mut dev)?;

    // Distance threshold separating "near-duplicate" from "new": the
    // perturbation radius is ≈ 3·√d ≈ 20–35; random descriptors are
    // hundreds away.
    let threshold = 4.0 * (dim as f32).sqrt();

    let mut cfg = EngineConfig::wall_clock(1);
    cfg.s_override = Some(8 * params.l);
    let t0 = std::time::Instant::now();
    let batch = run_queries(&index, &base, &uploads, &cfg, &mut dev);
    let lsh_time = t0.elapsed().as_secs_f64();

    let mut tp = 0;
    let mut fp = 0;
    let mut fnn = 0;
    for (qi, out) in batch.outcomes.iter().enumerate() {
        let flagged = out
            .neighbors
            .first()
            .map(|&(_, d)| d <= threshold)
            .unwrap_or(false);
        match (flagged, is_dup[qi]) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fnn += 1,
            _ => {}
        }
    }
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let recall = tp as f64 / (tp + fnn).max(1) as f64;
    println!(
        "E2LSHoS dedup: {} uploads in {:.1} ms ({:.0} uploads/s)",
        uploads.len(),
        lsh_time * 1e3,
        uploads.len() as f64 / lsh_time
    );
    println!("precision {precision:.2}, recall {recall:.2} at threshold {threshold:.0}");

    // Brute-force reference.
    let t0 = std::time::Instant::now();
    let mut brute_flags = 0;
    for qi in 0..uploads.len() {
        let nn = e2lshos::baselines::brute::knn(&base, uploads.point(qi), 1)[0];
        if nn.1 <= threshold {
            brute_flags += 1;
        }
    }
    let brute_time = t0.elapsed().as_secs_f64();
    println!(
        "brute force:   {} uploads in {:.1} ms ({:.0} uploads/s), {} flagged",
        uploads.len(),
        brute_time * 1e3,
        uploads.len() as f64 / brute_time,
        brute_flags
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
