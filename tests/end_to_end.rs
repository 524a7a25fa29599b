//! Cross-crate integration tests: dataset suite → parameter derivation →
//! on-storage index → real-file asynchronous queries → accuracy metrics.

use e2lshos::baselines::srs::{Srs, SrsConfig};
use e2lshos::datasets::ground_truth::GroundTruth;
use e2lshos::datasets::metrics::overall_ratio;
use e2lshos::datasets::suite::{load_sized, DatasetId};
use e2lshos::prelude::*;

fn temp(name: &str) -> std::path::PathBuf {
    e2lshos::storage::testutil::temp_path(&format!("it-{name}"))
}

#[test]
fn full_pipeline_reaches_target_accuracy_on_real_io() {
    let named = load_sized(DatasetId::Sift, 8_000, 30);
    let (data, queries) = (named.data, named.queries);
    let gt = GroundTruth::compute(&data, &queries, 10);
    let params = E2lshParams::derive_practical(
        data.len(),
        2.0,
        2.0,
        0.6,
        0.3,
        data.max_abs_coord(),
        data.dim(),
    );
    let path = temp("pipeline.idx");
    build_index(&data, &params, &BuildConfig::default(), &path).unwrap();
    let mut dev = FileDevice::open(&path, 4).unwrap();
    let index = StorageIndex::open(&mut dev).unwrap();
    let mut cfg = EngineConfig::wall_clock(10);
    cfg.s_override = Some(16 * params.l);
    let batch = run_queries(&index, &data, &queries, &cfg, &mut dev);
    let mut ratios = 0.0;
    for (qi, out) in batch.outcomes.iter().enumerate() {
        ratios += overall_ratio(&out.neighbors, gt.neighbors(qi), 10);
    }
    let mean = ratios / queries.len() as f64;
    assert!(
        mean <= 1.10,
        "top-10 overall ratio through real file I/O: {mean}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn storage_and_memory_indices_agree_through_facade() {
    let named = load_sized(DatasetId::Glove, 4_000, 20);
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
    let cfg_build = BuildConfig::default();
    let path = temp("agree.idx");
    build_index(&data, &params, &cfg_build, &path).unwrap();
    let mem = MemIndex::build(&data, &params, cfg_build.seed);

    let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
    let index = StorageIndex::open(&mut dev).unwrap();
    let mut cfg = EngineConfig::simulated(Interface::SPDK, 1);
    cfg.s_override = Some(1_000_000);
    let batch = run_queries(&index, &data, &queries, &cfg, &mut dev);

    let opts = SearchOptions {
        s_override: Some(1_000_000),
        ..Default::default()
    };
    let mut agree = 0;
    for qi in 0..queries.len() {
        let (mem_res, _) = knn_search(&mem, &data, queries.point(qi), 1, &opts);
        let disk = batch.outcomes[qi].neighbors.first().map(|r| r.1);
        let memd = mem_res.first().map(|r| r.1);
        match (memd, disk) {
            (Some(a), Some(b)) => {
                assert!(b <= a + 1e-4, "disk must never be worse: {b} vs {a}");
                if (a - b).abs() < 1e-4 {
                    agree += 1;
                }
            }
            (None, None) => agree += 1,
            other => panic!("presence mismatch: {other:?}"),
        }
    }
    assert!(agree >= queries.len() * 8 / 10, "agreement {agree}/20");
    std::fs::remove_file(&path).ok();
}

#[test]
fn methods_rank_consistently_on_an_easy_dataset() {
    // At equal (near-exact) accuracy on a small easy dataset, all methods
    // must return near-exact results; this guards the glue, not speed.
    let named = load_sized(DatasetId::Msong, 5_000, 15);
    let (data, queries) = (named.data, named.queries);
    let gt = GroundTruth::compute(&data, &queries, 1);

    let srs = Srs::build(
        &data,
        SrsConfig {
            early_stop: false,
            ..Default::default()
        },
    );
    let mut srs_ratio = 0.0;
    for qi in 0..queries.len() {
        let (res, _) = srs.query(&data, queries.point(qi), 1, Some(data.len() / 10));
        srs_ratio += overall_ratio(&res, gt.neighbors(qi), 1);
    }
    srs_ratio /= queries.len() as f64;
    assert!(srs_ratio < 1.05, "SRS ratio {srs_ratio}");

    let qalsh = e2lshos::baselines::qalsh::Qalsh::build(
        &data,
        e2lshos::baselines::qalsh::QalshConfig::default(),
    );
    let mut q_ratio = 0.0;
    for qi in 0..queries.len() {
        let (res, _) = qalsh.query(&data, queries.point(qi), 1);
        q_ratio += overall_ratio(&res, gt.neighbors(qi), 1);
    }
    q_ratio /= queries.len() as f64;
    assert!(q_ratio < 1.10, "QALSH ratio {q_ratio}");
}

#[test]
fn index_survives_reopen() {
    let named = load_sized(DatasetId::Rand, 3_000, 10);
    let (data, queries) = (named.data, named.queries);
    let params = E2lshParams::derive_practical(
        data.len(),
        2.0,
        2.0,
        0.8,
        0.3,
        data.max_abs_coord(),
        data.dim(),
    );
    let path = temp("reopen.idx");
    build_index(&data, &params, &BuildConfig::default(), &path).unwrap();

    let run_once = || {
        let mut dev = SimStorage::new(DeviceProfile::CSSD, 1, Backing::open(&path).unwrap());
        let index = StorageIndex::open(&mut dev).unwrap();
        let cfg = EngineConfig::simulated(Interface::IO_URING, 3);
        run_queries(&index, &data, &queries, &cfg, &mut dev)
            .outcomes
            .iter()
            .map(|o| o.neighbors.clone())
            .collect::<Vec<_>>()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "reopened index must answer identically");
    std::fs::remove_file(&path).ok();
}
