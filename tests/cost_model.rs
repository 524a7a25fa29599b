//! The analysis crate's Equation 7 must predict what the virtual-time
//! engine actually produces: the engine is a generalisation of the
//! asynchronous cost model, so on an I/O-bound configuration the batch
//! time should approach `N_IO · T_read`, and on a CPU-bound configuration
//! `T_compute + N_IO · T_request`.

use e2lshos::analysis::{CostInputs, QueryTimeModel};
use e2lshos::datasets::suite::{load_sized, DatasetId};
use e2lshos::prelude::*;

fn build(
    n: usize,
) -> (
    e2lshos::core::Dataset,
    e2lshos::core::Dataset,
    std::path::PathBuf,
) {
    let named = load_sized(DatasetId::Sift, n, 40);
    let params = E2lshParams::derive_practical(
        named.data.len(),
        2.0,
        2.0,
        0.7,
        0.3,
        named.data.max_abs_coord(),
        named.data.dim(),
    );
    // Unique per call: the tests run as parallel threads of one process
    // and build the same `n`.
    let path = e2lshos::storage::testutil::temp_path("costmodel.idx");
    build_index(&named.data, &params, &BuildConfig::default(), &path).unwrap();
    (named.data, named.queries, path)
}

#[test]
fn engine_matches_equation7_when_io_bound() {
    let (data, queries, path) = build(6_000);
    // Slow device, many contexts: the I/O pipeline dominates.
    let mut dev = SimStorage::new(DeviceProfile::CSSD, 1, Backing::open(&path).unwrap());
    let index = StorageIndex::open(&mut dev).unwrap();
    let cfg = EngineConfig::simulated(Interface::SPDK, 1);
    let batch = run_queries(&index, &data, &queries, &cfg, &mut dev);

    let n_io = batch.mean_n_io();
    let model = QueryTimeModel {
        t_request: Interface::SPDK.t_request,
        t_read: 1.0 / (DeviceProfile::CSSD.max_kiops * 1e3),
    };
    let inputs = CostInputs {
        t_compute: batch.cpu_compute / batch.outcomes.len() as f64,
        n_io,
    };
    let predicted = model.async_time(&inputs);
    let measured = batch.mean_query_time();
    let err = (measured - predicted).abs() / predicted;
    assert!(
        err < 0.25,
        "Eq. 7 prediction {predicted:.2e}s vs engine {measured:.2e}s (err {err:.2})"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn engine_matches_equation7_when_cpu_bound() {
    let (data, queries, path) = build(6_000);
    // Very fast array + heavyweight interface: the CPU side dominates.
    let mut dev = SimStorage::new(DeviceProfile::XLFDD, 8, Backing::open(&path).unwrap());
    let index = StorageIndex::open(&mut dev).unwrap();
    let cfg = EngineConfig::simulated(Interface::IO_URING, 1);
    let batch = run_queries(&index, &data, &queries, &cfg, &mut dev);

    let inputs = CostInputs {
        t_compute: batch.cpu_compute / batch.outcomes.len() as f64,
        n_io: batch.mean_n_io(),
    };
    let model = QueryTimeModel {
        t_request: Interface::IO_URING.t_request,
        t_read: 1.0 / (8.0 * DeviceProfile::XLFDD.max_kiops * 1e3),
    };
    let predicted = model.async_time(&inputs);
    let measured = batch.mean_query_time();
    let err = (measured - predicted).abs() / predicted;
    assert!(
        err < 0.25,
        "Eq. 7 prediction {predicted:.2e}s vs engine {measured:.2e}s (err {err:.2})"
    );
    // And the CPU side must be the binding term here.
    let cpu = inputs.t_compute + inputs.n_io * model.t_request;
    let io = inputs.n_io * model.t_read;
    assert!(cpu > io, "configuration should be CPU-bound: {cpu} vs {io}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn requirement_solver_roundtrip_through_engine() {
    // Derive the IOPS requirement for a target time from measured inputs
    // (Eq. 11), configure a synthetic device exactly at that requirement,
    // and verify the engine meets the target.
    let (data, queries, path) = build(6_000);
    let mut dev = SimStorage::new(DeviceProfile::XLFDD, 4, Backing::open(&path).unwrap());
    let index = StorageIndex::open(&mut dev).unwrap();
    let cfg = EngineConfig::simulated(Interface::XLFDD, 1);
    let batch = run_queries(&index, &data, &queries, &cfg, &mut dev);
    let n_io = batch.mean_n_io();
    let t_target = 2.0 * batch.mean_query_time();
    let req_iops = e2lshos::analysis::required_iops(n_io, t_target);
    // The XLFDD×4 array provides far more than required for 2× the time.
    assert!(
        4.0 * DeviceProfile::XLFDD.max_kiops * 1e3 > req_iops,
        "array {} must exceed requirement {req_iops}",
        4.0 * DeviceProfile::XLFDD.max_kiops * 1e3
    );
    std::fs::remove_file(&path).ok();
}
