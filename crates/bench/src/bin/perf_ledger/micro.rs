//! The per-layer micro-suite: public functions of each layer, timed
//! from outside.
//!
//! Wall-clock rows are the best of [`REPS`] repetitions of a fixed
//! iteration count (single-threaded, so wall time is CPU time unless the
//! box steals it — which best-of filters). Count rows are exact.

use crate::data::{stream, Inputs};
use crate::ladder::Ladder;
use crate::rng::{SplitMix64, Zipf};
use crate::run::Outcome;
use crate::stats::median;
use e2lsh_core::distance::dist2;
use e2lsh_service::admission::{gated, AdmissionBudget};
use e2lsh_service::net::frame::{decode_request, encode_request, Request};
use e2lsh_service::router::power_of_two_pick;
use e2lsh_service::LatencyHistogram;
use e2lsh_storage::device::cached::{BlockCache, CachePolicy, TinyLfuConfig};
use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
use e2lsh_storage::device::{Device, IoRequest};
use e2lsh_storage::index::StorageIndex;
use e2lsh_storage::layout::{BucketBlock, BLOCK_SIZE, ENTRIES_PER_BLOCK};
use e2lsh_storage::update::Updater;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 5;

/// Seconds per iteration of `body`, best of [`REPS`] runs of `iters`.
fn best_per_iter(iters: usize, mut body: impl FnMut(usize)) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                body(i);
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn run(inputs: &Inputs, seed: u64, ladder: &mut Ladder, out: &mut Outcome) {
    let mut rng = SplitMix64::stream(seed, stream::MICRO);
    let q = |rng: &mut SplitMix64| (rng.next_u64() % inputs.queries.len() as u64) as usize;
    core_kernels(inputs, ladder, q(&mut rng), out);
    storage_primitives(ladder, out);
    cache_rows(out);
    service_primitives(inputs, q(&mut rng), out);
    write_path(inputs, ladder, out);
}

fn core_kernels(inputs: &Inputs, ladder: &Ladder, qi: usize, out: &mut Outcome) {
    let shard = &ladder.stack.service().shards().shards()[0];
    let family = shard.index.family();
    let point = inputs.queries.point(qi);
    let other = ladder.rows.point(qi % ladder.rows.len());
    let ri = family.num_radii() / 2;
    let (mut scratch, mut keys) = (Vec::new(), Vec::new());
    let compound = family.compound(ri, 0);
    let radius = family.radius(ri);
    out.set(
        "core.hash_ns",
        best_per_iter(20_000, |_| {
            black_box(compound.hash64(black_box(point), radius, &mut scratch));
        }) * 1e9,
    );
    out.set(
        "core.keys_at_radius_us",
        best_per_iter(2_000, |_| {
            family.keys_at_radius(black_box(point), ri, &mut scratch, &mut keys);
            black_box(&keys);
        }) * 1e6,
    );
    out.set(
        "core.dist2_ns",
        best_per_iter(200_000, |_| {
            black_box(dist2(black_box(point), black_box(other)));
        }) * 1e9,
    );
}

fn storage_primitives(ladder: &Ladder, out: &mut Outcome) {
    let shard = &ladder.stack.service().shards().shards()[0];
    out.set(
        "storage.open_ms",
        best_per_iter(1, |_| {
            let backing = Backing::open(&shard.path).expect("open image");
            let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, backing);
            black_box(StorageIndex::open(&mut dev).expect("open index"));
        }) * 1e3,
    );

    let codec = shard.index.codec();
    let block = BucketBlock {
        next: 4096,
        entries: (0..ENTRIES_PER_BLOCK as u32)
            .map(|i| (i * 7, i & codec.fp_mask()))
            .collect(),
    };
    let mut buf = Vec::new();
    block.encode(&codec, &mut buf);
    out.set(
        "storage.block_decode_ns",
        best_per_iter(50_000, |_| {
            black_box(BucketBlock::decode(&codec, black_box(&buf)));
        }) * 1e9,
    );

    // Submit + poll per read at a steady in-flight depth of 64.
    let span = 1u64 << 20;
    let mut dev = SimStorage::new(
        DeviceProfile::ESSD,
        1,
        Backing::Mem(vec![0u8; span as usize]),
    );
    let (mut now, mut done) = (0.0f64, Vec::new());
    out.set(
        "storage.sim_io_ns",
        best_per_iter(50_000, |i| {
            dev.submit(
                IoRequest {
                    addr: (i as u64 * BLOCK_SIZE as u64 * 13) % span,
                    len: BLOCK_SIZE as u32,
                    tag: i as u64,
                },
                now,
            );
            if dev.inflight() > 64 {
                now = dev.next_completion_time().expect("reads in flight");
                done.clear();
                dev.poll(now, &mut done);
                black_box(&done);
            }
        }) * 1e9,
    );
}

/// Block-cache rows under both policies: hit cost, fill cost, and the
/// hit rate on one fixed trace (the row ROADMAP item 2d decides by).
fn cache_rows(out: &mut Outcome) {
    const CAPACITY: usize = 4_096;
    const UNIVERSE: usize = 81_920; // capacity is 5% of the universe
    const TRACE_LEN: usize = 200_000;
    // The trace is fixed (not drawn from --seed), so its hit rates are
    // comparable across every run of every commit.
    let trace = Zipf::new(UNIVERSE, 0.8).draws(&mut SplitMix64::stream(0x7ace, 0), TRACE_LEN);
    let block: Arc<[u8]> = Arc::from(vec![0u8; BLOCK_SIZE]);
    for (policy, hit, fill, rate) in [
        (
            CachePolicy::Lru,
            "storage.cache_hit_ns.lru",
            "storage.cache_fill_ns.lru",
            "storage.cache_hit_rate.lru",
        ),
        (
            CachePolicy::TinyLfu(TinyLfuConfig::default()),
            "storage.cache_hit_ns.tinylfu",
            "storage.cache_fill_ns.tinylfu",
            "storage.cache_hit_rate.tinylfu",
        ),
    ] {
        let fresh = || BlockCache::with_policy(CAPACITY, 8, policy);

        let cache = fresh();
        let mut hits = 0usize;
        for &key in &trace {
            if cache.get(u64::from(key)).is_some() {
                hits += 1;
            } else {
                cache.insert(u64::from(key), Arc::clone(&block));
            }
        }
        out.set(rate, hits as f64 / trace.len() as f64);

        // Hit cost: resident keys, revisited in a scattered order.
        let cache = fresh();
        let resident = CAPACITY / 2;
        for key in 0..resident as u64 {
            cache.insert(key, Arc::clone(&block));
            cache.get(key); // seen twice: TinyLFU keeps it
        }
        out.set(
            hit,
            best_per_iter(100_000, |i| {
                black_box(cache.get(((i * 7919) % resident) as u64));
            }) * 1e9,
        );

        // Fill cost: every key is new, so each iteration is a miss plus
        // an insert that displaces (or is refused in favour of) a
        // resident block.
        let cache = fresh();
        for key in 0..CAPACITY as u64 {
            cache.insert(key, Arc::clone(&block));
        }
        let mut next = CAPACITY as u64;
        out.set(
            fill,
            best_per_iter(50_000, |_| {
                next += 1;
                if cache.get(next).is_none() {
                    cache.insert(next, Arc::clone(&block));
                }
            }) * 1e9,
        );
    }
}

fn service_primitives(inputs: &Inputs, qi: usize, out: &mut Outcome) {
    let req = Request::Query {
        point: inputs.queries.point(qi).to_vec(),
    };
    let mut buf = Vec::new();
    out.set(
        "service.frame_encode_ns",
        best_per_iter(50_000, |i| {
            buf.clear();
            encode_request(1, i as u64, black_box(&req), &mut buf);
            black_box(&buf);
        }) * 1e9,
    );
    let body = buf[4..].to_vec(); // after the length prefix
    out.set(
        "service.frame_decode_ns",
        best_per_iter(50_000, |_| {
            black_box(decode_request(black_box(&body)).expect("frame decodes"));
        }) * 1e9,
    );

    let mut hist = LatencyHistogram::new();
    out.set(
        "service.hist_record_ns",
        best_per_iter(200_000, |i| {
            hist.record(1e-4 + (i % 1000) as f64 * 1e-6);
        }) * 1e9,
    );
    black_box(hist.count());

    let (tx, _rx) = gated::<u64>(0, AdmissionBudget::depth(1024));
    out.set(
        "service.admission_ns",
        best_per_iter(200_000, |_| {
            if tx.reserve(512).is_ok() {
                tx.unreserve(512);
            }
        }) * 1e9,
    );

    let live = [0usize, 1, 2, 3];
    let depths = [3usize, 1, 4, 1];
    out.set(
        "service.router_pick_ns",
        best_per_iter(200_000, |i| {
            let a = e2lsh_service::router::splitmix64(i as u64);
            let b = e2lsh_service::router::splitmix64(a);
            black_box(power_of_two_pick(black_box(&live), |r| depths[r], a, b));
        }) * 1e9,
    );
}

/// Insert, delete and maintenance on the ladder's image (its session is
/// stopped first; nothing reads the image afterwards).
fn write_path(inputs: &Inputs, ladder: &mut Ladder, out: &mut Outcome) {
    const OPS: usize = 150;
    ladder.stack.stop_session();
    let path = ladder.stack.service().shards().shards()[0].path.clone();
    let mut up = Updater::open(&path).expect("open updater");
    up.take_trace();

    let (mut insert_s, mut blocks) = (Vec::with_capacity(OPS), 0usize);
    for i in 0..OPS {
        let t = Instant::now();
        up.insert(inputs.insert_pool.point(i)).expect("insert");
        insert_s.push(t.elapsed().as_secs_f64());
        blocks += up.take_trace().blocks.len();
    }
    out.set("storage.insert_us", median(&insert_s) * 1e6);
    out.set("storage.insert_blocks_written", blocks as f64 / OPS as f64);
    out.set(
        "storage.insert_bytes_written",
        (blocks * BLOCK_SIZE) as f64 / OPS as f64,
    );

    let mut delete_s = Vec::with_capacity(OPS);
    for id in 0..OPS {
        let t = Instant::now();
        up.delete(ladder.rows.point(id), id as u32).expect("delete");
        delete_s.push(t.elapsed().as_secs_f64());
    }
    out.set("storage.delete_us", median(&delete_s) * 1e6);

    let t = Instant::now();
    let rep = up.maintain(20_000).expect("maintain");
    out.set(
        "storage.maintain_blocks_per_s",
        rep.blocks_scanned as f64 / t.elapsed().as_secs_f64(),
    );
}
