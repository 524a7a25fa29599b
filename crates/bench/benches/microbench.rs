//! Criterion microbenchmarks for what the ledger's micro-suite does
//! not time: the bucket-block encoder and the baseline substrates'
//! walks (R-tree for SRS, B+-tree for QALSH). The hot kernels — `dot` /
//! `dist2`, compound hash, block decode, simulated submit/poll,
//! in-memory top-1 — are `perf_ledger` rows (`core.dist2_ns`,
//! `core.hash_ns`, `storage.block_decode_ns`, `storage.sim_io_ns`,
//! `ladder.core_mem_us`).

use ann_baselines::bptree::BPlusTree;
use ann_baselines::rtree::RTree;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use e2lsh_storage::layout::{BucketBlock, EntryCodec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_block_encode(c: &mut Criterion) {
    let codec = EntryCodec::new(1_000_000, 14);
    let block = BucketBlock {
        next: 12345,
        entries: (0..99u32).map(|i| (i * 31, i & codec.fp_mask())).collect(),
    };
    c.bench_function("bucket_block_encode", |bench| {
        bench.iter_batched(
            Vec::new,
            |mut out| block.encode(&codec, &mut out),
            BatchSize::SmallInput,
        )
    });
}

fn bench_substrates(c: &mut Criterion) {
    let mut r = ChaCha8Rng::seed_from_u64(42);
    let pts: Vec<f32> = (0..8 * 20_000).map(|_| r.gen::<f32>() * 100.0).collect();
    let tree = RTree::bulk_load(8, pts);
    let q = vec![50.0f32; 8];
    c.bench_function("rtree_nn_first10_n20000", |bench| {
        bench.iter(|| {
            let mut it = tree.nn_iter(black_box(&q));
            for _ in 0..10 {
                black_box(it.next());
            }
        })
    });
    let pairs: Vec<(f32, u32)> = (0..100_000).map(|i| (r.gen(), i)).collect();
    let bpt = BPlusTree::bulk_load(pairs);
    c.bench_function("bptree_cursor_walk100_n100000", |bench| {
        bench.iter(|| {
            let mut cur = bpt.cursor(black_box(0.5));
            for _ in 0..50 {
                black_box(cur.next_right());
                black_box(cur.next_left());
            }
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_secs(1));
    targets = bench_block_encode, bench_substrates
);
criterion_main!(benches);
