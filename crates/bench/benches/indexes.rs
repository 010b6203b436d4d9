//! Criterion microbenchmarks for the four key-value store shapes: insert
//! and lookup throughput at a realistic resident size.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hades_storage::index::{new_index, IndexKind, KvIndex};
use hades_storage::record::RecordId;

const LOADED: u64 = 100_000;

fn loaded_index(kind: IndexKind) -> Box<dyn KvIndex + Send> {
    let mut idx = new_index(kind);
    for k in 0..LOADED {
        idx.insert(k.wrapping_mul(0x9E37_79B9), RecordId(k as u32));
    }
    idx
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_get_100k");
    for kind in [
        IndexKind::HashTable,
        IndexKind::Map,
        IndexKind::BTree,
        IndexKind::BPlusTree,
    ] {
        let idx = loaded_index(kind);
        group.bench_with_input(BenchmarkId::from_parameter(kind.label()), &idx, |b, idx| {
            let mut k = 0u64;
            b.iter(|| {
                k = (k + 1) % LOADED;
                black_box(idx.get(black_box(k.wrapping_mul(0x9E37_79B9))))
            })
        });
    }
    group.finish();
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_insert");
    group.sample_size(20);
    for kind in [
        IndexKind::HashTable,
        IndexKind::Map,
        IndexKind::BTree,
        IndexKind::BPlusTree,
    ] {
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            b.iter(|| {
                let mut idx = new_index(kind);
                for k in 0..10_000u64 {
                    idx.insert(black_box(k.wrapping_mul(0xABCD_EF12)), RecordId(k as u32));
                }
                black_box(idx.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lookup, bench_insert);
criterion_main!(benches);
