//! Criterion microbenchmarks for the Bloom-filter hardware structures:
//! CRC hashing, filter insert/probe, the Fig 8 dual write filter, and
//! Locking Buffer lock/probe/unlock cycles and bank-wide probes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hades_bloom::hash::{Crc32, Crc64, LineHash};
use hades_bloom::{BloomFilter, DualWriteFilter, LockingBuffers, Signature};

fn bench_crc(c: &mut Criterion) {
    let crc32 = Crc32::new();
    let crc64 = Crc64::new();
    c.bench_function("crc32_u64", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            black_box(crc32.hash_u64(k))
        })
    });
    c.bench_function("crc64_u64", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            black_box(crc64.hash_u64(k))
        })
    });
    c.bench_function("line_hash", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            black_box(LineHash::new(black_box(k)))
        })
    });
}

fn bench_filters(c: &mut Criterion) {
    c.bench_function("bloom_insert_1k_2h", |b| {
        let mut bf = BloomFilter::new(1024, 2);
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(64);
            bf.insert(black_box(k));
            if bf.inserted() > 75 {
                bf.clear();
            }
        })
    });
    let mut bf = BloomFilter::new(1024, 2);
    for k in 0..40u64 {
        bf.insert(k * 64);
    }
    c.bench_function("bloom_probe_1k_2h", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(64);
            black_box(bf.contains(black_box(k)))
        })
    });
    c.bench_function("dual_write_filter_insert", |b| {
        let mut wf = DualWriteFilter::isca_default(20_480);
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(64);
            wf.insert(black_box(k));
            if wf.inserted() > 40 {
                wf.clear();
            }
        })
    });
    let mut wf = DualWriteFilter::isca_default(20_480);
    for k in 0..40u64 {
        wf.insert(k * 64);
    }
    c.bench_function("dual_write_filter_probe", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(64);
            black_box(wf.contains(black_box(k)))
        })
    });
}

fn bench_locking_buffers(c: &mut Criterion) {
    c.bench_function("locking_buffer_lock_probe_unlock", |b| {
        let mut bufs = LockingBuffers::new(8);
        let mut rd = BloomFilter::new(1024, 2);
        let mut wr = BloomFilter::new(1024, 2);
        for k in 0..10u64 {
            rd.insert(k * 64);
            wr.insert(k * 64 + 32 * 64);
        }
        let writes: Vec<u64> = (0..10).map(|k| k * 64 + 32 * 64).collect();
        let reads: Vec<u64> = (0..10).map(|k| k * 64).collect();
        b.iter(|| {
            bufs.try_lock(1, rd.clone().into(), wr.clone().into(), &writes, &reads)
                .expect("free buffer");
            black_box(bufs.blocks_write(reads[3]));
            black_box(bufs.blocks_read(writes[7]));
            bufs.unlock(1);
        })
    });
}

/// One line probed against a full 16-entry bank: 8 local holders (read
/// filter + dual write filter) and 8 remote ones (NIC filter pairs), 10
/// lines each. The probe lines are never members, so every entry's read
/// and write signatures are tested, with the line hashed once for all.
fn bench_bank_probe(c: &mut Criterion) {
    let mut bufs = LockingBuffers::new(16);
    for owner in 0..16u64 {
        let mut rd = BloomFilter::new(1024, 2);
        let lines: Vec<u64> = (0..10).map(|i| owner * 1_000 + i * 64).collect();
        let wr: Signature = if owner % 2 == 0 {
            let mut wf = DualWriteFilter::isca_default(20_480);
            lines.iter().for_each(|&l| wf.insert(l + 32));
            wf.into()
        } else {
            let mut bf = BloomFilter::new(1024, 2);
            lines.iter().for_each(|&l| bf.insert(l + 32));
            bf.into()
        };
        lines.iter().for_each(|&l| rd.insert(l));
        bufs.import_entry(owner, rd.into(), wr);
    }
    c.bench_function("locking_buffer_bank16_probe_line", |b| {
        let mut k = 1u64 << 40;
        b.iter(|| {
            k = k.wrapping_add(64);
            black_box(bufs.blocks_write(black_box(k)))
        })
    });
}

criterion_group!(
    benches,
    bench_crc,
    bench_filters,
    bench_locking_buffers,
    bench_bank_probe
);
criterion_main!(benches);
