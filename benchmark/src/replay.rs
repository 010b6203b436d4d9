//! Layer replay timings: each layer's public entry point, timed on the
//! workload's own generated transactions.
//!
//! Together with the traced pass's per-commit counts these give a
//! first estimate of each layer's share of host time without adding
//! instrumentation to the program: calls per commit × ns per call.

use crate::spec::{Loaded, Spec};
use crate::stats::median;
use hades::bloom::BloomFilter;
use hades::core::runtime::{self, Cluster, ResolvedTxn};
use hades::net::fabric::{wire_size, Fabric};
use hades::sim::engine::EventQueue;
use hades::sim::ids::{CoreId, NodeId};
use hades::sim::rng::SimRng;
use hades::sim::time::Cycles;
use hades::storage::db::Database;
use hades::telemetry::json::Json;
use hades::workloads::spec::TxnSpec;
use std::hint::black_box;
use std::time::Instant;

/// Transactions generated per replay.
const TXNS: usize = 20_000;

/// Each loop is timed this many times and the median kept.
const REPS: usize = 5;

/// Pending events kept in the queue replay: one per transaction slot of
/// the default cluster.
const QUEUE_DEPTH: usize = 50;

/// Replays every layer on `w`'s transactions at `seed`.
pub fn run(w: &Spec, seed: u64) -> Json {
    let cfg = w.config(seed);
    let nodes = cfg.shape.nodes;
    let cores = cfg.shape.cores_per_node;
    let mut db = Database::new(nodes);
    let Loaded { mut workload, .. } = w.load(&mut db);
    let origin = |i: usize| NodeId((i % nodes) as u16);

    let (next_txn_ns, specs) = time(TXNS, || {
        let mut rng = SimRng::seed_from(seed);
        (0..TXNS)
            .map(|i| workload.next_txn(origin(i), &db, &mut rng))
            .collect::<Vec<TxnSpec>>()
    });
    let ops: usize = specs.iter().map(TxnSpec::num_ops).sum();
    let (resolve_ns, txns) = time(ops, || {
        specs
            .iter()
            .map(|s| runtime::resolve(&db, s, 0))
            .collect::<Vec<ResolvedTxn>>()
    });
    let lines = |t: &ResolvedTxn| -> Vec<u64> {
        t.ops()
            .flat_map(|op| op.read_lines.iter().chain(&op.write_lines))
            .copied()
            .collect()
    };
    let txn_lines: Vec<Vec<u64>> = txns.iter().map(lines).collect();
    let line_count: usize = txn_lines.iter().map(Vec::len).sum();

    let mut bf = BloomFilter::new(cfg.bloom.nic_read_bits, cfg.bloom.hashes);
    let insert_ns = time(line_count, || {
        for ls in &txn_lines {
            bf.clear();
            for &l in ls {
                bf.insert(black_box(l));
            }
        }
    })
    .0;
    // Probe each transaction's lines against the previous one's filter,
    // as a conflict check would.
    let filters: Vec<BloomFilter> = txn_lines
        .iter()
        .map(|ls| {
            let mut f = BloomFilter::new(cfg.bloom.nic_read_bits, cfg.bloom.hashes);
            ls.iter().for_each(|&l| f.insert(l));
            f
        })
        .collect();
    let probed: usize = txn_lines[1..].iter().map(Vec::len).sum();
    let probe_ns = time(probed, || {
        let hits = filters
            .iter()
            .zip(&txn_lines[1..])
            .map(|(f, ls)| ls.iter().filter(|&&l| f.contains(black_box(l))).count())
            .sum::<usize>();
        black_box(hits);
    })
    .0;

    let remote: Vec<(NodeId, NodeId, usize)> = txns
        .iter()
        .enumerate()
        .flat_map(|(i, t)| {
            t.ops()
                .filter(move |op| op.home != origin(i))
                .map(move |op| {
                    (
                        origin(i),
                        op.home,
                        wire_size(op.record_lines.len(), cfg.mem.line_bytes),
                    )
                })
        })
        .collect();
    let send_ns = time(remote.len(), || {
        let mut fabric = Fabric::new(cfg.net, nodes);
        let mut now = Cycles::ZERO;
        for &(src, dst, bytes) in &remote {
            now += Cycles::new(100);
            black_box(fabric.send(now, src, dst, bytes));
        }
    })
    .0;

    let queue_ns = time(TXNS, || {
        let mut rng = SimRng::seed_from(seed);
        let mut q: EventQueue<[u64; 8]> = EventQueue::new();
        for i in 0..QUEUE_DEPTH {
            q.push_at(Cycles::new(rng.below(4_000)), [i as u64; 8]);
        }
        for _ in 0..TXNS {
            let (at, payload) = q.pop().expect("queue holds its depth");
            q.push_at(at + Cycles::new(1 + rng.below(4_000)), black_box(payload));
        }
    })
    .0;

    // The memory model goes last: it needs the database inside a cluster.
    let mut cl = Cluster::new(cfg, db);
    let access_ns = time(ops, || {
        for (i, t) in txns.iter().enumerate() {
            let core = CoreId((i % cores) as u16);
            for op in t.ops() {
                let ls = if op.read_lines.is_empty() {
                    &op.write_lines
                } else {
                    &op.read_lines
                };
                black_box(cl.access_lines(op.home, core, ls));
            }
        }
    })
    .0;

    let metrics = Json::obj()
        .field("workloads.next_txn_ns", next_txn_ns)
        .field("storage.resolve_ns", resolve_ns)
        .field("mem.access_ns", access_ns)
        .field("bloom.insert_ns", insert_ns)
        .field("bloom.probe_ns", probe_ns)
        .field("net.send_ns", send_ns)
        .field("sim.queue_ns", queue_ns)
        .build();
    let calls = Json::obj()
        .field("next_txn", TXNS as u64)
        .field("resolve", ops as u64)
        .field("access_lines", ops as u64)
        .field("bloom_insert", line_count as u64)
        .field("bloom_probe", probed as u64)
        .field("send", remote.len() as u64)
        .field("queue", TXNS as u64)
        .build();
    Json::obj()
        .field("metrics", metrics)
        .field("calls", calls)
        .field("ops_per_txn", ops as f64 / TXNS as f64)
        .build()
}

/// Runs `f` [`REPS`] times; returns the median ns per call for `calls`
/// calls, and the last result. Earlier results drop outside the timing.
fn time<T>(calls: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut per_call = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let out = f();
        per_call.push(t.elapsed().as_nanos() as f64 / calls.max(1) as f64);
        last = Some(out);
    }
    (median(&per_call), last.expect("REPS is positive"))
}
