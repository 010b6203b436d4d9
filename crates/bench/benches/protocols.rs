//! Criterion end-to-end benchmarks: simulator performance (host wall time
//! per simulated commit) for each protocol, and the regenerators'
//! workhorse path. These time the *reproduction's* code, complementing the
//! figure drivers which report *simulated* performance.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hades_core::runner::{Experiment, Protocol, Run};
use hades_sim::config::SimConfig;
use hades_workloads::catalog::AppId;

fn bench_protocol_sims(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_500_commits_ht_wa");
    group.sample_size(10);
    let ex = Experiment {
        cfg: SimConfig::isca_default(),
        scale: 0.003,
        warmup: 50,
        measure: 500,
    };
    let app = AppId::parse("HT-wA").expect("known app");
    for p in Protocol::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(p.label()), &p, |b, &p| {
            b.iter(|| black_box(Run::apps(p, &ex, &[app]).run().stats.committed))
        });
    }
    group.finish();
}

fn bench_tpcc_generation(c: &mut Criterion) {
    use hades_sim::ids::NodeId;
    use hades_sim::rng::SimRng;
    use hades_storage::db::Database;
    use hades_workloads::spec::Workload;
    use hades_workloads::tpcc::{Tpcc, TpccConfig};

    let mut db = Database::new(5);
    let mut tpcc = Tpcc::setup(&mut db, TpccConfig::paper().scaled(0.002));
    let mut rng = SimRng::seed_from(7);
    c.bench_function("tpcc_next_txn", |b| {
        b.iter(|| black_box(tpcc.next_txn(NodeId(0), &db, &mut rng).num_ops()))
    });
}

criterion_group!(benches, bench_protocol_sims, bench_tpcc_generation);
criterion_main!(benches);
