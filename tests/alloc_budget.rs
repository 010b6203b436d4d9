//! Heap-allocation budget for the engines' hot path.
//!
//! The simulator's host speed is dominated by per-event work, and heap
//! allocation was the largest part of it (DESIGN.md §12, "Allocation").
//! This test counts the allocations each engine makes per commit and
//! holds them under a budget, so a change that puts a per-event clone or
//! a per-message `Vec` back on the hot path fails here rather than as a
//! slower benchmark.
//!
//! The count is *marginal*: two runs of YCSB-A over the hash table (θ
//! 0.99, quick scale) differ only in their measurement window, so their
//! allocation counts differ only by the extra commits. Loading the
//! database, building the cluster and the run's other set-up cancel out.
//! Each engine is measured plain and with one squash enough to fall back
//! to pessimistic locking.
//!
//! A second budget holds set-up, for TATP, Smallbank and YCSB loads:
//! loading a database stores record values in per-node line arenas and
//! B-tree nodes with their keys inline, and stages each load chunk's
//! index entries in one reused buffer per table, and building a cluster
//! lays each cache's tags out in flat arrays (DESIGN.md §12, "Memory
//! layout" and "Loading"), so neither makes an allocation per record,
//! per load chunk, per index node or per cache set.
//!
//! A third holds the LLC's `WrTX_ID` table, which keeps its allocation:
//! once warm, tagging, owner lookups, commits and squashes allocate
//! nothing.
//!
//! The counter is thread-local, so allocations made by the test harness
//! on other threads are not counted.

use hades::core::runner::{Experiment, Protocol, Run};
use hades::core::runtime::Cluster;
use hades::mem::hierarchy::NodeMemory;
use hades::sim::config::{MemParams, SimConfig};
use hades::sim::ids::SlotId;
use hades::storage::db::Database;
use hades::workloads::catalog::AppId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local with no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Measurement windows of the two runs compared: the same warmup, then
/// these many measured commits.
const WINDOWS: (u64, u64) = (200, 600);

/// Runs `protocol` on HT-wA for `measure` commits; returns the run's
/// allocations and its commits (warmup and drain included).
fn allocations(protocol: Protocol, fallback: bool, measure: u64) -> (u64, u64) {
    let app = AppId::parse("HT-wA").unwrap();
    let mut ex = Experiment::quick();
    ex.measure = measure;
    if fallback {
        ex.cfg.retry.fallback_after_squashes = 1;
    }
    let before = ALLOCS.with(Cell::get);
    let commits = Run::apps(protocol, &ex, &[app]).run().total_commits;
    (ALLOCS.with(Cell::get) - before, commits)
}

/// Allocations per commit between the two measurement windows.
fn marginal(protocol: Protocol, fallback: bool) -> f64 {
    let (a1, c1) = allocations(protocol, fallback, WINDOWS.0);
    let (a2, c2) = allocations(protocol, fallback, WINDOWS.1);
    assert!(c2 > c1, "{protocol}: the longer window committed no more");
    (a2.saturating_sub(a1)) as f64 / (c2 - c1) as f64
}

#[test]
fn engines_stay_within_their_allocation_budget() {
    let budgets = [
        (Protocol::Baseline, 50.0),
        (Protocol::HadesH, 60.0),
        (Protocol::Hades, 60.0),
    ];
    let mut over = Vec::new();
    for (protocol, budget) in budgets {
        for fallback in [false, true] {
            let per_commit = marginal(protocol, fallback);
            let label = if fallback { "fallback" } else { "plain" };
            println!("{protocol} {label}: {per_commit:.1} allocations per commit");
            if per_commit > budget {
                over.push(format!(
                    "{protocol} {label}: {per_commit:.1} allocations per commit > {budget}"
                ));
            }
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}

/// Allocations made by `f`, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Allocations made loading `app` at `scale`, and the records loaded.
fn load_allocations(app: AppId, scale: f64) -> (u64, usize) {
    let mut db = Database::new(SimConfig::isca_default().shape.nodes);
    let (load, _workload) = counted(|| app.build(&mut db, scale));
    (load, db.record_count())
}

#[test]
fn set_up_stays_within_its_allocation_budget() {
    let cfg = SimConfig::isca_default();
    let mut over = Vec::new();
    for label in ["TATP", "Smallbank", "HT-wA"] {
        let app = AppId::parse(label).unwrap();
        let (load, records) = load_allocations(app, 0.01);
        let per_record = load as f64 / records as f64;
        println!(
            "{label} load: {load} allocations for {records} records ({per_record:.4} per record)"
        );
        if per_record > 0.01 {
            over.push(format!(
                "loading {label} made {per_record:.4} allocations per record > 0.01"
            ));
        }
        // A load twice as large adds about one allocation per growing
        // array (a doubling each); one per load chunk and table would
        // add about 0.001 per record.
        let (load2, records2) = load_allocations(app, 0.02);
        let marginal = (load2 - load) as f64 / (records2 - records) as f64;
        println!("{label} load: {marginal:.5} allocations per extra record");
        if marginal > 0.0005 {
            over.push(format!(
                "loading {label} made {marginal:.5} allocations per extra record > 0.0005"
            ));
        }
        let mut db = Database::new(cfg.shape.nodes);
        let _workload = app.build(&mut db, 0.01);
        let (build, _cluster) = counted(|| Cluster::new(cfg.clone(), db));
        println!("{label} Cluster::new: {build} allocations");
        if build > 1_000 {
            over.push(format!(
                "{label}: Cluster::new made {build} allocations > 1000"
            ));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}

/// Four slots tag 16 lines each, fresh ones every `round` and each line
/// twice, then two commit and two squash.
fn tag_commit_squash(m: &mut NodeMemory, round: u64) {
    for slot in 0..4u16 {
        for j in 0..16 {
            let line = 7 * (64 * round + 16 * u64::from(slot) + j);
            for _ in 0..2 {
                assert!(m.tag_write(line, SlotId(slot)).is_empty());
                assert_eq!(m.write_owner(line), Some(SlotId(slot)));
            }
        }
    }
    assert_eq!(m.commit_slot(SlotId(0)) + m.commit_slot(SlotId(1)), 32);
    assert_eq!(m.squash_slot(SlotId(2)) + m.squash_slot(SlotId(3)), 32);
}

#[test]
fn wrtx_id_table_keeps_its_allocation() {
    let mut m = NodeMemory::new(&MemParams::default(), 5);
    tag_commit_squash(&mut m, 0);
    let (allocs, ()) = counted(|| (1..50).for_each(|round| tag_commit_squash(&mut m, round)));
    assert_eq!(
        allocs, 0,
        "tag, commit and squash cycles made {allocs} allocations"
    );
    assert_eq!(m.speculative_lines(), 0);
}
