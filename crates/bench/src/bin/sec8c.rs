//! Section VIII-C — characterizing the HADES hardware.
//!
//! Experiment 1: squashes caused by LLC evictions of speculatively written
//! lines, with every request forced to target the local node (maximum LLC
//! pressure) and the eviction-aware replacement policy. Paper: on average
//! only 0.1% of transactions are squashed by evictions (0.7% worst case,
//! TPC-C). We report the default-size LLC and, to exercise the mechanism
//! visibly, an artificially small LLC.
//!
//! Experiment 2: Bloom-filter false-positive conflict rates during normal
//! runs. Paper: 0.02% (HADES-H) and 0.04% (HADES) of conflict-detection
//! operations are false positives.
//!
//! Run: `cargo run --release -p hades-bench --bin sec8c [--quick]`

use hades_bench::{experiment_from_args, fmt_pct, print_table};
use hades_core::runner::{Protocol, Run};
use hades_workloads::catalog::AppId;

const APPS: [&str; 5] = ["TPC-C", "TATP", "Smallbank", "HT-wA", "BTree-wB"];

fn main() {
    let base_ex = experiment_from_args();

    // Experiment 1: all-local traffic, eviction pressure.
    let mut rows = Vec::new();
    // The pressure configuration shrinks the LLC *and* its associativity:
    // an eviction squash needs a whole set of speculatively written lines,
    // which a 16-way set essentially never accumulates (hence the paper's
    // 0.1% even with every request local).
    for (label, llc_per_core, ways) in [
        ("4MB/core 16-way (paper)", 4 << 20, 16),
        ("32KB/core 2-way (pressure)", 32 << 10, 2),
    ] {
        for app in APPS {
            let mut ex = base_ex.clone();
            ex.cfg = ex.cfg.with_local_fraction(1.0);
            ex.cfg.mem.llc_bytes_per_core = llc_per_core;
            ex.cfg.mem.llc_ways = ways;
            let s = Run::apps(Protocol::Hades, &ex, &[AppId::parse(app).unwrap()])
                .run()
                .stats;
            let attempts = s.committed + s.squashes;
            let frac = s.llc_eviction_squashes as f64 / attempts.max(1) as f64;
            rows.push(vec![
                label.to_string(),
                app.to_string(),
                s.llc_eviction_squashes.to_string(),
                attempts.to_string(),
                fmt_pct(frac),
            ]);
            eprintln!("  done: {label} {app}");
        }
    }
    print_table(
        "Sec VIII-C (1) — squashes from LLC evictions (100% local requests)",
        &["LLC size", "app", "evict squashes", "attempts", "fraction"],
        &rows,
    );
    println!("\nPaper: 0.1% of transactions on average (0.7% worst case, TPC-C) at the");
    println!("paper's LLC sizes; the pressure row exists to exercise the mechanism.");

    // Experiment 2: false-positive conflict rates in default runs.
    let mut rows = Vec::new();
    for p in [Protocol::HadesH, Protocol::Hades] {
        let mut checks = 0u64;
        let mut fps = 0u64;
        for app in APPS {
            let s = Run::apps(p, &base_ex, &[AppId::parse(app).unwrap()])
                .run()
                .stats;
            checks += s.conflict_checks;
            fps += s.false_positive_conflicts;
        }
        rows.push(vec![
            p.label().into(),
            checks.to_string(),
            fps.to_string(),
            fmt_pct(fps as f64 / checks.max(1) as f64),
        ]);
        eprintln!("  done: {}", p.label());
    }
    print_table(
        "Sec VIII-C (2) — Bloom false-positive conflict rate",
        &["protocol", "conflict checks", "false positives", "rate"],
        &rows,
    );
    println!("\nPaper: 0.02% (HADES-H) and 0.04% (HADES).");
}
