//! The experiment harness's own helpers: Fig 9 comparison rows, the
//! geometric mean behind every "average speedup" row, and the driver
//! flag parser that must reject a value it cannot use instead of
//! silently falling back to a default.

use hades::core::runner::{compare_protocols, geomean, Experiment};
use hades::workloads::catalog::AppId;
use hades_bench::parse_flag;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn comparison_row_normalizes_to_baseline() {
    let ex = Experiment {
        warmup: 20,
        measure: 200,
        ..Experiment::quick()
    };
    let row = compare_protocols(AppId::parse("Smallbank").unwrap(), &ex);
    let sp = row.speedups();
    assert_eq!(sp[0], 1.0);
    assert!(sp[1] > 0.0 && sp[2] > 0.0);
}

#[test]
fn geomean_is_correct() {
    assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
}

#[test]
fn flag_values_parse_or_are_rejected() {
    let argv = args(&["bench", "--batch", "16", "--threshold", "1O", "--seed"]);
    assert_eq!(parse_flag::<u32>(&argv, "--batch"), Ok(Some(16)));
    assert_eq!(parse_flag::<u32>(&argv, "--smoke"), Ok(None));
    let bad = parse_flag::<f64>(&argv, "--threshold").unwrap_err();
    assert!(bad.contains("--threshold") && bad.contains("1O"), "{bad}");
    let missing = parse_flag::<u64>(&argv, "--seed").unwrap_err();
    assert!(missing.contains("--seed"), "{missing}");
}
