//! The experiment harness's own helpers: Fig 9 comparison rows, the
//! geometric mean behind every "average speedup" row, the driver flag
//! parser that must reject a value it cannot use instead of silently
//! falling back to a default, the table and number formatting, and the
//! golden check that pins every simulated export.

use hades::core::runner::{compare_protocols, geomean, Experiment};
use hades::workloads::catalog::AppId;
use hades_bench::golden::{Golden, RERECORD};
use hades_bench::harness::WORKLOADS;
use hades_bench::{fmt_pct, fmt_x, parse_flag, print_table};
use std::path::{Path, PathBuf};

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
    let argv = args(&["bench", "--batch", "16", "--loss", "1O", "--seed"]);
    assert_eq!(parse_flag::<u32>(&argv, "--batch"), Ok(Some(16)));
    assert_eq!(parse_flag::<u32>(&argv, "--smoke"), Ok(None));
    let bad = parse_flag::<f64>(&argv, "--loss").unwrap_err();
    assert!(bad.contains("--loss") && bad.contains("1O"), "{bad}");
    let missing = parse_flag::<u64>(&argv, "--seed").unwrap_err();
    assert!(missing.contains("--seed"), "{missing}");
}

#[test]
fn workload_labels_are_stable() {
    assert_eq!(WORKLOADS[0].label(), "TATP");
    assert_eq!(WORKLOADS[2].label(), "HT-wA@0.99");
    assert_eq!(WORKLOADS[5].label(), "HT-wB@0.60");
}

#[test]
fn formatting_helpers() {
    assert_eq!(fmt_x(2.7), "2.70x");
    assert_eq!(fmt_pct(0.0004), "0.040%");
}

#[test]
fn table_printer_does_not_panic() {
    print_table(
        "smoke",
        &["a", "bb"],
        &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
    );
}

/// A fresh tree under `CARGO_TARGET_TMPDIR` (`<name>/repo`, with
/// `committed` files) and a `Golden` over it whose observed copies go
/// to `<name>/tmp/golden`, away from the suite's own.
fn scratch(name: &str, committed: &[(&str, &str)]) -> (PathBuf, Golden) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("golden-check")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    for (path, bytes) in committed {
        let file = dir.join("repo").join(path);
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(file, bytes).unwrap();
    }
    let golden = Golden::new(dir.join("repo"), dir.join("tmp"));
    (dir, golden)
}

#[test]
fn a_moved_number_is_named_by_its_json_path() {
    let old =
        r#"{"committed":300,"cells":[{"workload":"TATP","p99_us":41.5}],"aborts":{"lock":2}}"#;
    let new =
        r#"{"committed":300,"cells":[{"workload":"TATP","p99_us":41.25}],"aborts":{"lock":2}}"#;
    let (dir, mut golden) = scratch("moved", &[("a/same.json", old), ("a/moved.json", old)]);
    assert!(golden.check("a/same.json", old));
    assert!(!golden.check("a/moved.json", new));
    let moved = "a/moved.json moved:\n    cells[0 TATP].p99_us: 41.5 -> 41.25";
    assert_eq!(golden.failures(), [moved]);
    let finished = std::panic::catch_unwind(move || golden.finish());
    let message = *finished.unwrap_err().downcast::<String>().unwrap();
    assert!(
        message.contains(moved) && message.contains(RERECORD),
        "{message}"
    );
    // The committed file is untouched; the observed bytes are beside it.
    let read = |path: &str| std::fs::read_to_string(dir.join(path)).unwrap();
    assert_eq!(read("repo/a/moved.json"), old);
    assert_eq!(read("tmp/golden/a/moved.json"), new);
}

#[test]
fn a_missing_golden_fails_and_is_not_created() {
    let (dir, mut golden) = scratch("missing", &[]);
    assert!(!golden.check("b/new.json", "{}"));
    assert_eq!(golden.failures(), ["b/new.json: no committed golden"]);
    assert!(!dir.join("repo/b/new.json").exists());
    assert_eq!(
        std::fs::read_to_string(dir.join("tmp/golden/b/new.json")).unwrap(),
        "{}"
    );
}
