//! The benchmark's own contract: a short run of each workload prints every
//! metric `BENCHMARK.json` names, with its unit, and a corrupted or failed
//! read fails the output check.

use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 2] = ["wire-kv", "inproc-sessions"];

fn run(args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-contract");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Command::new(env!("CARGO_BIN_EXE_terp-perfbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("benchmark runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("value") + 1;
        let close = open + rest[open..].find('"').expect("value end");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn check_prints_declared(workload: &str, trace: &str, section: &str) {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    let line = last_line(&out);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
        let rest = &line[at + entry.len()..];
        let (value, rest) = rest.split_once(',').expect("value then unit");
        let value: f64 = value.parse().expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
            "{workload}: {name} lacks unit {unit}: {rest}"
        );
    }
    assert_eq!(
        line.matches("\"value\"").count(),
        metrics.len(),
        "{workload}: exactly the declared metrics"
    );
}

#[test]
fn short_runs_print_every_end_to_end_metric() {
    for w in WORKLOADS {
        check_prints_declared(w, "0", "end_to_end");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    for w in WORKLOADS {
        check_prints_declared(w, "1", "per_layer");
    }
}

/// Runs every workload with a fault injected into its 50th read and checks
/// that the run fails with `expect` among its problems.
fn fault_fails_the_run(flag: &str, expect: &str) {
    for w in WORKLOADS {
        let out = run(&[
            "--workload",
            w,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            flag,
            "50",
        ]);
        assert_eq!(out.status.code(), Some(1), "{w} must fail");
        let line = last_line(&out);
        assert!(line.starts_with("{\"correct\": false"), "{w}: {line}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(expect), "{w}: {stdout}");
    }
}

#[test]
fn corrupted_read_fails_the_output_check() {
    fault_fails_the_run("--corrupt-read", "fill bytes corrupted");
}

#[test]
fn failed_read_fails_the_output_check() {
    fault_fails_the_run("--fail-read", "injected read error");
}

#[test]
fn bad_usage_exits_2_without_a_result() {
    let out = run(&["--workload", "no-such-workload"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!last_line(&out).starts_with('{'));
}
