//! Tiny-size runs of the benchmark binary: every metric named in
//! `BENCHMARK.json` is printed with its unit, and a wrong answer-key
//! entry is counted as a failed operation rather than passed.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_campaign_e2e");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section end")];
    let field = |obj: &str, key: &str| {
        let rest = &obj[obj.find(&format!("\"{key}\"")).expect(key) + key.len() + 2..];
        let rest = &rest[rest.find('"').expect("value") + 1..];
        rest[..rest.find('"').expect("value end")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// Runs the binary and returns its stdout and the result line.
fn run(args: &[&str]) -> (String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run benchmark");
    assert!(out.status.success(), "exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("result line").to_string();
    (stdout, last)
}

fn count(result: &str, key: &str) -> u64 {
    let rest = &result[result.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4..];
    rest[..rest.find(',').expect("count end")]
        .parse()
        .expect("count")
}

fn assert_metrics(result: &str, metrics: &[(String, String)]) {
    assert!(!metrics.is_empty());
    for (name, unit) in metrics {
        let at = result
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{name} missing from {result}"));
        let obj = &result[at..];
        let obj = &obj[..obj.find('}').expect("metric end")];
        assert!(
            obj.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} lacks unit {unit}: {obj}"
        );
    }
}

#[test]
fn tiny_runs_print_every_named_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in ["campaign_cold", "campaign_warm", "campaign_evolve"] {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let (stdout, result) = run(&[
                "--workload",
                workload,
                "--seconds",
                "0.1",
                "--limit",
                "6",
                "--trace",
                trace,
            ]);
            assert!(result.starts_with("{\"correct\": true"), "{stdout}");
            assert_eq!(count(&result, "failed"), 0, "{stdout}");
            assert!(count(&result, "attempted") >= 6, "{result}");
            assert_metrics(&result, metrics);
        }
    }
}

#[test]
fn corrupted_answer_key_entry_counts_as_failed() {
    let key = include_str!("../answer_key.tsv");
    let victim = "campaign_cold\tmatmul_chain\tMapTilingNoRemainder\t";
    let mut corrupted = 0;
    let text: String = key
        .lines()
        .map(|line| {
            if corrupted == 0 && line.starts_with(victim) {
                corrupted += 1;
                let (head, label) = line.rsplit_once('\t').expect("label");
                let wrong = if label == "ok" { "crash" } else { "ok" };
                format!("{head}\t{wrong}\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    assert_eq!(corrupted, 1, "no key entry to corrupt");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted_key.tsv");
    std::fs::write(&path, text).expect("write key");

    let (stdout, result) = run(&[
        "--workload",
        "campaign_cold",
        "--seconds",
        "0.1",
        "--limit",
        "9",
        "--key",
        path.to_str().expect("path"),
    ]);
    assert!(result.starts_with("{\"correct\": false"), "{stdout}");
    // Every pass counts the instance once: each seed's set-up pass and
    // every timed pass.
    let seeds = stdout
        .lines()
        .find_map(|l| l.split_once("seeds [")?.1.split_once(']'))
        .map(|(list, _)| list.split(',').count())
        .expect("seed list");
    let timed = stdout.lines().filter(|l| l.starts_with("pass ")).count();
    assert_eq!(count(&result, "failed") as usize, seeds + timed, "{stdout}");
    assert!(stdout.contains("FAILED: matmul_chain / MapTilingNoRemainder"));
}
