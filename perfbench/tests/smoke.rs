//! Smoke mode: every workload at a tiny size, untraced and traced, must
//! pass its checks and print every metric `BENCHMARK.json` names, with
//! the unit it declares.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (one metric object per line).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..text[start..].find(']').map_or(text.len(), |e| start + e)];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn workloads() -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find("\"workloads\"").expect("workloads listed");
    let end = start + text[start..].find(']').expect("workload list closes");
    text[start..end]
        .lines()
        .filter_map(|l| {
            let at = l.find("\"name\": \"")? + 9;
            Some(l[at..at + l[at..].find('"')?].to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let scratch = env!("CARGO_TARGET_TMPDIR");
    let names = workloads();
    assert_eq!(names.len(), 4, "four workloads declared");
    for workload in &names {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.6"])
                .args(["--trace", trace, "--scale", "0.05"])
                .env("CARGO_TARGET_DIR", scratch)
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            for (name, unit) in declared(section) {
                let printed = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&printed)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing in {last}"));
                let rest = &last[at + printed.len()..];
                let value = &rest[..rest.find(',').expect("value ends")];
                assert!(value.parse::<f64>().is_ok(), "{workload}: {name} = {value}");
                assert!(
                    rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")),
                    "{workload}: {name} printed without unit {unit}"
                );
            }
        }
    }
}
