//! Self-tests of the benchmark binary.
//!
//! `smoke_prints_every_metric` runs every workload at tiny size, untraced
//! and traced, and checks that each metric `BENCHMARK.json` names is
//! printed with its unit and that every output check passed.
//!
//! `unseen_seed_stays_within_bounds` (ignored by default: it runs the full
//! benchmark for about six minutes) checks that every end-to-end metric
//! on a seed not used while writing the benchmark stays within the
//! benchmark's bounds of the default seed's values:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored
//! ```

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");
const WORKLOADS: [&str; 4] = ["paper_sweep", "link_sampled", "net_mix", "cell_floor"];
const DEFAULT_SEED: &str = "17";
const UNSEEN_SEED: &str = "90210";

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `[...]` array that follows `"key":` in `text`.
fn array<'a>(text: &'a str, key: &str) -> &'a str {
    let at = text.find(&format!("\"{key}\"")).expect("key present");
    let open = at + text[at..].find('[').expect("array");
    let close = open + text[open..].find(']').expect("array end");
    &text[open + 1..close]
}

/// The string value of `"field": "..."` in each `{...}` object of `arr`.
fn fields(arr: &str, field: &str) -> Vec<String> {
    arr.split('}')
        .filter_map(|obj| {
            let key = format!("\"{field}\":");
            let at = obj.find(&key)? + key.len();
            let v = obj[at..].trim_start().strip_prefix('"')?;
            Some(v[..v.find('"')?].to_string())
        })
        .collect()
}

/// `(name, unit, bound)` of each metric in a `BENCHMARK.json` section.
fn metrics(section: &str) -> Vec<(String, String, Option<f64>)> {
    let json = benchmark_json();
    let arr = array(&json, section);
    let names = fields(arr, "name");
    let units = fields(arr, "unit");
    let bounds: Vec<Option<f64>> = arr
        .split('}')
        .filter(|o| o.contains("\"name\""))
        .map(|o| {
            let at = o.find("\"bound\":")? + 8;
            let v = o[at..].trim_start();
            let end = v
                .find(|c: char| c != '.' && !c.is_ascii_digit())
                .unwrap_or(v.len());
            v[..end].parse().ok()
        })
        .collect();
    assert_eq!(names.len(), units.len());
    names
        .into_iter()
        .zip(units)
        .zip(bounds)
        .map(|((n, u), b)| (n, u, b))
        .collect()
}

/// Run the binary; returns the JSON result lines.
fn run(args: &[&str]) -> Vec<String> {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "perfbench {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(str::to_string)
        .collect()
}

/// The value of metric `name` in a result line, checking its unit.
fn value(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("metric {name} missing from {line}"))
        + key.len();
    let rest = &line[at..];
    let end = rest.find(',').expect("value ends");
    let unit_field = format!("\"unit\": \"{unit}\"}}");
    assert!(
        rest[end..]
            .trim_start_matches(", ")
            .starts_with(&unit_field),
        "metric {name} is not printed with unit {unit}: {rest:.80}"
    );
    rest[..end].parse().expect("numeric value")
}

#[test]
fn benchmark_json_names_the_workloads() {
    let json = benchmark_json();
    let names = fields(array(&json, "workloads"), "name");
    assert_eq!(names, WORKLOADS);
}

#[test]
fn smoke_prints_every_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let lines = run(&["--smoke", "--trace", trace]);
        assert_eq!(lines.len(), WORKLOADS.len(), "one result per workload");
        for line in &lines {
            assert!(line.starts_with("{\"correct\": true,"), "{line}");
            assert!(line.contains("\"failed\": 0,"), "{line}");
            for (name, unit, _) in metrics(section) {
                let v = value(line, &name, &unit);
                assert!(v.is_finite(), "{name} = {v}");
            }
        }
    }
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "1"],
        &["--trace", "2", "--smoke"],
        &["--write-reference", "--smoke"],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "no result on bad arguments");
    }
}

#[test]
#[ignore = "runs the full benchmark for several minutes; use --release -- --ignored"]
fn unseen_seed_stays_within_bounds() {
    let e2e = metrics("end_to_end");
    for w in WORKLOADS {
        // Alternate the seeds so both see the same host conditions.
        let mut samples: [Vec<String>; 2] = Default::default();
        for _ in 0..3 {
            for (k, seed) in [DEFAULT_SEED, UNSEEN_SEED].into_iter().enumerate() {
                let line = run(&[
                    "--workload",
                    w,
                    "--seed",
                    seed,
                    "--seconds",
                    "10",
                    "--trace",
                    "0",
                ]);
                samples[k].push(line.last().expect("a result").clone());
            }
        }
        for (name, unit, bound) in &e2e {
            let med = |lines: &[String]| {
                let mut v: Vec<f64> = lines.iter().map(|l| value(l, name, unit)).collect();
                v.sort_by(f64::total_cmp);
                v[v.len() / 2]
            };
            let (base, other) = (med(&samples[0]), med(&samples[1]));
            let bound = bound.expect("end-to-end metrics carry a bound");
            let rel = (other - base).abs() / base;
            assert!(
                rel <= bound,
                "{w}: {name} on seed {UNSEEN_SEED} = {other} vs {base} on seed {DEFAULT_SEED} \
                 ({rel:.3} > bound {bound})"
            );
        }
    }
}
