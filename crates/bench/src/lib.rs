//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's evaluation (§6): it prints a markdown table plus an ASCII
//! chart to stdout and writes the raw series as CSV into `results/`.
//! `--full` switches from the quick default to paper-length runs.

use std::path::PathBuf;

/// Where generators drop their CSVs (created on demand): `results/`, or
/// the directory named by `SMARTVLC_RESULTS`.
pub fn results_dir() -> PathBuf {
    results_dir_in(std::env::var_os("SMARTVLC_RESULTS").map(PathBuf::from))
}

/// [`results_dir`] with the `SMARTVLC_RESULTS` override passed as a value.
fn results_dir_in(dir: Option<PathBuf>) -> PathBuf {
    let dir = dir.unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// True when the binary was invoked with `--full` (paper-length runs).
pub fn full_run() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Per-point simulated duration: quick by default, paper-length with
/// `--full` (the paper uses 30 s per marker in Fig. 16).
pub fn point_duration() -> desim::SimDuration {
    if full_run() {
        desim::SimDuration::secs(30)
    } else {
        desim::SimDuration::secs(2)
    }
}

/// Format a float column.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Re-indent every line after the first of a serialized JSON block by
/// `pad`, so it can be embedded as a value inside a larger hand-rolled
/// JSON document without breaking its indentation.
pub fn indent_json(json: &str, pad: &str) -> String {
    json.trim_end()
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("{pad}{l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_created() {
        let want = std::env::temp_dir()
            .join(format!("svlc_results_{}", std::process::id()))
            .join("nested");
        let d = results_dir_in(Some(want.clone()));
        assert_eq!(d, want);
        assert!(d.is_dir());
        std::fs::remove_dir_all(want.parent().unwrap()).unwrap();
    }

    #[test]
    fn formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
    }
}
