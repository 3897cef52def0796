//! Determinism self-test: each workload's traced run, twice at a small
//! size with one seed, must count exactly the same work; a second seed
//! must change the generated inputs.
//!
//! Needs an `odc` binary: `ODC_BIN` names one, or the test builds it from
//! the repository into its own target directory.

use odc_perfbench::report::{is_exact_count, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn odc_binary() -> PathBuf {
    if let Some(p) = std::env::var_os("ODC_BIN") {
        return PathBuf::from(p);
    }
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("odc-build");
    let status = Command::new("cargo")
        .args([
            "build",
            "--offline",
            "--release",
            "--quiet",
            "--bin",
            "odc",
            "--manifest-path",
        ])
        .arg(repo.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building odc failed");
    target.join("release").join("odc")
}

/// One small traced run: its per-layer metrics and its input digest.
fn traced(odc: &Path, workload: &str, seed: u64, work: &Path) -> (BTreeMap<String, f64>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_odc-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1", "--small", "--odc"])
        .arg(odc)
        .arg("--work")
        .arg(work)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
    let mut metrics = BTreeMap::new();
    let mut digest = String::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("metric ") {
            let mut w = rest.split_whitespace();
            let (name, _, value) = (w.next(), w.next(), w.next());
            if let (Some(n), Some(v)) = (name, value.and_then(|v| v.parse().ok())) {
                metrics.insert(n.to_string(), v);
            }
        }
        if let Some(d) = line.strip_prefix("provenance input_digest: ") {
            digest = d.to_string();
        }
    }
    assert_eq!(
        metrics.len(),
        PER_LAYER.len(),
        "{workload}: every per-layer metric is printed"
    );
    (metrics, digest)
}

#[test]
fn counts_repeat_and_seeds_change_inputs() {
    let odc = odc_binary();
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    for workload in ["audit", "serve", "store"] {
        let (a, da) = traced(&odc, workload, 7, &work);
        let (b, db) = traced(&odc, workload, 7, &work);
        assert_eq!(da, db, "{workload}: one seed must give one input");
        let counts: Vec<&String> = a.keys().filter(|k| is_exact_count(k)).collect();
        assert!(counts.len() >= 10, "{workload}: too few counts compared");
        for k in counts {
            assert_eq!(
                a[k], b[k],
                "{workload}: count {k} differs between two runs of seed 7"
            );
        }
        let (_, dc) = traced(&odc, workload, 8, &work);
        assert_ne!(
            da, dc,
            "{workload}: seed 8 must change the generated inputs"
        );
    }
}
