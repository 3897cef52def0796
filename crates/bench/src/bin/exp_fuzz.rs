//! E22: the differential-fuzzer experiments behind `BENCH_fuzz.json`.
//!
//! Two runs of the `odc-fuzz` driver over the adversarial corpus:
//!
//! 1. **clean sweep** — a fixed-seed batch across every executor pair.
//!    The stack is expected to agree with itself: zero divergences,
//!    every corpus axis represented, throughput recorded.
//! 2. **planted fault** — the same driver with the test-only clone
//!    kernel sabotage armed on the trail/clone pair. The fuzzer must
//!    find the divergence, delta-debug it to a minimized repro, and
//!    the repro must replay (the divergence reproduces from the files
//!    on disk alone).
//!
//! Reported: cases/sec, the per-axis coverage histogram, per-pair
//! execution counts, divergence totals for both runs, and the
//! sabotage find → minimize → replay chain.
//!
//! Run with: `cargo run --release -p odc-bench --bin exp_fuzz`
//! (`--smoke` or `ODC_BENCH_QUICK=1` for a small batch that leaves
//! `results/` untouched).

use odc_fuzz::{replay, run_fuzz, FuzzConfig, Pair};
use std::fmt::Write as _;

fn main() {
    let smoke =
        std::env::args().any(|a| a == "--smoke") || std::env::var_os("ODC_BENCH_QUICK").is_some();
    let (seed, cases) = if smoke { (2002u64, 6u64) } else { (2002u64, 48u64) };
    println!("E22 — differential fuzzer: seed={seed}, {cases} corpus ids, all pairs");

    // ── clean sweep across every pair ────────────────────────────────
    let clean = run_fuzz(&FuzzConfig {
        seed,
        cases,
        ..FuzzConfig::default()
    });
    let throughput = clean.cases_per_sec();
    println!(
        "  clean sweep           {} cases, {} skipped, {:.1} cases/s, {} divergence(s)",
        clean.cases_run,
        clean.skipped,
        throughput,
        clean.divergences.len()
    );
    for (axis, n) in &clean.axis_counts {
        println!("    axis {axis:<18} {n}");
    }
    for (pair, n) in &clean.pair_counts {
        println!("    pair {pair:<18} {n}");
    }

    // ── planted fault: find, minimize, replay ────────────────────────
    let repro_base = std::env::temp_dir().join(format!("odc-exp-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&repro_base);
    let sab = run_fuzz(&FuzzConfig {
        seed,
        cases: 3,
        pairs: vec![Pair::TrailFrozen],
        sabotage: true,
        repro_dir: Some(repro_base.clone()),
        ..FuzzConfig::default()
    });
    let mut replays_ok = 0usize;
    for dir in &sab.repro_dirs {
        match replay(dir) {
            Ok(out) if out.ok() => replays_ok += 1,
            Ok(out) => println!("    repro {} did NOT replay: {out:?}", dir.display()),
            Err(e) => println!("    repro {} unreadable: {e}", dir.display()),
        }
    }
    println!(
        "  planted fault         {} divergence(s), {} repro(s), {} replay(s) confirmed",
        sab.divergences.len(),
        sab.repro_dirs.len(),
        replays_ok
    );
    let _ = std::fs::remove_dir_all(&repro_base);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"E22 differential fuzzer\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"cases_requested\": {cases},");
    let _ = writeln!(json, "  \"cases_run\": {},", clean.cases_run);
    let _ = writeln!(json, "  \"cases_skipped\": {},", clean.skipped);
    let _ = writeln!(json, "  \"cases_per_sec\": {throughput:.2},");
    let _ = writeln!(json, "  \"clean_divergences\": {},", clean.divergences.len());
    let axes: Vec<String> = clean
        .axis_counts
        .iter()
        .map(|(a, n)| format!("\"{a}\": {n}"))
        .collect();
    let _ = writeln!(json, "  \"axis_coverage\": {{{}}},", axes.join(", "));
    let pairs: Vec<String> = clean
        .pair_counts
        .iter()
        .map(|(p, n)| format!("\"{p}\": {n}"))
        .collect();
    let _ = writeln!(json, "  \"pair_executions\": {{{}}},", pairs.join(", "));
    let _ = writeln!(json, "  \"sabotage_divergences\": {},", sab.divergences.len());
    let _ = writeln!(json, "  \"sabotage_repros\": {},", sab.repro_dirs.len());
    let _ = writeln!(json, "  \"sabotage_replays_confirmed\": {replays_ok}");
    json.push_str("}\n");

    let mut failures = Vec::new();
    if !clean.divergences.is_empty() {
        failures.push(format!(
            "clean sweep found {} divergence(s)",
            clean.divergences.len()
        ));
    }
    if clean.axis_counts.len() < 6 {
        failures.push(format!(
            "only {} of 6 corpus axes covered",
            clean.axis_counts.len()
        ));
    }
    if clean.pair_counts.len() < 6 {
        failures.push(format!(
            "only {} of 6 pairs executed",
            clean.pair_counts.len()
        ));
    }
    if sab.divergences.is_empty() {
        failures.push("sabotage run found no divergence".into());
    }
    if replays_ok == 0 || replays_ok != sab.repro_dirs.len() {
        failures.push(format!(
            "{replays_ok}/{} sabotage repros replayed",
            sab.repro_dirs.len()
        ));
    }

    if smoke {
        // The small batch may not reach every axis (ids cycle six
        // axes but degenerate draws are skipped); the divergence
        // discipline still holds.
        assert!(
            clean.divergences.is_empty(),
            "clean sweep diverged in smoke run"
        );
        assert!(
            !sab.divergences.is_empty() && replays_ok == sab.repro_dirs.len(),
            "sabotage chain failed in smoke run"
        );
        println!("\nsmoke run: results/BENCH_fuzz.json left untouched");
        return;
    }

    let results = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let _ = std::fs::create_dir_all(&results);
    let path = format!("{results}/BENCH_fuzz.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
    if !failures.is_empty() {
        eprintln!("E22 FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
}
