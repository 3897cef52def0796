//! Invariant tests for the differential fuzzer's delta-debugging
//! minimizer, plus the end-to-end planted-divergence acceptance chain:
//! sabotage → find → minimize → repro dir → replay.

use odc_core::parse_schema;
use odc_fuzz::{minimize_with, replay, run_fuzz, FuzzCase, FuzzConfig, Pair};
use odc_workload::case_for;
use std::path::PathBuf;

/// A non-degenerate corpus case to minimize against.
fn sample_case(seed: u64) -> FuzzCase {
    for id in 0..12 {
        if let Ok(cc) = case_for(seed, id) {
            if let Ok(case) = FuzzCase::from_corpus(&cc) {
                if case.queries.len() > 1 {
                    return case;
                }
            }
        }
    }
    panic!("no usable corpus draw for seed {seed}");
}

fn fingerprint(case: &FuzzCase) -> (String, Vec<String>) {
    (
        case.schema_text.clone(),
        case.queries.iter().map(|q| q.to_string()).collect(),
    )
}

/// Minimization is a pure function of the case and the predicate: two
/// runs with the same inputs produce byte-identical results.
#[test]
fn minimizer_deterministic_for_fixed_seed() {
    for seed in [2002u64, 7, 41] {
        let case = sample_case(seed);
        let a = minimize_with(&case, &mut |_| true);
        let b = minimize_with(&case, &mut |_| true);
        assert_eq!(fingerprint(&a), fingerprint(&b), "seed {seed}");
    }
}

/// Minimizing an already-minimal case is a no-op.
#[test]
fn minimizer_idempotent() {
    for seed in [2002u64, 7, 41] {
        let case = sample_case(seed);
        let once = minimize_with(&case, &mut |_| true);
        let twice = minimize_with(&once, &mut |_| true);
        assert_eq!(fingerprint(&once), fingerprint(&twice), "seed {seed}");
    }
}

/// Every candidate the minimizer even *tries* — including the ones it
/// rejects — parses as a C1–C7 well-formed schema and keeps the bottom
/// category, so the interestingness predicate never sees garbage.
#[test]
fn minimizer_candidates_all_well_formed() {
    let case = sample_case(2002);
    let bottom = case.bottom.clone();
    let mut seen = Vec::new();
    let result = minimize_with(&case, &mut |c| {
        seen.push(c.schema_text.clone());
        true
    });
    assert!(!seen.is_empty(), "predicate never consulted");
    for (i, text) in seen.iter().enumerate() {
        let ds = parse_schema(text)
            .unwrap_or_else(|e| panic!("candidate {i} failed to parse: {e}\n{text}"));
        assert!(
            ds.hierarchy().category_by_name(&bottom).is_some(),
            "candidate {i} lost the bottom category {bottom}"
        );
    }
    // The always-failing predicate drives maximal reduction: a single
    // query survives and the schema shrank (or was already minimal).
    assert_eq!(result.queries.len(), 1);
    assert!(result.schema_text.len() <= case.schema_text.len());
}

/// An uninteresting case comes back unchanged.
#[test]
fn minimizer_rejects_uninteresting_case() {
    let case = sample_case(2002);
    let out = minimize_with(&case, &mut |_| false);
    assert_eq!(fingerprint(&out), fingerprint(&case));
}

/// The full acceptance chain on the planted oracle fault: the
/// driver finds the divergence, minimizes it, writes a self-contained
/// repro directory, and `replay` confirms the divergence from the
/// files on disk alone.
#[test]
fn planted_divergence_found_minimized_and_replayed() {
    let repro_base: PathBuf =
        std::env::temp_dir().join(format!("odc-fuzz-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&repro_base);
    let report = run_fuzz(&FuzzConfig {
        seed: 2002,
        cases: 2,
        pairs: vec![Pair::TrailFrozen],
        sabotage: true,
        repro_dir: Some(repro_base.clone()),
        ..FuzzConfig::default()
    });
    assert!(
        !report.divergences.is_empty(),
        "sabotage went unnoticed: {:?}",
        report.notes
    );
    for d in &report.divergences {
        assert_eq!(d.pair, Pair::TrailFrozen);
        assert_eq!(d.kind.name(), "verdict");
    }
    assert_eq!(report.repro_dirs.len(), report.divergences.len());
    for dir in &report.repro_dirs {
        let out = replay(dir).unwrap_or_else(|e| panic!("replay {}: {e}", dir.display()));
        assert!(out.ok(), "repro {} did not replay: {out:?}", dir.display());
    }
    let _ = std::fs::remove_dir_all(&repro_base);
}

/// Without sabotage the same trail/oracle slice of the corpus is clean.
#[test]
fn clean_trail_frozen_sweep_has_no_divergences() {
    let report = run_fuzz(&FuzzConfig {
        seed: 2002,
        cases: 4,
        pairs: vec![Pair::TrailFrozen],
        minimize: false,
        ..FuzzConfig::default()
    });
    assert!(report.cases_run > 0);
    assert!(
        report.divergences.is_empty(),
        "clean sweep diverged: {:?}",
        report.divergences
    );
}
