//! The differential driver: stream corpus cases, fan each across the
//! executor pairs, compare observations, record divergences, and (when
//! configured) minimize and persist repro directories.

use crate::case::FuzzCase;
use crate::exec::{run_pair, Observation, PairContext, PairError, ServerHarness};
use odc_core::obs::{FuzzEvent, Obs};
use odc_workload::case_for;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// An executor pair the driver can differentiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pair {
    /// Trail DIMSAT vs the exhaustive Theorem-3 frozen enumerator.
    TrailFrozen,
    /// Serial category sweep vs work-stealing parallel sweep.
    SerialJobs,
    /// Naive Theorem-1 battery vs plan-ordered battery.
    PlannedNoplan,
    /// Fresh solve vs fault-interrupted-then-resumed anytime solve.
    FaultResume,
    /// Plain audit vs verdict-repository audit, cold and warm.
    RepoWarmCold,
    /// Resident `odc serve` over a socket vs one-shot library call.
    ServeCli,
    /// Incremental delta validation vs full re-validation on streamed
    /// store ingest.
    IngestFull,
}

impl Pair {
    /// Every pair, in the order the driver runs them.
    pub const ALL: [Pair; 7] = [
        Pair::TrailFrozen,
        Pair::SerialJobs,
        Pair::PlannedNoplan,
        Pair::FaultResume,
        Pair::RepoWarmCold,
        Pair::ServeCli,
        Pair::IngestFull,
    ];

    /// Stable machine-readable name (CLI `--pairs` values, JSONL).
    pub fn name(self) -> &'static str {
        match self {
            Pair::TrailFrozen => "trail-frozen",
            Pair::SerialJobs => "serial-jobs",
            Pair::PlannedNoplan => "planned-noplan",
            Pair::FaultResume => "fault-resume",
            Pair::RepoWarmCold => "repo-warm-cold",
            Pair::ServeCli => "serve-cli",
            Pair::IngestFull => "ingest-full",
        }
    }

    /// Inverse of [`Pair::name`].
    pub fn parse(s: &str) -> Option<Pair> {
        Pair::ALL.iter().copied().find(|p| p.name() == s)
    }
}

impl fmt::Display for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How two observations disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Different verdict strings.
    Verdict,
    /// A witness/countermodel failed re-verification.
    Countermodel,
    /// An executor's own counters were incoherent.
    Stats,
    /// Same verdict family but different exit-code mapping.
    ExitCode,
    /// The server misdelivered a pipelined response.
    ProtocolDesync,
}

impl DivergenceKind {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::Verdict => "verdict",
            DivergenceKind::Countermodel => "countermodel",
            DivergenceKind::Stats => "stats",
            DivergenceKind::ExitCode => "exit-code",
            DivergenceKind::ProtocolDesync => "protocol-desync",
        }
    }

    /// Inverse of [`DivergenceKind::name`].
    pub fn parse(s: &str) -> Option<DivergenceKind> {
        [
            DivergenceKind::Verdict,
            DivergenceKind::Countermodel,
            DivergenceKind::Stats,
            DivergenceKind::ExitCode,
            DivergenceKind::ProtocolDesync,
        ]
        .into_iter()
        .find(|k| k.name() == s)
    }
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Corpus case id.
    pub case_id: u64,
    /// Corpus axis of the case.
    pub axis: String,
    /// The pair that disagreed.
    pub pair: Pair,
    /// How it disagreed.
    pub kind: DivergenceKind,
    /// The query (textual), or a synthetic label.
    pub query: String,
    /// Reference side's verdict (or desync detail).
    pub left: String,
    /// Alternate side's verdict (or desync detail).
    pub right: String,
}

/// Compares the two sides of one query; `None` means agreement.
/// Precedence: a verdict mismatch outranks witness and exit-code noise
/// (it subsumes them), an invalid witness outranks a mere exit-code
/// slip, stats incoherence is reported last.
///
/// An `unknown` on either side makes the cell non-comparable: the two
/// code paths legitimately split the same node budget differently
/// (parallel sweeps, plan ordering, anytime escalation), so a
/// decided-vs-undecided disagreement proves nothing. Invalid witnesses
/// and incoherent stats are still reported — an interrupted run has no
/// license to corrupt what it did produce.
pub fn compare(left: &Observation, right: &Observation) -> Option<DivergenceKind> {
    if left.verdict == "unknown" || right.verdict == "unknown" {
        if left.witness_valid == Some(false) || right.witness_valid == Some(false) {
            return Some(DivergenceKind::Countermodel);
        }
        if !left.stats_ok || !right.stats_ok {
            return Some(DivergenceKind::Stats);
        }
        return None;
    }
    if left.verdict != right.verdict {
        return Some(DivergenceKind::Verdict);
    }
    if left.witness_valid == Some(false) || right.witness_valid == Some(false) {
        return Some(DivergenceKind::Countermodel);
    }
    if left.exit_code != right.exit_code {
        return Some(DivergenceKind::ExitCode);
    }
    if !left.stats_ok || !right.stats_ok {
        return Some(DivergenceKind::Stats);
    }
    None
}

/// Driver configuration.
pub struct FuzzConfig {
    /// Corpus seed; the whole run is a pure function of it.
    pub seed: u64,
    /// How many corpus case ids to draw.
    pub cases: u64,
    /// Wall-clock cutoff for the whole run.
    pub time_limit: Option<Duration>,
    /// Which pairs to exercise.
    pub pairs: Vec<Pair>,
    /// Plant the test-only oracle corruption.
    pub sabotage: bool,
    /// Minimize failing cases before writing repros.
    pub minimize: bool,
    /// Where to write repro directories (`.odc-repro/`); `None` records
    /// divergences in the report only.
    pub repro_dir: Option<PathBuf>,
    /// Observer for `fuzz_case`/`fuzz_divergence` events.
    pub obs: Obs,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            cases: 32,
            time_limit: None,
            pairs: Pair::ALL.to_vec(),
            sabotage: false,
            minimize: true,
            repro_dir: None,
            obs: Obs::none(),
        }
    }
}

/// What a run found.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// The seed the run was driven by.
    pub seed: u64,
    /// Cases whose battery actually ran.
    pub cases_run: u64,
    /// Corpus draws skipped as degenerate (typed generation errors).
    pub skipped: u64,
    /// Cases per axis (the coverage histogram).
    pub axis_counts: BTreeMap<String, u64>,
    /// Pair executions (each counts once per case it ran on).
    pub pair_counts: BTreeMap<String, u64>,
    /// Every recorded disagreement.
    pub divergences: Vec<Divergence>,
    /// Repro directories written (aligned with leading divergences).
    pub repro_dirs: Vec<PathBuf>,
    /// Non-fatal driver notes (setup failures, skip reasons).
    pub notes: Vec<String>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl FuzzReport {
    /// Throughput in cases per second.
    pub fn cases_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.cases_run as f64 / secs
        } else {
            0.0
        }
    }
}

/// Runs the differential fuzzer: for each corpus id, build the textual
/// case, answer its battery through every configured pair, and compare.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let mut report = FuzzReport {
        seed: cfg.seed,
        ..FuzzReport::default()
    };
    let scratch = std::env::temp_dir().join(format!(
        "odc-fuzz-{}-{:x}",
        std::process::id(),
        cfg.seed
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        report.notes.push(format!("scratch dir: {e}"));
        report.elapsed = start.elapsed();
        return report;
    }
    let mut pairs = cfg.pairs.clone();
    let server = if pairs.contains(&Pair::ServeCli) {
        match ServerHarness::start() {
            Ok(s) => Some(s),
            Err(e) => {
                report.notes.push(format!("server start failed ({e}); serve-cli pair skipped"));
                pairs.retain(|&p| p != Pair::ServeCli);
                None
            }
        }
    } else {
        None
    };
    for id in 0..cfg.cases {
        if let Some(limit) = cfg.time_limit {
            if start.elapsed() >= limit {
                report.notes.push(format!("time limit hit after {id} ids"));
                break;
            }
        }
        let cc = match case_for(cfg.seed, id) {
            Ok(cc) => cc,
            Err(e) => {
                report.skipped += 1;
                report.notes.push(format!("case {id}: degenerate draw: {e}"));
                continue;
            }
        };
        let case = match FuzzCase::from_corpus(&cc) {
            Ok(c) => c,
            Err(e) => {
                // A failed round trip is itself a finding; surface loudly.
                report.divergences.push(Divergence {
                    case_id: id,
                    axis: cc.axis.name().to_string(),
                    pair: Pair::TrailFrozen,
                    kind: DivergenceKind::Verdict,
                    query: "schema round-trip".into(),
                    left: "parses".into(),
                    right: e,
                });
                continue;
            }
        };
        report.cases_run += 1;
        *report.axis_counts.entry(case.axis.clone()).or_insert(0) += 1;
        cfg.obs.fuzz(&FuzzEvent {
            phase: "case",
            case_id: id,
            axis: case.axis.clone(),
            pair: String::new(),
            detail: case.label.clone(),
        });
        let ctx = PairContext {
            sabotage: cfg.sabotage,
            jobs: 3,
            scratch: &scratch,
            server: server.as_ref(),
        };
        for &pair in &pairs {
            let found = run_case_pair(pair, &case, &ctx, &mut report);
            if let Some(div) = found {
                cfg.obs.fuzz(&FuzzEvent {
                    phase: "divergence",
                    case_id: id,
                    axis: case.axis.clone(),
                    pair: pair.name().to_string(),
                    detail: format!(
                        "{} on `{}`: left {} vs right {}",
                        div.kind, div.query, div.left, div.right
                    ),
                });
                if let Some(base) = &cfg.repro_dir {
                    let min_case = if cfg.minimize {
                        crate::minimize::minimize(&case, pair, &ctx)
                    } else {
                        case.clone()
                    };
                    let dir = base.join(format!("case{id}-{}", pair.name()));
                    match crate::repro::write_divergence_repro(
                        &dir, &min_case, pair, cfg.seed, cfg.sabotage, &div,
                    ) {
                        Ok(()) => report.repro_dirs.push(dir),
                        Err(e) => report.notes.push(format!("repro write failed: {e}")),
                    }
                }
                report.divergences.push(div);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    report.elapsed = start.elapsed();
    report
}

/// Runs one (case, pair) cell; returns the first divergence, if any.
/// Also used by the minimizer's interestingness predicate and replay.
pub fn first_divergence(pair: Pair, case: &FuzzCase, ctx: &PairContext<'_>) -> Option<Divergence> {
    scan(pair, case, ctx).ok().flatten()
}

/// The first divergence of one (case, pair) cell, or the setup error
/// that kept the pair from running.
fn scan(pair: Pair, case: &FuzzCase, ctx: &PairContext<'_>) -> Result<Option<Divergence>, String> {
    let divergence = |kind, query: String, left: String, right: String| Divergence {
        case_id: case.id,
        axis: case.axis.clone(),
        pair,
        kind,
        query,
        left,
        right,
    };
    match run_pair(pair, case, ctx) {
        Ok(results) => Ok(results.iter().find_map(|r| {
            compare(&r.left, &r.right).map(|kind| {
                divergence(kind, r.query.clone(), describe(&r.left), describe(&r.right))
            })
        })),
        Err(PairError::Desync {
            expected,
            got,
            status,
        }) => Ok(Some(divergence(
            DivergenceKind::ProtocolDesync,
            "pipeline".into(),
            format!("expected seq {expected}"),
            format!("got {got:?} (status `{status}`)"),
        ))),
        Err(PairError::Setup(e)) => Err(e),
    }
}

fn run_case_pair(
    pair: Pair,
    case: &FuzzCase,
    ctx: &PairContext<'_>,
    report: &mut FuzzReport,
) -> Option<Divergence> {
    match scan(pair, case, ctx) {
        Ok(found) => {
            *report
                .pair_counts
                .entry(pair.name().to_string())
                .or_insert(0) += 1;
            found
        }
        Err(e) => {
            report.notes.push(format!(
                "case {} pair {}: setup failed: {e}",
                case.id,
                pair.name()
            ));
            None
        }
    }
}

fn describe(o: &Observation) -> String {
    let mut s = format!("{} (exit {})", o.verdict, o.exit_code);
    if o.witness_valid == Some(false) {
        s.push_str(" [invalid witness]");
    }
    if !o.stats_ok {
        s.push_str(" [incoherent stats]");
    }
    if !o.note.is_empty() {
        s.push_str(&format!(" — {}", o.note));
    }
    s
}
