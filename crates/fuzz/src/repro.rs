//! Self-contained repro directories. A repro is a directory of plain
//! text files — schema, query battery, metadata, expected verdicts —
//! that `odc fuzz --replay <dir>` re-executes without the original
//! seed, corpus engine, or even the generator being present:
//!
//! * `schema.txt` — the (minimized) schema in `parse_schema` syntax.
//! * `queries.txt` — one [`Query`] per line.
//! * `case.txt` — `key=value` metadata: seed, case id, axis, label,
//!   bottom, pair (or `all`), sabotage, and the divergence kind for
//!   divergence repros.
//! * `expected.txt` — `query => verdict` lines from the canonical
//!   executor (trail kernel, default options).
//! * `divergence.txt` — divergence repros only: kind, query, and both
//!   sides' observations at write time.
//! * `cmd.txt` — how to re-run by hand.
//!
//! The shipped `corpus/v1/` regression corpus uses the same format with
//! no `divergence.txt`: replay runs every pair and must come back
//! divergence-free with the expected verdicts intact.

use crate::case::{FuzzCase, Query};
use crate::diff::{first_divergence, Divergence, Pair};
use crate::exec::{answer_direct, PairContext, ServerHarness};
use odc_core::dimsat::DimsatOptions;
use std::io;
use std::path::Path;

/// A repro directory, parsed back into memory.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The textual case (id/axis/label/bottom from `case.txt`).
    pub case: FuzzCase,
    /// The diverging pair, or `None` for run-every-pair corpus entries.
    pub pair: Option<Pair>,
    /// Corpus seed the case was drawn under (provenance only).
    pub seed: u64,
    /// Whether the planted-divergence sabotage switch was on.
    pub sabotage: bool,
    /// Divergence kind for divergence repros.
    pub divergence: Option<String>,
    /// `query => verdict` expectations from the canonical executor.
    pub expected: Vec<(String, String)>,
}

/// Computes the canonical expected verdicts for a case (the trail
/// kernel under default options — the reference side of every pair).
pub fn expected_verdicts(case: &FuzzCase) -> Result<Vec<(String, String)>, String> {
    let ds = case.schema()?;
    Ok(case
        .queries
        .iter()
        .map(|q| {
            (
                q.to_string(),
                answer_direct(&ds, q, DimsatOptions::default()).verdict,
            )
        })
        .collect())
}

/// Writes a divergence repro: the minimized case, the pair, and what
/// both sides said.
pub fn write_divergence_repro(
    dir: &Path,
    case: &FuzzCase,
    pair: Pair,
    seed: u64,
    sabotage: bool,
    div: &Divergence,
) -> io::Result<()> {
    write_common(dir, case, Some(pair), seed, sabotage, Some(div))
}

/// Writes a regression-corpus entry: no divergence, replay runs every
/// pair and checks the expected verdicts.
pub fn write_corpus_entry(dir: &Path, case: &FuzzCase, seed: u64) -> io::Result<()> {
    write_common(dir, case, None, seed, false, None)
}

fn write_common(
    dir: &Path,
    case: &FuzzCase,
    pair: Option<Pair>,
    seed: u64,
    sabotage: bool,
    div: Option<&Divergence>,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("schema.txt"), &case.schema_text)?;
    let queries: String = case
        .queries
        .iter()
        .map(|q| format!("{q}\n"))
        .collect();
    std::fs::write(dir.join("queries.txt"), queries)?;
    let mut meta = format!(
        "seed={seed}\ncase_id={}\naxis={}\nlabel={}\nbottom={}\npair={}\nsabotage={}\n",
        case.id,
        case.axis,
        case.label,
        case.bottom,
        pair.map(|p| p.name()).unwrap_or("all"),
        u8::from(sabotage),
    );
    if let Some(d) = div {
        meta.push_str(&format!("divergence={}\n", d.kind.name()));
    }
    std::fs::write(dir.join("case.txt"), meta)?;
    let expected = expected_verdicts(case)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let expected_text: String = expected
        .iter()
        .map(|(q, v)| format!("{q} => {v}\n"))
        .collect();
    std::fs::write(dir.join("expected.txt"), expected_text)?;
    if let Some(d) = div {
        std::fs::write(
            dir.join("divergence.txt"),
            format!(
                "kind: {}\nquery: {}\nleft: {}\nright: {}\n",
                d.kind.name(),
                d.query,
                d.left,
                d.right
            ),
        )?;
    }
    let cmd = format!(
        "# Re-execute this repro (from the repository root):\n\
         #   odc fuzz --replay {}\n\
         # The schema is schema.txt ({} syntax); the battery is queries.txt.\n",
        dir.display(),
        "odc_core::parse_schema",
    );
    std::fs::write(dir.join("cmd.txt"), cmd)?;
    Ok(())
}

/// Parses a repro directory back into memory.
pub fn read_repro(dir: &Path) -> io::Result<Repro> {
    let bad = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let schema_text = std::fs::read_to_string(dir.join("schema.txt"))?;
    let queries_text = std::fs::read_to_string(dir.join("queries.txt"))?;
    let meta_text = std::fs::read_to_string(dir.join("case.txt"))?;
    let mut queries = Vec::new();
    for line in queries_text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        queries.push(
            Query::parse(line).ok_or_else(|| bad(format!("bad query line `{line}`")))?,
        );
    }
    let get = |key: &str| -> Option<String> {
        meta_text.lines().find_map(|l| {
            l.strip_prefix(key)
                .and_then(|r| r.strip_prefix('='))
                .map(|v| v.to_string())
        })
    };
    let seed = get("seed").and_then(|v| v.parse().ok()).unwrap_or(0);
    let case_id = get("case_id").and_then(|v| v.parse().ok()).unwrap_or(0);
    let bottom = get("bottom").ok_or_else(|| bad("case.txt missing bottom=".into()))?;
    let pair = match get("pair").as_deref() {
        None | Some("all") => None,
        Some(name) => Some(
            Pair::parse(name).ok_or_else(|| bad(format!("unknown pair `{name}`")))?,
        ),
    };
    let sabotage = get("sabotage").as_deref() == Some("1");
    let divergence = get("divergence");
    let mut expected = Vec::new();
    if let Ok(text) = std::fs::read_to_string(dir.join("expected.txt")) {
        for line in text.lines() {
            if let Some((q, v)) = line.split_once(" => ") {
                expected.push((q.trim().to_string(), v.trim().to_string()));
            }
        }
    }
    Ok(Repro {
        case: FuzzCase {
            id: case_id,
            axis: get("axis").unwrap_or_default(),
            label: get("label").unwrap_or_default(),
            schema_text,
            bottom,
            queries,
        },
        pair,
        seed,
        sabotage,
        divergence,
        expected,
    })
}

/// What a replay observed.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The divergence kind the repro promised, if any.
    pub expected_divergence: Option<String>,
    /// Divergences observed during the replay.
    pub divergences: Vec<Divergence>,
    /// `query: expected X, got Y` mismatches against `expected.txt`.
    pub verdict_mismatches: Vec<String>,
    /// Pairs actually exercised.
    pub pairs_run: Vec<Pair>,
}

impl ReplayOutcome {
    /// A divergence repro replays OK when it still diverges; a corpus
    /// entry replays OK when nothing diverges and every canonical
    /// verdict matches.
    pub fn ok(&self) -> bool {
        match self.expected_divergence {
            Some(_) => !self.divergences.is_empty(),
            None => self.divergences.is_empty() && self.verdict_mismatches.is_empty(),
        }
    }
}

/// Re-executes a repro directory: divergence repros run their recorded
/// pair (under the recorded sabotage switch) and must diverge again;
/// corpus entries run every pair divergence-free and must reproduce the
/// canonical verdicts.
pub fn replay(dir: &Path) -> Result<ReplayOutcome, String> {
    let repro = read_repro(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let pairs: Vec<Pair> = match repro.pair {
        Some(p) => vec![p],
        None => Pair::ALL.to_vec(),
    };
    let scratch = std::env::temp_dir().join(format!("odc-replay-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let server = if pairs.contains(&Pair::ServeCli) {
        ServerHarness::start().ok()
    } else {
        None
    };
    let ctx = PairContext {
        sabotage: repro.sabotage,
        jobs: 3,
        scratch: &scratch,
        server: server.as_ref(),
    };
    let mut out = ReplayOutcome {
        expected_divergence: repro.divergence.clone(),
        divergences: Vec::new(),
        verdict_mismatches: Vec::new(),
        pairs_run: Vec::new(),
    };
    for &pair in &pairs {
        if pair == Pair::ServeCli && server.is_none() {
            continue;
        }
        out.pairs_run.push(pair);
        if let Some(d) = first_divergence(pair, &repro.case, &ctx) {
            out.divergences.push(d);
        }
    }
    if !repro.expected.is_empty() {
        let fresh = expected_verdicts(&repro.case)?;
        for ((q, want), (_, got)) in repro.expected.iter().zip(&fresh) {
            if want != got {
                out.verdict_mismatches
                    .push(format!("{q}: expected {want}, got {got}"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(out)
}
