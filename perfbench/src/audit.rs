//! `audit`: one-shot reasoning commands over a seeded schema corpus.
//!
//! Each round runs a cold pass — `odc check --jobs 2` plus the schema's
//! `implies` / `summarizable` / `frozen` battery, every command against
//! one fresh `--repo` — then applies a seeded one-constraint edit to each
//! schema and re-audits it against the same repository. Every command
//! gets the same `--node-limit` and never a `--time-limit`, so the work
//! and the answered/unknown split repeat exactly. DIMSAT, frozen
//! enumeration, summarizability, the planner and the verdict repository
//! do the work; the store and the server do none.

use crate::report::{digest, Report};
use crate::stats::{median, percentile, ratio, secs_ms, supports};
use crate::sys::{self, CliRun};
use crate::trace::Tracer;
use crate::Config;
use odc_core::dimsat::{AnytimeDriver, ImplicationCache};
use odc_core::parse_schema;
use odc_core::prelude::*;
use odc_core::repo::{self as vrepo, VerdictRepo};
use odc_core::summarizability::{advisor, summarizability_constraints};
use odc_fuzz::case::Query;
use odc_fuzz::FuzzCase;
use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Search nodes per command. Fixed, so a command's work does not depend
/// on how fast the host runs.
const NODE_LIMIT: u64 = 50_000;
/// Parallel jobs for `odc check`.
const JOBS: usize = 2;
/// Draws listing more frozen dimensions than this are skipped. Every
/// verdict, listings included, lands in the repository that each later
/// command re-reads, so one draw with thousands of frozen dimensions
/// (megabytes of payload) would turn the whole pass into repository I/O
/// and make the figures hinge on whether a seed happens to draw it.
const FROZEN_CAP: usize = 64;
/// Schemas in the corpus: each of the six corpus axes equally often.
const SCHEMAS: usize = 18;
const SCHEMAS_SMALL: usize = 6;
/// Set-up samples taken at the start of every round; `setup_s` is the
/// median of all of them in the run.
const SETUPS_PER_ROUND: usize = 6;
/// Corpus draws tried before giving up on filling the corpus.
const MAX_DRAWS: u64 = 400;

/// One reasoning command of the battery.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Cmd {
    Check,
    Implies(String),
    Summarizable(String, Vec<String>),
    Frozen(String),
}

impl Cmd {
    fn argv(&self, file: &str, repo: Option<&Path>) -> Vec<String> {
        let mut a: Vec<String> = match self {
            Cmd::Check => vec![
                "check".into(),
                file.into(),
                "--jobs".into(),
                JOBS.to_string(),
            ],
            Cmd::Implies(c) => vec!["implies".into(), file.into(), c.clone()],
            Cmd::Summarizable(t, s) => {
                let mut v = vec!["summarizable".into(), file.into(), t.clone()];
                v.extend(s.iter().cloned());
                v
            }
            Cmd::Frozen(r) => vec!["frozen".into(), file.into(), r.clone()],
        };
        if let Some(r) = repo {
            a.extend(["--repo".into(), r.display().to_string()]);
        }
        a.extend(["--node-limit".into(), NODE_LIMIT.to_string()]);
        a
    }
}

/// One corpus schema with its battery, its edit, and the answers the
/// in-process replay gave (the CLI must print the same).
struct Schema {
    label: String,
    text: String,
    edited: String,
    cmds: Vec<Cmd>,
    cold_expected: Vec<String>,
    reaudit_expected: String,
}

struct Corpus {
    schemas: Vec<Schema>,
    skipped: u64,
}

/// A replayed command's printed text, or `None` when it ended unknown.
type Answer = Option<String>;

/// Draws the corpus with `odc_workload::corpus::case_for`, cycling the six
/// axes. A draw is kept only if every command of its cold pass and its
/// re-audit answers within [`NODE_LIMIT`] in the in-process replay, so no
/// timed command fails by design; skipped draws are counted and reported.
fn corpus(seed: u64, n: usize, scratch: &Path) -> Result<Corpus, String> {
    let per_axis = n / odc_workload::corpus::Axis::ALL.len();
    let mut have = [0usize; 6];
    let mut out = Corpus {
        schemas: Vec::new(),
        skipped: 0,
    };
    let off = Tracer::new(false);
    for id in 0..MAX_DRAWS {
        if out.schemas.len() == n {
            break;
        }
        let axis = (id % 6) as usize;
        if have[axis] >= per_axis {
            continue;
        }
        let Ok(cc) = odc_workload::case_for(seed, id) else {
            out.skipped += 1;
            continue;
        };
        let fc = FuzzCase::from_corpus(&cc)?;
        let mut cmds = vec![Cmd::Check];
        for q in &fc.queries {
            match q {
                Query::Check(_) => {}
                Query::Implies(c) => cmds.push(Cmd::Implies(c.clone())),
                Query::Summarizable { target, sources } => {
                    cmds.push(Cmd::Summarizable(target.clone(), sources.clone()))
                }
                Query::Frozen(r) => cmds.push(Cmd::Frozen(r.clone())),
            }
        }
        let mut rng = StdRng::seed_from_u64(seed ^ id.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let Some(edited) = drop_one_constraint(&fc.schema_text, &mut rng) else {
            out.skipped += 1;
            continue;
        };
        let label = format!("s{id}-{}", cc.axis.name());
        // The replay's repository name must be the path the CLI sees.
        let file = scratch.join(format!("{label}.odcs"));
        let repo = scratch.join("probe-repo");
        sys::fresh_dir(&repo).map_err(|e| e.to_string())?;
        let file_s = file.display().to_string();
        let mut cold = Vec::new();
        let mut ok = true;
        for c in &cmds {
            match replay(c, &fc.schema_text, &file_s, &repo, &off)? {
                Some(t) => cold.push(t),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        let re = if ok {
            replay(&Cmd::Check, &edited, &file_s, &repo, &off)?
        } else {
            None
        };
        let Some(re) = re else {
            out.skipped += 1;
            continue;
        };
        let frozen: usize = cmds
            .iter()
            .zip(&cold)
            .filter(|(c, _)| matches!(c, Cmd::Frozen(_)))
            .filter_map(|(_, t)| t.split_whitespace().next()?.parse::<usize>().ok())
            .sum();
        if frozen > FROZEN_CAP {
            out.skipped += 1;
            continue;
        }
        have[axis] += 1;
        out.schemas.push(Schema {
            label,
            text: fc.schema_text,
            edited,
            cmds,
            cold_expected: cold,
            reaudit_expected: re,
        });
    }
    if out.schemas.len() < n {
        return Err(format!(
            "corpus: only {} of {n} draws answer within {NODE_LIMIT} nodes",
            out.schemas.len()
        ));
    }
    Ok(out)
}

/// The seeded one-constraint edit: drop one constraint line.
fn drop_one_constraint(text: &str, rng: &mut StdRng) -> Option<String> {
    let lines: Vec<&str> = text.lines().collect();
    let at = lines.iter().position(|l| l.trim() == "constraints:")?;
    let n = lines.len() - at - 1;
    if n == 0 {
        return None;
    }
    let drop = at + 1 + rng.gen_range(0..n);
    let mut out = String::new();
    for (i, l) in lines.iter().enumerate() {
        if i != drop {
            out.push_str(l);
            out.push('\n');
        }
    }
    Some(out)
}

/// Replays one command in-process exactly as `odc` runs it with `--repo`
/// (the same library calls, rendering and repository keys), with every
/// call under its layer's span. `check` runs its audit with one job so
/// solver spans nest on one thread and the counts repeat exactly; the
/// report is the same for any job count. Returns the text `odc` would
/// print, or `None` when the command ended unknown.
fn replay(
    cmd: &Cmd,
    text: &str,
    file: &str,
    repo_dir: &Path,
    tr: &Tracer,
) -> Result<Answer, String> {
    let budget = Budget::unlimited().with_node_limit(NODE_LIMIT);
    tr.op("audit.op", || {
        let ds = tr
            .span("constraint.parse", || parse_schema(text))
            .map_err(|e| format!("{file}: {e}"))?;
        let r = tr
            .span("repo.open", || {
                VerdictRepo::open(repo_dir, odc_core::obs::Obs::none(), None)
            })
            .map_err(|e| format!("--repo: {e}"))?;
        tr.span("repo.put", || r.sync_schema(&ds, file, text))
            .map_err(|e| format!("--repo: {e}"))?;
        let out = match cmd {
            Cmd::Check => check(&ds, &r, budget, tr),
            Cmd::Implies(c) => implies(&ds, &r, c, budget, tr)?,
            Cmd::Summarizable(t, s) => summarizable(&ds, &r, t, s, budget, tr)?,
            Cmd::Frozen(root) => frozen(&ds, &r, root, budget, tr)?,
        };
        let st = r.stats();
        tr.count("repo.hits", st.hits);
        tr.count("repo.misses", st.misses);
        // Dropping the repository rewrites its index, as at process exit.
        tr.span("repo.put", || drop(r));
        Ok(out)
    })
}

fn check(ds: &DimensionSchema, r: &VerdictRepo, budget: Budget, tr: &Tracer) -> Answer {
    let report = match tr.span("repo.get", || vrepo::warm_audit_from_repo(ds, r)) {
        Some(warm) => warm,
        None => {
            let facts = tr.span("repo.get", || vrepo::warm_facts(ds, r));
            // The audit builds this plan again inside; building it once
            // here is the only way to time it from outside the program.
            tr.span("plan.build", || {
                std::hint::black_box(odc_core::plan::SchemaPlan::for_schema(ds));
            });
            let rep = tr.span("summarizability.audit", || {
                advisor::audit_planned_parallel_seeded(
                    ds,
                    budget,
                    &CancelToken::new(),
                    1,
                    tr.observer(),
                    &facts,
                )
            });
            tr.span("repo.put", || vrepo::drivers::store_report(ds, r, &rep));
            rep
        }
    };
    if report.interrupted.is_some() {
        return None;
    }
    Some(tr.span("audit.render", || {
        let mut out = report.render(ds);
        let suggestions = advisor::suggest_into_constraints(ds);
        if !suggestions.is_empty() {
            out.push_str(
                "suggested into constraints (implied; make them explicit to help DIMSAT):\n",
            );
            for dc in suggestions {
                out.push_str(&format!(
                    "  {}\n",
                    odc_core::constraint::printer::display_dc(ds.hierarchy(), &dc)
                ));
            }
        }
        out
    }))
}

fn implies(
    ds: &DimensionSchema,
    r: &VerdictRepo,
    constraint: &str,
    budget: Budget,
    tr: &Tracer,
) -> Result<Answer, String> {
    let alpha = tr
        .span("constraint.parse", || {
            parse_constraint(ds.hierarchy(), constraint)
        })
        .map_err(|e| format!("constraint: {e}"))?;
    let key = vrepo::sub_key(ds, "cli-implies", constraint);
    if let Some(hit) = tr.span("repo.get", || r.get(&key)) {
        return Ok(Some(hit.payload));
    }
    let mut gov = Governor::from_budget(budget).with_observer(tr.observer());
    let out = tr.span("dimsat.solve", || {
        let cache = ImplicationCache::for_schema(ds);
        odc_core::dimsat::implies_memo(ds, &alpha, DimsatOptions::default(), &mut gov, &cache)
    });
    let answer = match &out.verdict {
        ImplicationVerdict::Implied => "true",
        ImplicationVerdict::NotImplied => "false",
        ImplicationVerdict::Unknown(_) => return Ok(None),
    };
    let text = tr.span("audit.render", || {
        let mut text = format!("implied: {answer}\n");
        if let Some(cx) = &out.counterexample {
            text.push_str(&format!("countermodel: {}\n", cx.display(ds)));
        }
        text
    });
    tr.span("repo.put", || {
        r.put(
            key,
            vrepo::StoredVerdict {
                value: answer.to_string(),
                payload: text.clone(),
                footprint: vrepo::region(ds.hierarchy(), alpha.root())
                    .into_iter()
                    .collect(),
            },
        )
    })
    .map_err(|e| format!("--repo: {e}"))?;
    Ok(Some(text))
}

fn category(ds: &DimensionSchema, name: &str) -> Result<Category, String> {
    ds.hierarchy()
        .category_by_name(name)
        .ok_or_else(|| format!("unknown category `{name}`"))
}

fn summarizable(
    ds: &DimensionSchema,
    r: &VerdictRepo,
    target: &str,
    sources: &[String],
    budget: Budget,
    tr: &Tracer,
) -> Result<Answer, String> {
    let t = category(ds, target)?;
    let s: Vec<Category> = sources
        .iter()
        .map(|n| category(ds, n))
        .collect::<Result<_, _>>()?;
    let key = vrepo::sub_key(
        ds,
        "cli-summarizable",
        &format!("{target}<-{}", sources.join("+")),
    );
    if let Some(hit) = tr.span("repo.get", || r.get(&key)) {
        return Ok(Some(hit.payload));
    }
    if tr.span("repo.get", || r.pending(&key)).is_some() {
        return Err(format!(
            "summarizable {target}: unexpected pending cursor in a cold repo"
        ));
    }
    tr.span("plan.build", || {
        let battery = summarizability_constraints(ds.hierarchy(), t, &s);
        std::hint::black_box(odc_core::plan::plan_battery(ds, &battery));
    });
    let mut gov = Governor::from_budget(budget).with_observer(tr.observer());
    let (out, _) = tr.span("summarizability.battery", || {
        odc_core::summarizability::is_summarizable_in_schema_planned(
            ds,
            t,
            &s,
            DimsatOptions::default(),
            &mut gov,
            None,
        )
    });
    let answer = match &out.verdict {
        SummarizabilityVerdict::Summarizable => "true",
        SummarizabilityVerdict::NotSummarizable => "false",
        SummarizabilityVerdict::Unknown(_) => return Ok(None),
    };
    let text = tr.span("audit.render", || {
        let mut text = format!("summarizable: {answer}\n");
        if let Some(cx) = &out.counterexample {
            text.push_str(&format!("countermodel: {}\n", cx.display(ds)));
        }
        text
    });
    let fb = match &out.verdict {
        SummarizabilityVerdict::NotSummarizable => out.failing_bottom,
        _ => None,
    };
    tr.span("repo.put", || {
        r.put(
            key,
            vrepo::StoredVerdict {
                value: answer.to_string(),
                payload: text.clone(),
                footprint: vrepo::summarizable_footprint(ds.hierarchy(), t, fb)
                    .into_iter()
                    .collect(),
            },
        )
    })
    .map_err(|e| format!("--repo: {e}"))?;
    Ok(Some(text))
}

fn frozen(
    ds: &DimensionSchema,
    r: &VerdictRepo,
    root: &str,
    budget: Budget,
    tr: &Tracer,
) -> Result<Answer, String> {
    let c = category(ds, root)?;
    let key = vrepo::sub_key(ds, "cli-frozen", root);
    if let Some(hit) = tr.span("repo.get", || r.get(&key)) {
        return Ok(Some(hit.payload));
    }
    if tr.span("repo.get", || r.pending(&key)).is_some() {
        return Err(format!(
            "frozen {root}: unexpected pending cursor in a cold repo"
        ));
    }
    let solver = Dimsat::new(ds).with_observer(tr.observer());
    let report = tr.span("frozen.enumerate", || {
        AnytimeDriver::new(budget)
            .with_max_attempts(1)
            .solve_from(&solver, c, false, None)
    });
    if report.outcome.interrupted.is_some() {
        return Ok(None);
    }
    tr.count("frozen.found", report.found.len() as u64);
    let core = tr.span("audit.render", || {
        let mut core = format!(
            "{} frozen dimension(s) with root {} ({} EXPAND, {} CHECK):\n",
            report.found.len(),
            root,
            report.outcome.stats.expand_calls,
            report.outcome.stats.check_calls
        );
        for (i, f) in report.found.iter().enumerate() {
            core.push_str(&format!("  f{}: {}\n", i + 1, f.display(ds)));
        }
        core
    });
    tr.span("repo.put", || {
        r.put(
            key,
            vrepo::StoredVerdict {
                value: report.found.len().to_string(),
                payload: core.clone(),
                footprint: vrepo::region(ds.hierarchy(), c).into_iter().collect(),
            },
        )
    })
    .map_err(|e| format!("--repo: {e}"))?;
    Ok(Some(core))
}

/// Timings of one round through the CLI.
#[derive(Default)]
struct Round {
    cold_ms: Vec<f64>,
    cold_pass_ms: f64,
    reaudit_ms: Vec<f64>,
    /// Each command process's peak RSS, MB.
    rss_mb: Vec<f64>,
    /// Commands that ended unknown (exit 2) under the node budget.
    unknown: u64,
    /// Set-up samples, seconds.
    setup_s: Vec<f64>,
}

/// Writes every schema file with its original text.
fn write_originals(files: &[PathBuf], corpus: &Corpus) -> Result<(), String> {
    for (f, s) in files.iter().zip(&corpus.schemas) {
        std::fs::write(f, &s.text).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs one round through the CLI, checking every answer against the
/// replay's; a wrong answer or an unknown counts as a failed command.
/// The round starts with set-up samples `setups`, outside the cold pass.
fn cli_round(
    cfg: &Config,
    corpus: &Corpus,
    files: &[PathBuf],
    repo: &Path,
    rep: &mut Report,
    setups: std::ops::Range<usize>,
) -> Result<Round, String> {
    sys::fresh_dir(repo).map_err(|e| e.to_string())?;
    write_originals(files, corpus)?;
    let log = cfg.work.join("audit-stderr.log");
    let mut round = Round::default();
    for k in setups {
        round
            .setup_s
            .push(setup_once(cfg, corpus, files, k, &log, rep)?);
    }
    // The repository fsyncs its own writes; the harness's deletions and
    // schema files are flushed here, so they do not land in a timed
    // command's fsyncs.
    sys::flush_disk();
    let mut runs: Vec<(usize, usize, CliRun)> = Vec::new();
    let t0 = Instant::now();
    for (si, s) in corpus.schemas.iter().enumerate() {
        let file = files[si].display().to_string();
        for (ci, c) in s.cmds.iter().enumerate() {
            let run = sys::run_cli(&cfg.odc, &c.argv(&file, Some(repo)), &log)
                .map_err(|e| e.to_string())?;
            runs.push((si, ci, run));
        }
    }
    round.cold_pass_ms = secs_ms(t0.elapsed());
    for (si, ci, run) in runs {
        let s = &corpus.schemas[si];
        let ok = run.code == 0 && run.stdout == s.cold_expected[ci];
        if !ok {
            rep.error(format!(
                "{} {:?}: exit {} and output {} the replay's",
                s.label,
                s.cmds[ci],
                run.code,
                if run.stdout == s.cold_expected[ci] {
                    "equal to"
                } else {
                    "differing from"
                }
            ));
        }
        rep.attempt(ok);
        round.unknown += (run.code == 2) as u64;
        round.rss_mb.push(run.maxrss_kb as f64 / 1024.0);
        if ok {
            round.cold_ms.push(secs_ms(run.wall));
        }
    }
    for (f, s) in files.iter().zip(&corpus.schemas) {
        std::fs::write(f, &s.edited).map_err(|e| e.to_string())?;
    }
    sys::flush_disk();
    for (si, s) in corpus.schemas.iter().enumerate() {
        let file = files[si].display().to_string();
        let run = sys::run_cli(&cfg.odc, &Cmd::Check.argv(&file, Some(repo)), &log)
            .map_err(|e| e.to_string())?;
        let ok = run.code == 0 && run.stdout == s.reaudit_expected;
        if !ok {
            rep.error(format!(
                "{} re-audit: exit {}, output differs from the replay's",
                s.label, run.code
            ));
        }
        rep.attempt(ok);
        round.unknown += (run.code == 2) as u64;
        round.rss_mb.push(run.maxrss_kb as f64 / 1024.0);
        if ok {
            round.reaudit_ms.push(secs_ms(run.wall));
        }
    }
    Ok(round)
}

/// Set-up sample `k`, on corpus schema `k` modulo the corpus size: what
/// a new `--repo` costs the first command run against it. `odc check`
/// runs against a repository directory that does not exist yet, so the
/// process creates the repository, registers the schema and persists the
/// verdict, each write fsynced by the repository; then the same `odc
/// check` runs without `--repo` (the same solve, no repository). The
/// sample is the difference of the two wall times. Both answers must
/// equal the replay's.
fn setup_once(
    cfg: &Config,
    corpus: &Corpus,
    files: &[PathBuf],
    k: usize,
    log: &Path,
    rep: &mut Report,
) -> Result<f64, String> {
    let si = k % corpus.schemas.len();
    let s = &corpus.schemas[si];
    let dir = cfg.work.join("audit/setup-repo");
    sys::fresh_dir(&dir).map_err(|e| e.to_string())?;
    std::fs::remove_dir(&dir).map_err(|e| e.to_string())?;
    sys::flush_disk();
    let file = files[si].display().to_string();
    let mut wall = [0.0; 2];
    for (w, repo) in wall.iter_mut().zip([Some(dir.as_path()), None]) {
        let run = sys::run_cli(&cfg.odc, &Cmd::Check.argv(&file, repo), log)
            .map_err(|e| e.to_string())?;
        let ok = run.code == 0 && run.stdout == s.cold_expected[0];
        if !ok {
            rep.error(format!(
                "{} set-up `check`: exit {}, output differs from the replay's",
                s.label, run.code
            ));
        }
        rep.attempt(ok);
        *w = run.wall.as_secs_f64();
    }
    Ok(wall[0] - wall[1])
}

pub fn run(cfg: &Config, calib: &mut Vec<f64>) -> Result<Report, String> {
    let mut rep = Report::new(cfg.trace);
    let dir = cfg.work.join("audit");
    sys::fresh_dir(&dir).map_err(|e| e.to_string())?;
    let n = if cfg.small { SCHEMAS_SMALL } else { SCHEMAS };
    let corpus = corpus(cfg.seed, n, &dir)?;
    let files: Vec<PathBuf> = corpus
        .schemas
        .iter()
        .map(|s| dir.join(format!("{}.odcs", s.label)))
        .collect();
    let texts: Vec<&str> = corpus
        .schemas
        .iter()
        .flat_map(|s| [s.text.as_str(), s.edited.as_str()])
        .collect();
    rep.input_digest = digest(&texts);
    rep.note(format!(
        "corpus: {} schemas ({}), {} commands per cold pass, {} draws skipped (not decidable within {NODE_LIMIT} nodes, or more than {FROZEN_CAP} frozen dimensions)",
        corpus.schemas.len(),
        corpus.schemas.iter().map(|s| s.label.as_str()).collect::<Vec<_>>().join(" "),
        corpus.schemas.iter().map(|s| s.cmds.len()).sum::<usize>(),
        corpus.skipped
    ));
    let repo = dir.join("repo");
    if cfg.trace {
        return traced(cfg, &corpus, &files, &repo, rep, calib);
    }

    let mut setups = Vec::new();
    let mut cold: Vec<f64> = Vec::new();
    let mut reaudit: Vec<f64> = Vec::new();
    let mut rss: Vec<f64> = Vec::new();
    let (mut pass_ms, mut answered, mut rounds) = (0.0, 0usize, 0usize);
    // Per round, the mean of the slowest 5% of its cold commands.
    let mut tails = Vec::new();
    let t0 = Instant::now();
    // At least two rounds: one round's cold commands are too few for a p95.
    while rounds < 2 || t0.elapsed().as_secs_f64() < cfg.seconds {
        if rounds == 1 {
            calib.push(sys::calib_ms());
        }
        let r = cli_round(
            cfg,
            &corpus,
            &files,
            &repo,
            &mut rep,
            rounds * SETUPS_PER_ROUND..(rounds + 1) * SETUPS_PER_ROUND,
        )?;
        setups.extend(r.setup_s);
        answered += r.cold_ms.len();
        pass_ms += r.cold_pass_ms;
        tails.push(tail_mean(&r.cold_ms, 5.0));
        cold.extend(r.cold_ms);
        reaudit.extend(r.reaudit_ms);
        rss.extend(r.rss_mb);
        rounds += 1;
    }
    if !supports(cold.len(), 95.0) {
        rep.error(format!(
            "only {} cold commands: too few for a p95",
            cold.len()
        ));
    }
    rep.set_n("setup_s", median(&setups), setups.len());
    // A one-shot command's footprint: the median, over the processes, of
    // each process's peak RSS. The largest process is noted.
    rep.set_n("peak_rss_mb", median(&rss), rss.len());
    rep.note(format!(
        "largest command peak RSS {:.1} MB",
        percentile(&rss, 100.0)
    ));
    rep.set_n("rate_per_s", answered as f64 / (pass_ms / 1e3), rounds);
    rep.set_n("p50_ms", median(&cold), cold.len());
    // The slow path is the tail: the mean of the slowest 5% of a round's
    // cold commands. A p95 read off the sorted list jumps between the
    // light and the solver-bound cluster when the heavy share sits near
    // 5%; the tail mean moves smoothly. Its median over rounds leaves out a
    // round that met a host stall. The p95 itself is printed below.
    rep.set_n("slow_ms", median(&tails), cold.len());
    rep.set_n("warm_ms", median(&reaudit), reaudit.len());
    rep.note(format!(
        "per-workload names: reason_cmds_per_s = rate_per_s, reason_p50_ms = p50_ms, \
         reaudit_p50_ms = warm_ms, reason_p95_ms = {:.3} ms (not bounded; slow_ms is the median \
         over rounds of the mean of a round's slowest 5%) ({rounds} rounds)",
        percentile(&cold, 95.0)
    ));
    Ok(rep)
}

/// The traced run: one round through the CLI, then the same round
/// replayed in-process four times (untraced, traced, traced, untraced).
fn traced(
    cfg: &Config,
    corpus: &Corpus,
    files: &[PathBuf],
    repo: &Path,
    mut rep: Report,
    calib: &mut Vec<f64>,
) -> Result<Report, String> {
    let round = cli_round(cfg, corpus, files, repo, &mut rep, 0..0)?;
    let cli_ms: f64 = round.cold_ms.iter().chain(&round.reaudit_ms).sum();
    calib.push(sys::calib_ms());
    let (plain_ms, traced_ms, tr, cmds) = crate::trace::abba(|tr, i| {
        let dir = cfg.work.join(format!("audit/replay-{i}"));
        sys::fresh_dir(&dir).map_err(|e| e.to_string())?;
        let mut unknown = 0usize;
        let mut cmds = 0usize;
        let t0 = Instant::now();
        for (s, f) in corpus.schemas.iter().zip(files) {
            let f = f.display().to_string();
            for c in &s.cmds {
                cmds += 1;
                unknown += replay(c, &s.text, &f, &dir, tr)?.is_none() as usize;
            }
        }
        for (s, f) in corpus.schemas.iter().zip(files) {
            cmds += 1;
            unknown += replay(&Cmd::Check, &s.edited, &f.display().to_string(), &dir, tr)?.is_none()
                as usize;
        }
        let wall = secs_ms(t0.elapsed());
        if unknown > 0 {
            return Err(format!(
                "{unknown} of {cmds} replayed commands ended unknown"
            ));
        }
        tr.count("repo.bytes_written", sys::dir_bytes(&dir));
        Ok((wall, cmds))
    })?;
    let s = tr.summary();
    let planned = tr_layer_sum(&s, &["plan.build"]);
    rep.set("audit.cli_process_ms", cli_ms - (plain_ms - planned));
    rep.set("audit.render_ms", s.layer_ms("audit.render"));
    rep.set("audit.unknown_frac", ratio(round.unknown, cmds as u64));
    rep.set("audit.skipped_draws", corpus.skipped as f64);
    rep.set("constraint.parse_ms", s.layer_ms("constraint.parse"));
    rep.set("plan.build_ms", planned);
    rep.set("dimsat.solve_ms", s.layer_ms("dimsat.solve"));
    for k in [
        "dimsat.solves",
        "dimsat.expand_calls",
        "dimsat.check_calls",
        "dimsat.assignments_tested",
        "dimsat.dead_ends",
        "frozen.found",
    ] {
        rep.set(k, s.count(k) as f64);
    }
    let (h, m) = (s.count("dimsat.cache_hits"), s.count("dimsat.cache_misses"));
    rep.set("dimsat.cache_hit_ratio", ratio(h, h + m));
    rep.set("frozen.enumerate_ms", s.layer_ms("frozen.enumerate"));
    rep.set(
        "summarizability.self_ms",
        tr_layer_sum(&s, &["summarizability.audit", "summarizability.battery"]),
    );
    rep.set("repo.open_ms", s.layer_ms("repo.open"));
    rep.set("repo.get_ms", s.layer_ms("repo.get"));
    rep.set("repo.put_ms", s.layer_ms("repo.put"));
    let hits = s.count("repo.hits");
    rep.set("repo.hits", hits as f64);
    rep.set("repo.hit_ratio", ratio(hits, hits + s.count("repo.misses")));
    rep.set("repo.bytes_written", s.count("repo.bytes_written") as f64);
    rep.trace_checks(&s, plain_ms, traced_ms);
    rep.note(format!(
        "traced round: {cmds} commands; CLI {cli_ms:.1} ms, replay {plain_ms:.1} ms untraced / {traced_ms:.1} ms traced"
    ));
    Ok(rep)
}

fn tr_layer_sum(s: &crate::trace::Summary, names: &[&str]) -> f64 {
    names.iter().map(|n| s.layer_ms(n)).sum()
}

/// The mean of the slowest `pct`% of `samples`.
fn tail_mean(samples: &[f64], pct: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let k = ((v.len() as f64 * pct / 100.0).ceil() as usize).clamp(1, v.len().max(1));
    v.iter().take(k).sum::<f64>() / k as f64
}
