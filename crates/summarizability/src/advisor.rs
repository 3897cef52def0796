//! Design-stage schema advice.
//!
//! The paper's conclusion argues that dimension constraints are "helpful
//! in the design stage of data cubes": the semantic information in `Σ`
//! lets a tool audit a schema before any data is loaded. This module
//! packages the audits the reasoning machinery makes possible:
//!
//! * **unsatisfiable categories** — dead weight that "can be dropped from
//!   the schema, providing a cleaner representation of the data";
//! * **redundant constraints** — members of `Σ` implied by the rest
//!   (removing them changes nothing);
//! * **structure census** — the frozen dimensions of each bottom
//!   category, i.e. how many homogeneous populations the schema mixes;
//! * **summarizability matrix** — for each pair of categories, whether
//!   the finer one's view can rebuild the coarser one's.
//!
//! All four stages draw from one governed budget. An interrupted audit
//! returns a partial-but-sound report *plus* an [`AuditCheckpoint`]: the
//! stage-granular cursor [`audit_resume`] continues from, re-running only
//! the first undecided item of the interrupted stage (and, for a sweep
//! interrupt, resuming the sweep's own frame-granular cursor).

use crate::checkpoint::{AuditCheckpoint, AuditStage};
use crate::theorem1::{
    decide_from_pool, is_summarizable_in_schema_governed, is_summarizable_in_schema_session,
    summarizability_constraints, SummarizabilityOutcome, SummarizabilityVerdict,
};
use odc_constraint::{Constraint, DimensionConstraint, DimensionSchema};
use odc_dimsat::{implication, CacheSession, Dimsat, DimsatOptions, ImplicationCache, SearchStats};
use odc_frozen::FrozenDimension;
use odc_govern::{
    Budget, CancelToken, CheckpointError, Governor, Interrupt, InterruptReason, SharedGovernor,
};
use odc_hierarchy::{CatSet, Category, HierarchySchema};
use odc_obs::{Obs, PlanEvent, WorkerStats};
use odc_plan::{PlanStats, SchemaPlan, SharedFacts};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The advisor's findings.
#[derive(Debug, Clone)]
pub struct SchemaReport {
    /// Categories with no frozen dimension (no instance can populate
    /// them).
    pub unsatisfiable: Vec<Category>,
    /// Indices into `Σ` of constraints implied by the remaining ones.
    pub redundant_constraints: Vec<usize>,
    /// Per bottom category: how many distinct frozen-dimension structures
    /// it mixes (1 = homogeneous population).
    pub structure_census: Vec<(Category, usize)>,
    /// Pairs `(coarse, fine)` such that `coarse` is summarizable from
    /// `{fine}` — the safe single-view rewrites.
    pub safe_rewrites: Vec<(Category, Category)>,
    /// Categories the satisfiability sweep did not reach before the
    /// budget ran out. Empty when the sweep completed.
    pub undecided_categories: Vec<Category>,
    /// Categories whose solve aborted on a structural limit (fan-out
    /// overflow) during the sweep: undecidable by this engine regardless
    /// of budget, reported with the reason and never re-tried on resume.
    pub aborted_categories: Vec<(Category, InterruptReason)>,
    /// Accumulated DIMSAT counters over every decided audit query.
    pub stats: SearchStats,
    /// Set when the audit's budget ran out: the fields above hold
    /// whatever was proved before the interrupt (a partial report, not a
    /// wrong one).
    pub interrupted: Option<Interrupt>,
    /// On an interrupted audit: the stage-granular cursor to hand to
    /// [`audit_resume`].
    pub checkpoint: Option<AuditCheckpoint>,
}

fn blank_report() -> SchemaReport {
    SchemaReport {
        unsatisfiable: Vec::new(),
        redundant_constraints: Vec::new(),
        structure_census: Vec::new(),
        safe_rewrites: Vec::new(),
        undecided_categories: Vec::new(),
        aborted_categories: Vec::new(),
        stats: SearchStats::default(),
        interrupted: None,
        checkpoint: None,
    }
}

impl SchemaReport {
    /// Renders the report with category names.
    pub fn render(&self, ds: &DimensionSchema) -> String {
        let g = ds.hierarchy();
        let mut out = String::new();
        out.push_str(&format!(
            "unsatisfiable categories: {}\n",
            if self.unsatisfiable.is_empty() {
                "none".to_string()
            } else {
                self.unsatisfiable
                    .iter()
                    .map(|&c| g.name(c))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        ));
        out.push_str(&format!(
            "redundant constraints: {}\n",
            if self.redundant_constraints.is_empty() {
                "none".to_string()
            } else {
                self.redundant_constraints
                    .iter()
                    .map(|&i| {
                        format!(
                            "[{i}] {}",
                            odc_constraint::printer::display_dc(g, &ds.constraints()[i])
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("; ")
            }
        ));
        for &(c, n) in &self.structure_census {
            out.push_str(&format!("bottom {} mixes {} structure(s)\n", g.name(c), n));
        }
        for &(coarse, fine) in &self.safe_rewrites {
            out.push_str(&format!(
                "safe rewrite: {} ← {{{}}}\n",
                g.name(coarse),
                g.name(fine)
            ));
        }
        for &(c, r) in &self.aborted_categories {
            out.push_str(&format!(
                "category {} aborted ({r:?}): structurally unexplorable\n",
                g.name(c)
            ));
        }
        if let Some(i) = &self.interrupted {
            out.push_str(&format!("audit interrupted ({i}); report is partial\n"));
            if !self.undecided_categories.is_empty() {
                out.push_str(&format!(
                    "categories not audited: {}\n",
                    self.undecided_categories
                        .iter()
                        .map(|&c| g.name(c))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            if self.checkpoint.is_some() {
                out.push_str("a resume checkpoint is available\n");
            }
        }
        out
    }
}

/// The (coarse, fine) pairs the rewrite matrix examines, in the fixed
/// order both the serial and parallel audits use. Public so
/// repository-backed audits can key cached verdicts per pair while
/// reporting findings in the identical order.
pub fn rewrite_pairs(g: &HierarchySchema) -> Vec<(Category, Category)> {
    let mut pairs = Vec::new();
    for fine in g.categories() {
        for coarse in g.categories() {
            if fine == coarse || !g.reaches(fine, coarse) || fine.is_all() {
                continue;
            }
            pairs.push((coarse, fine));
        }
    }
    pairs
}

/// Runs every audit with no resource limits. Cost: a few DIMSAT queries
/// per category pair — intended for design-time use on schema-sized
/// inputs.
pub fn audit(ds: &DimensionSchema) -> SchemaReport {
    let mut gov = Governor::unlimited();
    audit_governed(ds, &mut gov)
}

/// [`audit`] under a caller-supplied [`Governor`]: all four audits draw
/// from one budget, and an interrupt yields a partial report (the
/// completed audits) with [`SchemaReport::interrupted`] set and a
/// [`SchemaReport::checkpoint`] to resume from.
pub fn audit_governed(ds: &DimensionSchema, gov: &mut Governor) -> SchemaReport {
    // With no checkpoint to validate there is no refusal path.
    audit_governed_from(ds, gov, None, None).unwrap_or_else(|_| blank_report())
}

/// [`audit_governed`] through a caller-owned implication memo-cache: the
/// summarizability-matrix stage draws answers from (and feeds) `cache`.
/// A resident server passes its warm per-schema catalog cache here, so a
/// repeated audit of the same schema skips the searches an earlier
/// request already paid for.
pub fn audit_governed_memo(
    ds: &DimensionSchema,
    gov: &mut Governor,
    cache: &ImplicationCache,
) -> SchemaReport {
    audit_governed_from(ds, gov, None, Some(cache.begin_session()))
        .unwrap_or_else(|_| blank_report())
}

/// Resumes an interrupted audit from its checkpoint: completed stages
/// are seeded from the recorded findings, the interrupted stage picks up
/// at its first undecided item (a sweep interrupt resumes the sweep's
/// own cursor), and later stages run normally. Refuses a checkpoint
/// whose schema fingerprint differs from `ds`'s.
pub fn audit_resume(
    ds: &DimensionSchema,
    cp: &AuditCheckpoint,
    gov: &mut Governor,
) -> Result<SchemaReport, CheckpointError> {
    let fp = implication::schema_fingerprint(ds);
    if cp.fingerprint != fp {
        return Err(CheckpointError::FingerprintMismatch {
            found: cp.fingerprint,
            expected: fp,
        });
    }
    audit_governed_from(ds, gov, Some(cp), None)
}

fn audit_governed_from(
    ds: &DimensionSchema,
    gov: &mut Governor,
    resume: Option<&AuditCheckpoint>,
    session: Option<CacheSession<'_>>,
) -> Result<SchemaReport, CheckpointError> {
    let g = ds.hierarchy();
    let solver = Dimsat::new(ds);
    let fp = implication::schema_fingerprint(ds);
    let mut report = blank_report();
    // Counters of fully decided queries only: what a checkpoint carries,
    // so interrupted-plus-resumed totals equal an uninterrupted run's.
    let mut decided = SearchStats::default();
    let (start_stage, start_next) = match resume {
        Some(cp) => (cp.stage, cp.next),
        None => (AuditStage::Sweep, 0),
    };
    if let Some(cp) = resume {
        report.unsatisfiable = cp.unsatisfiable.clone();
        report.aborted_categories = cp.aborted.clone();
        report.redundant_constraints = cp.redundant.clone();
        report.structure_census = cp.census.clone();
        report.safe_rewrites = cp.rewrites.clone();
        report.stats = cp.stats.clone();
        decided = cp.stats.clone();
    }

    if start_stage == AuditStage::Sweep {
        let sweep = match resume.and_then(|cp| cp.sweep.as_ref()) {
            Some(scp) => solver.resume_sweep_governed(scp, gov)?,
            None => solver.unsatisfiable_categories_governed(gov),
        };
        report.unsatisfiable = sweep.unsat.clone();
        report.undecided_categories = sweep.undecided.clone();
        report.aborted_categories = sweep.aborted.clone();
        report.stats.absorb(&sweep.stats);
        decided.absorb(&sweep.stats);
        if let Some(i) = sweep.interrupted {
            report.interrupted = Some(i);
            // The sweep's partial counters live inside its own embedded
            // cursor; the audit-level stats record starts empty so resume
            // does not double-count them.
            report.checkpoint = Some(AuditCheckpoint {
                fingerprint: fp,
                stage: AuditStage::Sweep,
                next: 0,
                stats: SearchStats::default(),
                unsatisfiable: Vec::new(),
                aborted: Vec::new(),
                redundant: Vec::new(),
                census: Vec::new(),
                rewrites: Vec::new(),
                sweep: solver.sweep_checkpoint(&sweep),
            });
            return Ok(report);
        }
    }

    // A constraint σ is redundant iff (G, Σ \ {σ}) ⊨ σ.
    if start_stage <= AuditStage::Redundancy {
        let first = if start_stage == AuditStage::Redundancy {
            start_next
        } else {
            0
        };
        for (i, dc) in ds.constraints().iter().enumerate().skip(first) {
            let mut rest: Vec<DimensionConstraint> = ds.constraints().to_vec();
            rest.remove(i);
            let reduced = DimensionSchema::new(ds.hierarchy_arc(), rest);
            let out = implication::implies_governed(&reduced, dc, DimsatOptions::default(), gov);
            report.stats.absorb(&out.stats);
            if let Some(intr) = out.interrupt() {
                report.interrupted = Some(intr);
                report.checkpoint = Some(AuditCheckpoint {
                    fingerprint: fp,
                    stage: AuditStage::Redundancy,
                    next: i,
                    stats: decided,
                    unsatisfiable: report.unsatisfiable.clone(),
                    aborted: report.aborted_categories.clone(),
                    redundant: report.redundant_constraints.clone(),
                    census: Vec::new(),
                    rewrites: Vec::new(),
                    sweep: None,
                });
                return Ok(report);
            }
            decided.absorb(&out.stats);
            if out.implied() {
                report.redundant_constraints.push(i);
            }
        }
    }

    if start_stage <= AuditStage::Census {
        let first = if start_stage == AuditStage::Census {
            start_next
        } else {
            0
        };
        let bottoms: Vec<Category> = g
            .bottom_categories()
            .into_iter()
            .filter(|c| !c.is_all())
            .collect();
        for (i, &c) in bottoms.iter().enumerate().skip(first) {
            let (frozen, out) = solver.enumerate_frozen_governed(c, gov);
            report.stats.absorb(&out.stats);
            if let Some(intr) = out.interrupted {
                report.interrupted = Some(intr);
                report.checkpoint = Some(AuditCheckpoint {
                    fingerprint: fp,
                    stage: AuditStage::Census,
                    next: i,
                    stats: decided,
                    unsatisfiable: report.unsatisfiable.clone(),
                    aborted: report.aborted_categories.clone(),
                    redundant: report.redundant_constraints.clone(),
                    census: report.structure_census.clone(),
                    rewrites: Vec::new(),
                    sweep: None,
                });
                return Ok(report);
            }
            decided.absorb(&out.stats);
            report.structure_census.push((c, frozen.len()));
        }
    }

    // Safe single-view rewrites: coarse ← {fine} for fine ≠ coarse where
    // fine reaches coarse.
    let first = if start_stage == AuditStage::Rewrites {
        start_next
    } else {
        0
    };
    let pairs = rewrite_pairs(g);
    for (i, &(coarse, fine)) in pairs.iter().enumerate().skip(first) {
        let out = match session {
            Some(s) => is_summarizable_in_schema_session(
                ds,
                coarse,
                &[fine],
                DimsatOptions::default(),
                gov,
                s,
            ),
            None => is_summarizable_in_schema_governed(
                ds,
                coarse,
                &[fine],
                DimsatOptions::default(),
                gov,
            ),
        };
        report.stats.absorb(&out.stats);
        if let Some(intr) = out.interrupt() {
            report.interrupted = Some(intr);
            report.checkpoint = Some(AuditCheckpoint {
                fingerprint: fp,
                stage: AuditStage::Rewrites,
                next: i,
                stats: decided,
                unsatisfiable: report.unsatisfiable.clone(),
                aborted: report.aborted_categories.clone(),
                redundant: report.redundant_constraints.clone(),
                census: report.structure_census.clone(),
                rewrites: report.safe_rewrites.clone(),
                sweep: None,
            });
            return Ok(report);
        }
        decided.absorb(&out.stats);
        if out.summarizable() {
            report.safe_rewrites.push((coarse, fine));
        }
    }

    Ok(report)
}

/// Runs the `f(i, gov)` work items `0..n` striped across `jobs` worker
/// threads, each worker drawing from the shared budget. Returns the
/// completed results sorted by index plus the lowest-indexed interrupt
/// (if any worker hit one), with the index it struck at. Results proved
/// past an interrupt index by other workers are kept — they are sound,
/// the report just notes it is partial.
/// One worker's contribution to a striped stage: the results it proved
/// plus the index where it stopped, if the budget interrupted it.
type StripeResult<T> = (Vec<(usize, T)>, Option<(usize, Interrupt)>);

fn run_striped<T: Send>(
    shared: &SharedGovernor,
    jobs: usize,
    n: usize,
    battery: &'static str,
    f: impl Fn(usize, &mut Governor) -> Result<T, Interrupt> + Sync,
) -> StripeResult<T> {
    let jobs = jobs.max(1).min(n.max(1));
    let per_worker: Vec<StripeResult<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let mut gov = shared.worker();
                let f = &f;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut intr = None;
                    let mut i = w;
                    while i < n {
                        match f(i, &mut gov) {
                            Ok(t) => done.push((i, t)),
                            Err(e) => {
                                intr = Some((i, e));
                                break;
                            }
                        }
                        i += jobs;
                    }
                    gov.obs().worker_finished(&WorkerStats {
                        battery,
                        worker: gov.worker_id().unwrap_or(w as u64),
                        nodes: gov.nodes(),
                        checks: gov.checks(),
                        items: done.len() as u64,
                    });
                    (done, intr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(slice) => slice,
                // A worker panic is a bug, not a verdict: re-raise it
                // instead of reporting the stripe as cleanly empty.
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });
    let mut done: Vec<(usize, T)> = Vec::new();
    let mut first: Option<(usize, Interrupt)> = None;
    for (d, intr) in per_worker {
        done.extend(d);
        if let Some((i, e)) = intr {
            let replace = match first {
                None => true,
                Some((j, _)) => i < j,
            };
            if replace {
                first = Some((i, e));
            }
        }
    }
    done.sort_by_key(|&(i, _)| i);
    (done, first)
}

/// [`audit_governed`] fanned out over `jobs` worker threads. All four
/// audit stages draw from the single shared `budget`; within each stage
/// the independent queries are striped across workers, and the
/// summarizability stage shares one implication memo-cache so repeated
/// sub-queries are answered once. Findings are reported in the same
/// order as the serial audit, and an interrupt yields the same
/// explicitly-partial report plus a resume checkpoint.
pub fn audit_parallel(
    ds: &DimensionSchema,
    budget: Budget,
    cancel: &CancelToken,
    jobs: usize,
) -> SchemaReport {
    audit_parallel_observed(ds, budget, cancel, jobs, Obs::none())
}

/// [`audit_parallel`] with a structured-event observer: every worker
/// governor in every stage inherits the sink, and each stage's workers
/// report per-worker counters (batteries `category_sweep`, `redundancy`,
/// `structure_census`, `summarizability_matrix`).
pub fn audit_parallel_observed(
    ds: &DimensionSchema,
    budget: Budget,
    cancel: &CancelToken,
    jobs: usize,
    obs: Obs,
) -> SchemaReport {
    audit_parallel_from(ds, budget, cancel, jobs, obs, None).unwrap_or_else(|_| blank_report())
}

/// [`audit_resume`] fanned out over `jobs` worker threads: the remaining
/// items of the interrupted stage (and all later stages) are striped
/// across workers. A sweep-stage checkpoint finishes the sweep on one
/// worker governor (its cursor is inherently serial), then fans out the
/// remaining stages.
pub fn audit_resume_parallel(
    ds: &DimensionSchema,
    cp: &AuditCheckpoint,
    budget: Budget,
    cancel: &CancelToken,
    jobs: usize,
    obs: Obs,
) -> Result<SchemaReport, CheckpointError> {
    let fp = implication::schema_fingerprint(ds);
    if cp.fingerprint != fp {
        return Err(CheckpointError::FingerprintMismatch {
            found: cp.fingerprint,
            expected: fp,
        });
    }
    audit_parallel_from(ds, budget, cancel, jobs, obs, Some(cp))
}

fn audit_parallel_from(
    ds: &DimensionSchema,
    budget: Budget,
    cancel: &CancelToken,
    jobs: usize,
    obs: Obs,
    resume: Option<&AuditCheckpoint>,
) -> Result<SchemaReport, CheckpointError> {
    if jobs <= 1 {
        let mut gov = Governor::new(budget, cancel.clone()).with_observer(obs);
        return audit_governed_from(ds, &mut gov, resume, None);
    }
    let g = ds.hierarchy();
    let fp = implication::schema_fingerprint(ds);
    let solver = Dimsat::new(ds).with_observer(obs.clone());
    let shared = SharedGovernor::new(budget, cancel.clone()).with_observer(obs);
    let mut report = blank_report();
    let mut decided = SearchStats::default();
    let (start_stage, start_next) = match resume {
        Some(cp) => (cp.stage, cp.next),
        None => (AuditStage::Sweep, 0),
    };
    if let Some(cp) = resume {
        report.unsatisfiable = cp.unsatisfiable.clone();
        report.aborted_categories = cp.aborted.clone();
        report.redundant_constraints = cp.redundant.clone();
        report.structure_census = cp.census.clone();
        report.safe_rewrites = cp.rewrites.clone();
        report.stats = cp.stats.clone();
        decided = cp.stats.clone();
    }

    if start_stage == AuditStage::Sweep {
        let sweep = match resume.and_then(|cp| cp.sweep.as_ref()) {
            Some(scp) => {
                let mut gov = shared.worker();
                solver.resume_sweep_governed(scp, &mut gov)?
            }
            None => solver.unsatisfiable_categories_sharded(&shared, jobs),
        };
        report.unsatisfiable = sweep.unsat.clone();
        report.undecided_categories = sweep.undecided.clone();
        report.aborted_categories = sweep.aborted.clone();
        report.stats.absorb(&sweep.stats);
        decided.absorb(&sweep.stats);
        if let Some(i) = sweep.interrupted {
            report.interrupted = Some(i);
            report.checkpoint = Some(AuditCheckpoint {
                fingerprint: fp,
                stage: AuditStage::Sweep,
                next: 0,
                stats: SearchStats::default(),
                unsatisfiable: Vec::new(),
                aborted: Vec::new(),
                redundant: Vec::new(),
                census: Vec::new(),
                rewrites: Vec::new(),
                sweep: solver.sweep_checkpoint(&sweep),
            });
            return Ok(report);
        }
    }

    // A constraint σ is redundant iff (G, Σ \ {σ}) ⊨ σ.
    if start_stage <= AuditStage::Redundancy {
        let first = if start_stage == AuditStage::Redundancy {
            start_next
        } else {
            0
        };
        let n = ds.constraints().len();
        let (res, intr) = run_striped(
            &shared,
            jobs,
            n.saturating_sub(first),
            "redundancy",
            |k, gov| {
                let i = first + k;
                let dc = &ds.constraints()[i];
                let mut rest: Vec<DimensionConstraint> = ds.constraints().to_vec();
                rest.remove(i);
                let reduced = DimensionSchema::new(ds.hierarchy_arc(), rest);
                let out =
                    implication::implies_governed(&reduced, dc, DimsatOptions::default(), gov);
                match out.interrupt() {
                    Some(e) => Err(e),
                    None => Ok((out.implied(), out.stats.clone())),
                }
            },
        );
        let next = intr.as_ref().map(|&(k, _)| first + k);
        for &(k, (implied, ref stats)) in &res {
            report.stats.absorb(stats);
            if next.is_none_or(|nx| first + k < nx) {
                decided.absorb(stats);
            }
            if implied {
                report.redundant_constraints.push(first + k);
            }
        }
        if let Some((k, e)) = intr {
            report.interrupted = Some(e);
            report.checkpoint = Some(AuditCheckpoint {
                fingerprint: fp,
                stage: AuditStage::Redundancy,
                next: first + k,
                stats: decided,
                unsatisfiable: report.unsatisfiable.clone(),
                aborted: report.aborted_categories.clone(),
                // The checkpoint keeps the decided *prefix* only —
                // results other workers proved beyond the interrupt index
                // re-run on resume, keeping merged totals identical to a
                // clean run.
                redundant: report
                    .redundant_constraints
                    .iter()
                    .copied()
                    .filter(|&i| i < first + k)
                    .collect(),
                census: Vec::new(),
                rewrites: Vec::new(),
                sweep: None,
            });
            return Ok(report);
        }
    }

    if start_stage <= AuditStage::Census {
        let first = if start_stage == AuditStage::Census {
            start_next
        } else {
            0
        };
        let bottoms: Vec<Category> = g
            .bottom_categories()
            .into_iter()
            .filter(|c| !c.is_all())
            .collect();
        let (res, intr) = run_striped(
            &shared,
            jobs,
            bottoms.len().saturating_sub(first),
            "structure_census",
            |k, gov| {
                let (frozen, out) = solver.enumerate_frozen_governed(bottoms[first + k], gov);
                match out.interrupted {
                    Some(e) => Err(e),
                    None => Ok((frozen.len(), out.stats.clone())),
                }
            },
        );
        let next = intr.as_ref().map(|&(k, _)| first + k);
        for &(k, (n_structs, ref stats)) in &res {
            report.stats.absorb(stats);
            if next.is_none_or(|nx| first + k < nx) {
                decided.absorb(stats);
            }
            report.structure_census.push((bottoms[first + k], n_structs));
        }
        if let Some((k, e)) = intr {
            report.interrupted = Some(e);
            let cut = first + k;
            report.checkpoint = Some(AuditCheckpoint {
                fingerprint: fp,
                stage: AuditStage::Census,
                next: cut,
                stats: decided,
                unsatisfiable: report.unsatisfiable.clone(),
                aborted: report.aborted_categories.clone(),
                redundant: report.redundant_constraints.clone(),
                census: report
                    .structure_census
                    .iter()
                    .filter(|&&(c, _)| {
                        bottoms.iter().position(|&b| b == c).is_some_and(|i| i < cut)
                    })
                    .copied()
                    .collect(),
                rewrites: Vec::new(),
                sweep: None,
            });
            return Ok(report);
        }
    }

    // Safe single-view rewrites, sharing one memo-cache across workers.
    let first = if start_stage == AuditStage::Rewrites {
        start_next
    } else {
        0
    };
    let pairs = rewrite_pairs(g);
    let cache = ImplicationCache::for_schema(ds);
    // One session for the whole audit: every worker's reuse is
    // within-session (plain hits), matching the serial audit's counters.
    let session = cache.begin_session();
    let (res, intr) = run_striped(
        &shared,
        jobs,
        pairs.len().saturating_sub(first),
        "summarizability_matrix",
        |k, gov| {
            let (coarse, fine) = pairs[first + k];
            let out = is_summarizable_in_schema_session(
                ds,
                coarse,
                &[fine],
                DimsatOptions::default(),
                gov,
                session,
            );
            match out.interrupt() {
                Some(e) => Err(e),
                None => Ok((out.summarizable(), out.stats.clone())),
            }
        },
    );
    let next = intr.as_ref().map(|&(k, _)| first + k);
    for &(k, (safe, ref stats)) in &res {
        report.stats.absorb(stats);
        if next.is_none_or(|nx| first + k < nx) {
            decided.absorb(stats);
        }
        if safe {
            report.safe_rewrites.push(pairs[first + k]);
        }
    }
    if let Some((k, e)) = intr {
        report.interrupted = Some(e);
        let cut = first + k;
        report.checkpoint = Some(AuditCheckpoint {
            fingerprint: fp,
            stage: AuditStage::Rewrites,
            next: cut,
            stats: decided,
            unsatisfiable: report.unsatisfiable.clone(),
            aborted: report.aborted_categories.clone(),
            redundant: report.redundant_constraints.clone(),
            census: report.structure_census.clone(),
            rewrites: report
                .safe_rewrites
                .iter()
                .filter(|&&(coarse, fine)| {
                    pairs.iter().position(|&p| p == (coarse, fine)).is_some_and(|i| i < cut)
                })
                .copied()
                .collect(),
            sweep: None,
        });
    }
    Ok(report)
}

/// Per-bottom witness pools produced by a *complete* census enumeration:
/// `pool[b]` holds one frozen dimension per inducing subhierarchy rooted
/// at `b` (empty when `b` is unsatisfiable). By Theorem 2 these pools
/// answer every pure-path rooted implication — in particular the whole
/// rewrites matrix — without another search.
type WitnessPools = HashMap<Category, Vec<FrozenDimension>>;

/// Emits the audit's final `plan` event: fact hits are tallied from the
/// shared scratchpad (the sweep, census, and rewrites shortcuts all
/// record into it), batched answers from the pool evaluation counter.
fn emit_audit_plan(obs: &Obs, mut plan: PlanStats, facts: &SharedFacts, hits_before: u64) {
    plan.fact_hits = facts.hits().saturating_sub(hits_before);
    obs.plan(&PlanEvent {
        battery: "schema_audit",
        queries: plan.queries,
        deduped: plan.deduped,
        reordered: plan.reordered,
        fact_hits: plan.fact_hits,
        batched: plan.batched,
    });
}

/// One rewrite pair's Theorem-1 battery, answered from shared facts and
/// census witness pools wherever soundness allows, with a real solve as
/// the fallback:
///
/// * a bottom the sweep proved unsatisfiable roots *no* frozen
///   dimension, so its battery constraint is vacuously implied (sound
///   against the full schema — this shortcut is never used for the
///   redundancy stage, whose queries run against a reduced schema);
/// * a complete witness pool decides a structurally-evaluable constraint
///   by Theorem-2 quantification ([`decide_from_pool`]);
/// * overflow-exposed bottoms take neither shortcut, so structural
///   aborts surface exactly as the unplanned battery would surface them.
///
/// The verdict (and failing bottom, the first refuted constraint in
/// bottom order) matches the unplanned battery; the counterexample may
/// be a different — equally valid — witness.
#[allow(clippy::too_many_arguments)]
fn planned_pair_battery(
    ds: &DimensionSchema,
    coarse: Category,
    fine: Category,
    gov: &mut Governor,
    session: Option<CacheSession<'_>>,
    facts: &SharedFacts,
    pools: &WitnessPools,
    exposed: &CatSet,
    batched: &AtomicU64,
) -> SummarizabilityOutcome {
    let mut stats = SearchStats::default();
    for dc in summarizability_constraints(ds.hierarchy(), coarse, &[fine]) {
        let root = dc.root();
        if !exposed.contains(root) {
            if facts.known_unsat(root) {
                facts.record_hit();
                continue;
            }
            if let Some(witnesses) = pools.get(&root) {
                match decide_from_pool(&dc, witnesses) {
                    Some(Ok(())) => {
                        batched.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    Some(Err(w)) => {
                        batched.fetch_add(1, Ordering::Relaxed);
                        return SummarizabilityOutcome {
                            verdict: SummarizabilityVerdict::NotSummarizable,
                            failing_bottom: Some(root),
                            counterexample: Some(w),
                            stats,
                            checkpoint: None,
                        };
                    }
                    None => {}
                }
            }
        }
        let out = match session {
            Some(s) => {
                implication::implies_memo_session(ds, &dc, DimsatOptions::default(), gov, s)
            }
            None => implication::implies_governed(ds, &dc, DimsatOptions::default(), gov),
        };
        stats.absorb(&out.stats);
        if let Some(intr) = out.interrupt() {
            return SummarizabilityOutcome {
                verdict: SummarizabilityVerdict::Unknown(intr),
                failing_bottom: None,
                counterexample: None,
                stats,
                // The audit checkpoints at pair granularity, like the
                // unplanned parallel audit.
                checkpoint: None,
            };
        }
        if !out.implied() {
            return SummarizabilityOutcome {
                verdict: SummarizabilityVerdict::NotSummarizable,
                failing_bottom: Some(root),
                counterexample: out.counterexample,
                stats,
                checkpoint: None,
            };
        }
    }
    SummarizabilityOutcome {
        verdict: SummarizabilityVerdict::Summarizable,
        failing_bottom: None,
        counterexample: None,
        stats,
        checkpoint: None,
    }
}

/// [`audit`] through the cross-query planner: the sweep runs biggest
/// region first with witness sharing, the redundancy battery is deduped
/// and cost-ordered, the census doubles as a witness-pool builder, and
/// the rewrites matrix is answered from the pools (Theorem-2 batching)
/// with solver fallback. Complete planned and unplanned audits render
/// byte-identically; stats legitimately differ (fewer solves is the
/// point). An interrupt yields the same partial-report shape with a
/// checkpoint the *unplanned* resume paths consume unchanged.
pub fn audit_planned(ds: &DimensionSchema) -> SchemaReport {
    let mut gov = Governor::unlimited();
    audit_planned_governed(ds, &mut gov)
}

/// [`audit_planned`] under a caller-supplied governor. The rewrites
/// fallback solves run through a run-local implication memo-cache, so
/// the serial planned path never repeats work the parallel path would
/// memoize.
pub fn audit_planned_governed(ds: &DimensionSchema, gov: &mut Governor) -> SchemaReport {
    let cache = ImplicationCache::for_schema(ds);
    let sp = SchemaPlan::for_schema(ds);
    let facts = SharedFacts::new(ds.hierarchy().num_categories());
    audit_planned_from(ds, gov, Some(cache.begin_session()), &sp, &facts)
}

/// [`audit_planned_governed`] through caller-owned warm state: the
/// memo-cache, the precomputed per-schema plan, and the shared-fact
/// scratchpad (a resident server keeps all three in its catalog entry,
/// so repeated audits of one schema re-plan nothing and re-prove no
/// category's satisfiability).
pub fn audit_planned_memo(
    ds: &DimensionSchema,
    gov: &mut Governor,
    cache: &ImplicationCache,
    sp: &SchemaPlan,
    facts: &SharedFacts,
) -> SchemaReport {
    audit_planned_from(ds, gov, Some(cache.begin_session()), sp, facts)
}

fn audit_planned_from(
    ds: &DimensionSchema,
    gov: &mut Governor,
    session: Option<CacheSession<'_>>,
    sp: &SchemaPlan,
    facts: &SharedFacts,
) -> SchemaReport {
    let g = ds.hierarchy();
    let solver = Dimsat::new(ds);
    let fp = implication::schema_fingerprint(ds);
    let exposed = &sp.exposed;
    let hits_before = facts.hits();
    let mut plan = PlanStats::default();
    let batched = AtomicU64::new(0);
    let mut report = blank_report();
    let mut decided = SearchStats::default();

    // Stage 1: planned sweep (biggest regions first, witness sharing).
    plan.queries += g.categories().filter(|c| !c.is_all()).count() as u64;
    let sweep = solver.unsatisfiable_categories_planned_governed(gov, facts);
    report.unsatisfiable = sweep.unsat.clone();
    report.undecided_categories = sweep.undecided.clone();
    report.aborted_categories = sweep.aborted.clone();
    report.stats.absorb(&sweep.stats);
    decided.absorb(&sweep.stats);
    if let Some(i) = sweep.interrupted {
        report.interrupted = Some(i);
        report.checkpoint = Some(AuditCheckpoint {
            fingerprint: fp,
            stage: AuditStage::Sweep,
            next: 0,
            stats: SearchStats::default(),
            unsatisfiable: Vec::new(),
            aborted: Vec::new(),
            redundant: Vec::new(),
            census: Vec::new(),
            rewrites: Vec::new(),
            sweep: solver.sweep_checkpoint(&sweep),
        });
        emit_audit_plan(gov.obs(), plan, facts, hits_before);
        return report;
    }

    // Stage 2: redundancy, deduped + cost-ordered. Only execution is
    // reordered; verdicts are reported (and checkpointed) in constraint
    // order. σ_i ≡ σ_j after normalization ⇒ the two reduced schemas
    // are logically equivalent, so aliasing copies a semantically
    // identical verdict.
    let constraints = ds.constraints();
    let rplan = &sp.battery;
    plan.queries += rplan.stats.queries;
    plan.deduped += rplan.stats.deduped;
    plan.reordered += rplan.stats.reordered;
    let mut verdicts: Vec<Option<(bool, SearchStats)>> = vec![None; constraints.len()];
    let mut interrupt: Option<Interrupt> = None;
    for &i in &rplan.order {
        let dc = &constraints[i];
        let mut rest: Vec<DimensionConstraint> = constraints.to_vec();
        rest.remove(i);
        let reduced = DimensionSchema::new(ds.hierarchy_arc(), rest);
        let out = implication::implies_governed(&reduced, dc, DimsatOptions::default(), gov);
        report.stats.absorb(&out.stats);
        if let Some(e) = out.interrupt() {
            interrupt = Some(e);
            break;
        }
        verdicts[i] = Some((out.implied(), out.stats.clone()));
    }
    for i in 0..constraints.len() {
        if let Some(j) = rplan.alias_of[i] {
            if let Some((implied, _)) = verdicts[j] {
                verdicts[i] = Some((implied, SearchStats::default()));
            }
        }
    }
    let next = (0..constraints.len()).find(|&i| verdicts[i].is_none());
    for (i, v) in verdicts.iter().enumerate() {
        if let Some((implied, ref stats)) = *v {
            if next.is_none_or(|nx| i < nx) {
                decided.absorb(stats);
            }
            if implied {
                report.redundant_constraints.push(i);
            }
        }
    }
    if let Some(e) = interrupt {
        let nx = next.unwrap_or(constraints.len());
        report.interrupted = Some(e);
        report.checkpoint = Some(AuditCheckpoint {
            fingerprint: fp,
            stage: AuditStage::Redundancy,
            next: nx,
            stats: decided,
            unsatisfiable: report.unsatisfiable.clone(),
            aborted: report.aborted_categories.clone(),
            redundant: report
                .redundant_constraints
                .iter()
                .copied()
                .filter(|&i| i < nx)
                .collect(),
            census: Vec::new(),
            rewrites: Vec::new(),
            sweep: None,
        });
        emit_audit_plan(gov.obs(), plan, facts, hits_before);
        return report;
    }

    // Stage 3: census, doubling as witness-pool construction. A bottom
    // the sweep proved unsatisfiable has zero frozen dimensions by
    // definition — its census entry (and empty pool) is free.
    let bottoms: Vec<Category> = g
        .bottom_categories()
        .into_iter()
        .filter(|c| !c.is_all())
        .collect();
    plan.queries += bottoms.len() as u64;
    let mut pools: WitnessPools = HashMap::new();
    for (i, &c) in bottoms.iter().enumerate() {
        if !exposed.contains(c) && facts.known_unsat(c) {
            facts.record_hit();
            report.structure_census.push((c, 0));
            pools.insert(c, Vec::new());
            continue;
        }
        let (frozen, out) = solver.enumerate_frozen_governed(c, gov);
        report.stats.absorb(&out.stats);
        if let Some(intr) = out.interrupted {
            report.interrupted = Some(intr);
            report.checkpoint = Some(AuditCheckpoint {
                fingerprint: fp,
                stage: AuditStage::Census,
                next: i,
                stats: decided,
                unsatisfiable: report.unsatisfiable.clone(),
                aborted: report.aborted_categories.clone(),
                redundant: report.redundant_constraints.clone(),
                census: report.structure_census.clone(),
                rewrites: Vec::new(),
                sweep: None,
            });
            emit_audit_plan(gov.obs(), plan, facts, hits_before);
            return report;
        }
        decided.absorb(&out.stats);
        report.structure_census.push((c, frozen.len()));
        if frozen.is_empty() {
            facts.note_unsat(c);
        }
        pools.insert(c, frozen);
    }

    // Stage 4: the rewrites matrix, answered from the pools.
    let pairs = rewrite_pairs(g);
    plan.queries += (pairs.len() * bottoms.len()) as u64;
    for (i, &(coarse, fine)) in pairs.iter().enumerate() {
        let out = planned_pair_battery(
            ds, coarse, fine, gov, session, facts, &pools, exposed, &batched,
        );
        report.stats.absorb(&out.stats);
        if let Some(intr) = out.interrupt() {
            report.interrupted = Some(intr);
            report.checkpoint = Some(AuditCheckpoint {
                fingerprint: fp,
                stage: AuditStage::Rewrites,
                next: i,
                stats: decided,
                unsatisfiable: report.unsatisfiable.clone(),
                aborted: report.aborted_categories.clone(),
                redundant: report.redundant_constraints.clone(),
                census: report.structure_census.clone(),
                rewrites: report.safe_rewrites.clone(),
                sweep: None,
            });
            plan.batched += batched.load(Ordering::Relaxed);
            emit_audit_plan(gov.obs(), plan, facts, hits_before);
            return report;
        }
        decided.absorb(&out.stats);
        if out.summarizable() {
            report.safe_rewrites.push((coarse, fine));
        }
    }
    plan.batched += batched.load(Ordering::Relaxed);
    emit_audit_plan(gov.obs(), plan, facts, hits_before);
    report
}

/// [`audit_planned`] fanned out over `jobs` workers: the sweep's plan is
/// the work-stealing order, and the later stages stripe their (mostly
/// pool-answered) items under the same shared budget.
pub fn audit_planned_parallel(
    ds: &DimensionSchema,
    budget: Budget,
    cancel: &CancelToken,
    jobs: usize,
) -> SchemaReport {
    audit_planned_parallel_observed(ds, budget, cancel, jobs, Obs::none())
}

/// [`audit_planned_parallel`] with a structured-event observer.
pub fn audit_planned_parallel_observed(
    ds: &DimensionSchema,
    budget: Budget,
    cancel: &CancelToken,
    jobs: usize,
    obs: Obs,
) -> SchemaReport {
    let facts = SharedFacts::new(ds.hierarchy().num_categories());
    audit_planned_parallel_seeded(ds, budget, cancel, jobs, obs, &facts)
}

/// [`audit_planned_parallel_observed`] with caller-seeded shared facts:
/// a repository-backed audit pre-loads stored sat/unsat verdicts so the
/// planner skips solves the store already proves.
pub fn audit_planned_parallel_seeded(
    ds: &DimensionSchema,
    budget: Budget,
    cancel: &CancelToken,
    jobs: usize,
    obs: Obs,
    facts: &SharedFacts,
) -> SchemaReport {
    if jobs <= 1 {
        let mut gov = Governor::new(budget, cancel.clone()).with_observer(obs);
        let cache = ImplicationCache::for_schema(ds);
        let sp = SchemaPlan::for_schema(ds);
        return audit_planned_from(ds, &mut gov, Some(cache.begin_session()), &sp, facts);
    }
    let g = ds.hierarchy();
    let fp = implication::schema_fingerprint(ds);
    let solver = Dimsat::new(ds).with_observer(obs.clone());
    let shared = SharedGovernor::new(budget, cancel.clone()).with_observer(obs.clone());
    let exposed = odc_plan::overflow_exposed(g);
    let hits_before = facts.hits();
    let mut plan = PlanStats::default();
    let batched = AtomicU64::new(0);
    let mut report = blank_report();
    let mut decided = SearchStats::default();

    // Stage 1: planned sweep, workers pulling from the plan's cursor.
    plan.queries += g.categories().filter(|c| !c.is_all()).count() as u64;
    let sweep = solver.unsatisfiable_categories_planned_sharded(&shared, jobs, facts);
    report.unsatisfiable = sweep.unsat.clone();
    report.undecided_categories = sweep.undecided.clone();
    report.aborted_categories = sweep.aborted.clone();
    report.stats.absorb(&sweep.stats);
    decided.absorb(&sweep.stats);
    if let Some(i) = sweep.interrupted {
        report.interrupted = Some(i);
        report.checkpoint = Some(AuditCheckpoint {
            fingerprint: fp,
            stage: AuditStage::Sweep,
            next: 0,
            stats: SearchStats::default(),
            unsatisfiable: Vec::new(),
            aborted: Vec::new(),
            redundant: Vec::new(),
            census: Vec::new(),
            rewrites: Vec::new(),
            sweep: solver.sweep_checkpoint(&sweep),
        });
        emit_audit_plan(&obs, plan, facts, hits_before);
        return report;
    }

    // Stage 2: redundancy striped over the *planned* order.
    let constraints = ds.constraints();
    let rplan = odc_plan::plan_battery(ds, constraints);
    plan.queries += rplan.stats.queries;
    plan.deduped += rplan.stats.deduped;
    plan.reordered += rplan.stats.reordered;
    let (res, intr) = run_striped(&shared, jobs, rplan.order.len(), "redundancy", |k, gov| {
        let i = rplan.order[k];
        let dc = &constraints[i];
        let mut rest: Vec<DimensionConstraint> = constraints.to_vec();
        rest.remove(i);
        let reduced = DimensionSchema::new(ds.hierarchy_arc(), rest);
        let out = implication::implies_governed(&reduced, dc, DimsatOptions::default(), gov);
        match out.interrupt() {
            Some(e) => Err(e),
            None => Ok((out.implied(), out.stats.clone())),
        }
    });
    let mut verdicts: Vec<Option<(bool, SearchStats)>> = vec![None; constraints.len()];
    for (k, (implied, stats)) in res {
        verdicts[rplan.order[k]] = Some((implied, stats));
    }
    for i in 0..constraints.len() {
        if let Some(j) = rplan.alias_of[i] {
            if let Some((implied, _)) = verdicts[j] {
                verdicts[i] = Some((implied, SearchStats::default()));
            }
        }
    }
    let next = (0..constraints.len()).find(|&i| verdicts[i].is_none());
    for (i, v) in verdicts.iter().enumerate() {
        if let Some((implied, ref stats)) = *v {
            report.stats.absorb(stats);
            if next.is_none_or(|nx| i < nx) {
                decided.absorb(stats);
            }
            if implied {
                report.redundant_constraints.push(i);
            }
        }
    }
    if let Some((_, e)) = intr {
        let nx = next.unwrap_or(constraints.len());
        report.interrupted = Some(e);
        report.checkpoint = Some(AuditCheckpoint {
            fingerprint: fp,
            stage: AuditStage::Redundancy,
            next: nx,
            stats: decided,
            unsatisfiable: report.unsatisfiable.clone(),
            aborted: report.aborted_categories.clone(),
            redundant: report
                .redundant_constraints
                .iter()
                .copied()
                .filter(|&i| i < nx)
                .collect(),
            census: Vec::new(),
            rewrites: Vec::new(),
            sweep: None,
        });
        emit_audit_plan(&obs, plan, facts, hits_before);
        return report;
    }

    // Stage 3: census with witness pools, striped over bottoms.
    let bottoms: Vec<Category> = g
        .bottom_categories()
        .into_iter()
        .filter(|c| !c.is_all())
        .collect();
    plan.queries += bottoms.len() as u64;
    let (res, intr) = run_striped(
        &shared,
        jobs,
        bottoms.len(),
        "structure_census",
        |k, gov| {
            let c = bottoms[k];
            if !exposed.contains(c) && facts.known_unsat(c) {
                facts.record_hit();
                return Ok((Vec::new(), SearchStats::default(), true));
            }
            let (frozen, out) = solver.enumerate_frozen_governed(c, gov);
            match out.interrupted {
                Some(e) => Err(e),
                None => Ok((frozen, out.stats.clone(), false)),
            }
        },
    );
    let next = intr.as_ref().map(|&(k, _)| k);
    let mut pools: WitnessPools = HashMap::new();
    for (k, (frozen, stats, from_facts)) in res {
        report.stats.absorb(&stats);
        if next.is_none_or(|nx| k < nx) {
            decided.absorb(&stats);
        }
        let c = bottoms[k];
        report.structure_census.push((c, frozen.len()));
        if frozen.is_empty() && !from_facts {
            facts.note_unsat(c);
        }
        pools.insert(c, frozen);
    }
    report.structure_census.sort_by_key(|&(c, _)| {
        bottoms.iter().position(|&b| b == c).unwrap_or(usize::MAX)
    });
    if let Some((k, e)) = intr {
        report.interrupted = Some(e);
        report.checkpoint = Some(AuditCheckpoint {
            fingerprint: fp,
            stage: AuditStage::Census,
            next: k,
            stats: decided,
            unsatisfiable: report.unsatisfiable.clone(),
            aborted: report.aborted_categories.clone(),
            redundant: report.redundant_constraints.clone(),
            census: report
                .structure_census
                .iter()
                .filter(|&&(c, _)| bottoms.iter().position(|&b| b == c).is_some_and(|i| i < k))
                .copied()
                .collect(),
            rewrites: Vec::new(),
            sweep: None,
        });
        emit_audit_plan(&obs, plan, facts, hits_before);
        return report;
    }

    // Stage 4: the rewrites matrix striped over pairs, answered from the
    // pools with a shared memo-cache behind the solver fallback.
    let pairs = rewrite_pairs(g);
    plan.queries += (pairs.len() * bottoms.len()) as u64;
    let cache = ImplicationCache::for_schema(ds);
    let session = cache.begin_session();
    let pools = &pools;
    let exposed = &exposed;
    let batched_ref = &batched;
    let (res, intr) = run_striped(
        &shared,
        jobs,
        pairs.len(),
        "summarizability_matrix",
        |k, gov| {
            let (coarse, fine) = pairs[k];
            let out = planned_pair_battery(
                ds,
                coarse,
                fine,
                gov,
                Some(session),
                facts,
                pools,
                exposed,
                batched_ref,
            );
            match out.interrupt() {
                Some(e) => Err(e),
                None => Ok((out.summarizable(), out.stats.clone())),
            }
        },
    );
    let next = intr.as_ref().map(|&(k, _)| k);
    for &(k, (safe, ref stats)) in &res {
        report.stats.absorb(stats);
        if next.is_none_or(|nx| k < nx) {
            decided.absorb(stats);
        }
        if safe {
            report.safe_rewrites.push(pairs[k]);
        }
    }
    if let Some((k, e)) = intr {
        report.interrupted = Some(e);
        report.checkpoint = Some(AuditCheckpoint {
            fingerprint: fp,
            stage: AuditStage::Rewrites,
            next: k,
            stats: decided,
            unsatisfiable: report.unsatisfiable.clone(),
            aborted: report.aborted_categories.clone(),
            redundant: report.redundant_constraints.clone(),
            census: report.structure_census.clone(),
            rewrites: report
                .safe_rewrites
                .iter()
                .filter(|&&p| pairs.iter().position(|&q| q == p).is_some_and(|i| i < k))
                .copied()
                .collect(),
            sweep: None,
        });
    }
    plan.batched += batched.load(Ordering::Relaxed);
    emit_audit_plan(&obs, plan, facts, hits_before);
    report
}

/// Suggests a minimal constraint tightening: for each bottom category and
/// each schema edge out of it that no frozen dimension uses, propose the
/// negative into constraint `¬c_c'` (documenting dead edges); for each
/// edge used by *every* frozen dimension, propose the into constraint
/// `c_c'` (making the invariant explicit, which also speeds DIMSAT up).
pub fn suggest_into_constraints(ds: &DimensionSchema) -> Vec<DimensionConstraint> {
    let g = ds.hierarchy();
    let solver = Dimsat::new(ds);
    let mut suggestions = Vec::new();
    let existing: Vec<(Category, Category)> = ds.into_constraints();
    for c in g.categories() {
        if c.is_all() {
            continue;
        }
        let (frozen, _) = solver.enumerate_frozen(c);
        if frozen.is_empty() {
            continue;
        }
        for &p in g.parents(c) {
            if existing.contains(&(c, p)) {
                continue;
            }
            let used = frozen
                .iter()
                .filter(|f| f.subhierarchy().has_edge(c, p))
                .count();
            if used == frozen.len() {
                suggestions.push(DimensionConstraint::new(c, Constraint::path(vec![c, p])));
            }
        }
    }
    suggestions
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_constraint::parse_constraint;
    use odc_hierarchy::HierarchySchema;
    use std::sync::Arc;

    fn location_sch() -> DimensionSchema {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let province = b.category("Province");
        let state = b.category("State");
        let sale_region = b.category("SaleRegion");
        let country = b.category("Country");
        b.edge(store, city);
        b.edge(store, sale_region);
        b.edge(city, province);
        b.edge(city, state);
        b.edge(city, country);
        b.edge(province, sale_region);
        b.edge(state, sale_region);
        b.edge(state, country);
        b.edge(sale_region, country);
        b.edge(country, Category::ALL);
        let g = Arc::new(b.build().unwrap());
        DimensionSchema::parse(
            g,
            r#"
            Store_City
            Store.SaleRegion
            City = Washington <-> City_Country
            City = Washington -> City.Country = USA
            State.Country = Mexico | State.Country = USA
            State.Country = Mexico <-> State_SaleRegion
            Province.Country = Canada
            "#,
        )
        .unwrap()
    }

    #[test]
    fn clean_schema_audits_clean() {
        let ds = location_sch();
        let report = audit(&ds);
        assert!(report.unsatisfiable.is_empty());
        assert!(report.redundant_constraints.is_empty(), "Σ is minimal");
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        assert_eq!(report.structure_census, vec![(store, 4)]);
        let city = g.category_by_name("City").unwrap();
        let country = g.category_by_name("Country").unwrap();
        assert!(report.safe_rewrites.contains(&(country, city)));
        assert!(report.stats.expand_calls > 0, "audit stats accumulate");
        assert!(report.checkpoint.is_none());
        let rendered = report.render(&ds);
        assert!(rendered.contains("mixes 4 structure(s)"));
    }

    #[test]
    fn detects_unsatisfiable_category() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let ds2 = ds.with_constraint(parse_constraint(g, "!SaleRegion_Country").unwrap());
        let report = audit(&ds2);
        let sr = g.category_by_name("SaleRegion").unwrap();
        assert!(report.unsatisfiable.contains(&sr));
        // Store dies too: constraint (b) forces it to reach SaleRegion,
        // whose members cannot exist.
        assert!(report.render(&ds2).contains("SaleRegion"));
    }

    #[test]
    fn detects_redundant_constraint() {
        let ds = location_sch();
        let g = ds.hierarchy();
        // Store.City expands to exactly Store_City (the only Store→City
        // path is the direct edge), so the new constraint and the
        // original are *mutually* redundant — either could be dropped.
        let ds2 = ds.with_constraint(parse_constraint(g, "Store.City").unwrap());
        let report = audit(&ds2);
        assert_eq!(report.redundant_constraints, vec![0, 7]);
    }

    #[test]
    fn suggests_universal_into_edges() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let suggestions = suggest_into_constraints(&ds);
        // Country→All is in every frozen dimension of every category, and
        // is not yet an explicit into constraint.
        let country = g.category_by_name("Country").unwrap();
        assert!(suggestions
            .iter()
            .any(|dc| dc.as_into() == Some((country, Category::ALL))));
        // Store_City is already explicit: not suggested again.
        let store = g.category_by_name("Store").unwrap();
        let city = g.category_by_name("City").unwrap();
        assert!(!suggestions
            .iter()
            .any(|dc| dc.as_into() == Some((store, city))));
        // Suggestions are genuinely implied (they can be added without
        // changing the schema's models).
        for dc in &suggestions {
            assert!(implication::implies(&ds, dc).implied());
        }
    }

    #[test]
    fn parallel_audit_matches_serial() {
        use odc_govern::{Budget, CancelToken};
        let ds = location_sch();
        let serial = audit(&ds);
        for jobs in [1, 2, 4] {
            let par = audit_parallel(&ds, Budget::unlimited(), &CancelToken::new(), jobs);
            assert_eq!(par.unsatisfiable, serial.unsatisfiable, "jobs={jobs}");
            assert_eq!(
                par.redundant_constraints, serial.redundant_constraints,
                "jobs={jobs}"
            );
            assert_eq!(par.structure_census, serial.structure_census, "jobs={jobs}");
            assert_eq!(par.safe_rewrites, serial.safe_rewrites, "jobs={jobs}");
            assert!(par.interrupted.is_none());
        }
    }

    #[test]
    fn interrupted_audit_reports_undecided_categories() {
        use odc_govern::{Budget, CancelToken};
        let ds = location_sch();
        // Walk the node budget up until the sweep gets past at least one
        // category but not all of them; the report must name the rest.
        let mut saw_partial = false;
        for limit in 1..2000u64 {
            let mut gov = Governor::new(
                Budget::unlimited().with_node_limit(limit),
                CancelToken::new(),
            );
            let report = audit_governed(&ds, &mut gov);
            if report.interrupted.is_none() {
                break;
            }
            if !report.undecided_categories.is_empty()
                && report.undecided_categories.len() < ds.hierarchy().num_categories()
            {
                saw_partial = true;
                let rendered = report.render(&ds);
                assert!(rendered.contains("report is partial"));
                assert!(rendered.contains("categories not audited"));
            }
        }
        assert!(saw_partial, "no budget produced a partially-decided sweep");
    }

    #[test]
    fn suggestions_speed_up_dimsat() {
        let ds = location_sch();
        let mut tightened = ds.clone();
        for dc in suggest_into_constraints(&ds) {
            tightened = tightened.with_constraint(dc);
        }
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        let (f1, before) = Dimsat::new(&ds).enumerate_frozen(store);
        let (f2, after) = Dimsat::new(&tightened).enumerate_frozen(store);
        assert_eq!(f1.len(), f2.len(), "tightening must not change the models");
        assert!(
            after.stats.expand_calls <= before.stats.expand_calls,
            "more into constraints, no more work"
        );
    }

    /// Asserts every counter except `elapsed` matches.
    fn assert_stats_match(a: &SearchStats, b: &SearchStats, ctx: &str) {
        assert_eq!(a.expand_calls, b.expand_calls, "expand_calls {ctx}");
        assert_eq!(a.check_calls, b.check_calls, "check_calls {ctx}");
        assert_eq!(
            a.assignments_tested, b.assignments_tested,
            "assignments_tested {ctx}"
        );
        assert_eq!(a.frozen_found, b.frozen_found, "frozen_found {ctx}");
    }

    #[test]
    fn audit_resume_merges_to_uninterrupted_report() {
        use crate::checkpoint::load_audit_checkpoint;
        use odc_govern::{Budget, CancelToken};
        let ds = location_sch();
        let clean = audit(&ds);
        let mut stages_seen = std::collections::BTreeSet::new();
        // Dense at the low end (the sweep and census stages are cheap and
        // only interrupt under tiny budgets), sparse across the long
        // rewrite matrix.
        for limit in (1..400u64).chain((400..30_000).step_by(137)) {
            let mut gov = Governor::new(
                Budget::unlimited().with_node_limit(limit),
                CancelToken::new(),
            );
            let partial = audit_governed(&ds, &mut gov);
            let Some(cp) = partial.checkpoint else {
                assert!(partial.interrupted.is_none());
                continue;
            };
            stages_seen.insert(format!("{:?}", cp.stage));
            // Through the text form, like a real restart would.
            let cp = load_audit_checkpoint(&ds, &cp.to_text()).expect("roundtrip");
            let mut gov = Governor::unlimited();
            let merged = audit_resume(&ds, &cp, &mut gov).expect("same schema resumes");
            assert!(merged.interrupted.is_none(), "limit={limit}");
            assert_eq!(merged.unsatisfiable, clean.unsatisfiable, "limit={limit}");
            assert_eq!(
                merged.redundant_constraints, clean.redundant_constraints,
                "limit={limit}"
            );
            assert_eq!(
                merged.structure_census, clean.structure_census,
                "limit={limit}"
            );
            assert_eq!(merged.safe_rewrites, clean.safe_rewrites, "limit={limit}");
            assert_stats_match(&merged.stats, &clean.stats, &format!("limit={limit}"));
        }
        assert!(
            stages_seen.len() >= 3,
            "budget walk should interrupt several distinct stages, saw {stages_seen:?}"
        );
    }

    #[test]
    fn parallel_audit_resume_matches_clean_verdicts() {
        use odc_govern::{Budget, CancelToken};
        let ds = location_sch();
        let clean = audit(&ds);
        let mut resumed_any = false;
        for limit in (100..20_000u64).step_by(700) {
            let partial = audit_parallel(
                &ds,
                Budget::unlimited().with_node_limit(limit),
                &CancelToken::new(),
                4,
            );
            let Some(cp) = partial.checkpoint else {
                continue;
            };
            let merged = audit_resume_parallel(
                &ds,
                &cp,
                Budget::unlimited(),
                &CancelToken::new(),
                4,
                Obs::none(),
            )
            .expect("same schema resumes");
            assert!(merged.interrupted.is_none(), "limit={limit}");
            assert_eq!(merged.unsatisfiable, clean.unsatisfiable);
            assert_eq!(merged.redundant_constraints, clean.redundant_constraints);
            assert_eq!(merged.structure_census, clean.structure_census);
            assert_eq!(merged.safe_rewrites, clean.safe_rewrites);
            resumed_any = true;
        }
        assert!(resumed_any, "no budget produced a resumable parallel audit");
    }

    #[test]
    fn audit_resume_refuses_other_schema() {
        use odc_govern::{Budget, CancelToken};
        let ds = location_sch();
        let mut gov = Governor::new(
            Budget::unlimited().with_node_limit(50),
            CancelToken::new(),
        );
        let partial = audit_governed(&ds, &mut gov);
        let cp = partial.checkpoint.expect("tiny budget interrupts");
        let g = ds.hierarchy();
        let ds2 = ds.with_constraint(parse_constraint(g, "!SaleRegion_Country").unwrap());
        let mut gov = Governor::unlimited();
        assert!(matches!(
            audit_resume(&ds2, &cp, &mut gov),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn planned_audit_renders_identically_to_unplanned() {
        let ds = location_sch();
        let unplanned = audit(&ds);
        let planned = audit_planned(&ds);
        assert_eq!(
            planned.render(&ds),
            unplanned.render(&ds),
            "planned reordering must not change the report"
        );
        // The planner must have actually saved work: the Theorem-2 pools
        // answer rewrite queries the unplanned path solves one by one.
        assert!(
            planned.stats.expand_calls < unplanned.stats.expand_calls,
            "planned {} vs unplanned {} expand calls",
            planned.stats.expand_calls,
            unplanned.stats.expand_calls
        );
    }

    #[test]
    fn planned_parallel_audit_matches_unplanned() {
        use odc_govern::{Budget, CancelToken};
        let ds = location_sch();
        let serial = audit(&ds);
        for jobs in [1, 2, 4] {
            let par =
                audit_planned_parallel(&ds, Budget::unlimited(), &CancelToken::new(), jobs);
            assert_eq!(par.render(&ds), serial.render(&ds), "jobs={jobs}");
            assert!(par.interrupted.is_none());
        }
    }

    #[test]
    fn planned_audit_on_broken_schema_matches_unplanned() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let ds2 = ds.with_constraint(parse_constraint(g, "!SaleRegion_Country").unwrap());
        let unplanned = audit(&ds2);
        let planned = audit_planned(&ds2);
        assert_eq!(planned.render(&ds2), unplanned.render(&ds2));
        assert!(!planned.unsatisfiable.is_empty());
    }

    #[test]
    fn planned_audit_checkpoint_resumes_on_unplanned_path() {
        use crate::checkpoint::load_audit_checkpoint;
        use odc_govern::{Budget, CancelToken};
        let ds = location_sch();
        let clean = audit(&ds);
        let mut resumed_any = false;
        for limit in (1..400u64).chain((400..20_000).step_by(311)) {
            let mut gov = Governor::new(
                Budget::unlimited().with_node_limit(limit),
                CancelToken::new(),
            );
            let partial = audit_planned_governed(&ds, &mut gov);
            let Some(cp) = partial.checkpoint else {
                assert!(partial.interrupted.is_none());
                continue;
            };
            let cp = load_audit_checkpoint(&ds, &cp.to_text()).expect("roundtrip");
            let mut gov = Governor::unlimited();
            let merged = audit_resume(&ds, &cp, &mut gov).expect("same schema resumes");
            assert!(merged.interrupted.is_none(), "limit={limit}");
            assert_eq!(merged.unsatisfiable, clean.unsatisfiable, "limit={limit}");
            assert_eq!(
                merged.redundant_constraints, clean.redundant_constraints,
                "limit={limit}"
            );
            assert_eq!(
                merged.structure_census, clean.structure_census,
                "limit={limit}"
            );
            assert_eq!(merged.safe_rewrites, clean.safe_rewrites, "limit={limit}");
            resumed_any = true;
        }
        assert!(resumed_any, "no budget interrupted the planned audit");
    }

    /// Regression (bug: the serial CLI `check` ran every implication
    /// cold): repeating an audit through the same schema-fingerprinted
    /// memo-cache must answer repeated implications from the cache.
    #[test]
    fn repeated_memo_audit_hits_cache() {
        let ds = location_sch();
        let cache = ImplicationCache::for_schema(&ds);
        let mut gov = Governor::unlimited();
        let first = audit_governed_memo(&ds, &mut gov, &cache);
        assert!(first.interrupted.is_none());
        let mut gov = Governor::unlimited();
        let second = audit_governed_memo(&ds, &mut gov, &cache);
        assert!(
            second.stats.cache_hits > 0,
            "second audit through the same cache must reuse memoized implications"
        );
        assert_eq!(second.render(&ds), first.render(&ds));
    }
}
