//! The Theorem-1 constraint construction and the schema-level
//! summarizability test.

use crate::checkpoint::BatteryCheckpoint;
use odc_constraint::{expand, Constraint, DimensionConstraint, DimensionSchema};
use odc_dimsat::checkpoint::options_key;
use odc_dimsat::{
    implication, CacheSession, DimsatOptions, ImplicationCache, ImplicationVerdict, SearchStats,
};
use odc_frozen::FrozenDimension;
use odc_govern::{Budget, CancelToken, CheckpointError, Governor, Interrupt, SharedGovernor};
use odc_hierarchy::{Category, HierarchySchema};
use odc_obs::{Obs, WorkerStats};

/// Builds the Theorem-1 constraints for "`c` is summarizable from `S`":
/// one constraint `c_b.c ⊃ ⊙_{ci∈S} c_b.ci.c` per bottom category `c_b`
/// of the hierarchy schema.
pub fn summarizability_constraints(
    g: &HierarchySchema,
    c: Category,
    s: &[Category],
) -> Vec<DimensionConstraint> {
    g.bottom_categories()
        .into_iter()
        .filter(|cb| !cb.is_all())
        .map(|cb| {
            let antecedent = expand::rolls_up_to(g, cb, c);
            let branches: Vec<Constraint> = s
                .iter()
                .map(|&ci| expand::rolls_up_through(g, cb, ci, c))
                .collect();
            let formula = Constraint::implies(antecedent, Constraint::ExactlyOne(branches));
            DimensionConstraint::new(cb, formula)
        })
        .collect()
}

/// The three-valued answer of a governed summarizability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SummarizabilityVerdict {
    /// Every Theorem-1 constraint is implied: the rewriting is correct in
    /// **every** instance of the schema.
    Summarizable,
    /// Some bottom category has a countermodel.
    NotSummarizable,
    /// A bottom-category implication query was interrupted before the
    /// battery reached a conclusion.
    Unknown(Interrupt),
}

/// The result of a schema-level summarizability query.
#[derive(Debug, Clone)]
pub struct SummarizabilityOutcome {
    /// Summarizable, NotSummarizable, or Unknown with the interrupt.
    pub verdict: SummarizabilityVerdict,
    /// The bottom category whose Theorem-1 constraint failed (when not
    /// summarizable).
    pub failing_bottom: Option<Category>,
    /// A frozen countermodel: a minimal instance shape in which the
    /// rewriting would be wrong.
    pub counterexample: Option<FrozenDimension>,
    /// Accumulated DIMSAT statistics over all bottom-category queries
    /// (populated even on interrupted runs).
    pub stats: SearchStats,
    /// On an interrupted battery: the constraint-granular cursor to
    /// resume from ([`crate::resume_summarizability`]). Its stats cover
    /// the *decided* constraints only, so an interrupted-plus-resumed
    /// battery's totals match an uninterrupted one's.
    pub checkpoint: Option<BatteryCheckpoint>,
}

impl SummarizabilityOutcome {
    /// Whether summarizability was *proved*. `false` covers both
    /// NotSummarizable and Unknown — check [`Self::is_unknown`] when the
    /// run was budgeted.
    pub fn summarizable(&self) -> bool {
        matches!(self.verdict, SummarizabilityVerdict::Summarizable)
    }

    /// Whether a countermodel was found.
    pub fn not_summarizable(&self) -> bool {
        matches!(self.verdict, SummarizabilityVerdict::NotSummarizable)
    }

    /// Whether the battery ended without an answer.
    pub fn is_unknown(&self) -> bool {
        matches!(self.verdict, SummarizabilityVerdict::Unknown(_))
    }

    /// The interrupt that cut the battery short, if any.
    pub fn interrupt(&self) -> Option<Interrupt> {
        match self.verdict {
            SummarizabilityVerdict::Unknown(i) => Some(i),
            _ => None,
        }
    }
}

/// Tests whether `c` is summarizable from `S` in every instance over
/// `ds`, by checking implication of each Theorem-1 constraint (Theorem 2 +
/// DIMSAT).
pub fn is_summarizable_in_schema(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
) -> SummarizabilityOutcome {
    is_summarizable_in_schema_with(ds, c, s, DimsatOptions::default())
}

/// [`is_summarizable_in_schema`] with explicit DIMSAT options (used by the
/// ablation benchmarks).
pub fn is_summarizable_in_schema_with(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
) -> SummarizabilityOutcome {
    let mut gov = Governor::unlimited();
    is_summarizable_in_schema_governed(ds, c, s, opts, &mut gov)
}

/// [`is_summarizable_in_schema`] under a caller-supplied [`Governor`]:
/// the whole Theorem-1 battery (one implication query per bottom
/// category) draws from one shared budget.
pub fn is_summarizable_in_schema_governed(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    gov: &mut Governor,
) -> SummarizabilityOutcome {
    battery_governed(ds, c, s, opts, gov, None)
}

/// [`is_summarizable_in_schema_governed`] through an implication
/// memo-cache: queries already answered for this schema (by any worker
/// or any earlier battery sharing the cache) are served without a search.
pub fn is_summarizable_in_schema_memo(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    gov: &mut Governor,
    cache: &ImplicationCache,
) -> SummarizabilityOutcome {
    is_summarizable_in_schema_session(ds, c, s, opts, gov, cache.begin_session())
}

/// [`is_summarizable_in_schema_memo`] under a caller-owned
/// [`CacheSession`]: the whole battery shares the session, so reuse
/// *within* this battery is a plain hit while reuse of entries an earlier
/// session stored (a warm server catalog) counts as a cross-session hit.
pub fn is_summarizable_in_schema_session(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    gov: &mut Governor,
    session: CacheSession<'_>,
) -> SummarizabilityOutcome {
    battery_governed(ds, c, s, opts, gov, Some(session))
}

/// Resumes an interrupted Theorem-1 battery from its checkpoint: the
/// constraints before `cp.next` are taken as proved (their counters are
/// seeded from the checkpoint), and the battery continues from the first
/// undecided one. Refuses a checkpoint whose schema fingerprint or
/// DIMSAT options differ from the ones supplied.
pub fn resume_summarizability(
    ds: &DimensionSchema,
    cp: &BatteryCheckpoint,
    opts: DimsatOptions,
    gov: &mut Governor,
) -> Result<SummarizabilityOutcome, CheckpointError> {
    let fp = implication::schema_fingerprint(ds);
    if cp.fingerprint != fp {
        return Err(CheckpointError::FingerprintMismatch {
            found: cp.fingerprint,
            expected: fp,
        });
    }
    let key = options_key(&opts);
    if cp.options_key != key {
        return Err(CheckpointError::malformed(format!(
            "checkpoint was recorded under options [{}], resume requested [{}]",
            cp.options_key, key
        )));
    }
    Ok(battery_governed_from(
        ds,
        cp.target,
        &cp.sources,
        opts,
        gov,
        None,
        cp.next,
        cp.stats.clone(),
    ))
}

fn battery_governed(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    gov: &mut Governor,
    cache: Option<CacheSession<'_>>,
) -> SummarizabilityOutcome {
    battery_governed_from(ds, c, s, opts, gov, cache, 0, SearchStats::default())
}

/// The battery body, parameterized over a resume point: constraints
/// before `first` are assumed already proved (their stats arrive in
/// `decided_stats`). The outcome's `stats` include the interrupted
/// query's partial counters; the *checkpoint's* stats do not, since that
/// query re-runs in full on resume.
#[allow(clippy::too_many_arguments)]
fn battery_governed_from(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    gov: &mut Governor,
    cache: Option<CacheSession<'_>>,
    first: usize,
    decided_stats: SearchStats,
) -> SummarizabilityOutcome {
    let mut stats = decided_stats.clone();
    let mut decided_stats = decided_stats;
    for (i, dc) in summarizability_constraints(ds.hierarchy(), c, s)
        .into_iter()
        .enumerate()
        .skip(first)
    {
        let root = dc.root();
        let out = match cache {
            Some(session) => implication::implies_memo_session(ds, &dc, opts, gov, session),
            None => implication::implies_governed(ds, &dc, opts, gov),
        };
        stats.absorb(&out.stats);
        if let Some(intr) = out.interrupt() {
            return SummarizabilityOutcome {
                verdict: SummarizabilityVerdict::Unknown(intr),
                failing_bottom: None,
                counterexample: None,
                stats,
                checkpoint: Some(BatteryCheckpoint {
                    fingerprint: implication::schema_fingerprint(ds),
                    options_key: options_key(&opts),
                    target: c,
                    sources: s.to_vec(),
                    next: i,
                    stats: decided_stats,
                }),
            };
        }
        decided_stats.absorb(&out.stats);
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

/// Answers one Theorem-1 battery constraint from a *complete* witness
/// pool — the full enumeration of inducing subhierarchies rooted at the
/// constraint's bottom (what a census stage produces).
///
/// By Theorem 2, `ds ⊨ α` (α rooted at `b`) iff every frozen dimension
/// of `ds` rooted at `b` satisfies α. When α's truth on each witness is
/// decided by graph structure alone ([`odc_plan::eval_structural`]
/// returns `Some`), one witness per inducing subhierarchy is exactly the
/// quantification Theorem 2 demands, so the pool answers the implication
/// with zero search:
///
/// - `Some(Ok(()))` — every witness satisfies α: implied.
/// - `Some(Err(w))` — `w` violates α structurally (every assignment
///   over its subhierarchy violates it): a genuine countermodel.
/// - `None` — some witness's verdict depends on member assignments
///   (`Eq`/`Ord` atoms): fall back to a real solve, where one witness
///   per subhierarchy is no longer sufficient.
pub fn decide_from_pool(
    dc: &DimensionConstraint,
    pool: &[FrozenDimension],
) -> Option<Result<(), FrozenDimension>> {
    let mut undecided = false;
    for w in pool {
        match odc_plan::eval_structural(w.subhierarchy(), dc.formula()) {
            Some(true) => {}
            // A structural violation refutes regardless of whether other
            // witnesses were evaluable.
            Some(false) => return Some(Err(w.clone())),
            None => undecided = true,
        }
    }
    if undecided {
        None
    } else {
        Some(Ok(()))
    }
}

/// The *planned* Theorem-1 battery: constraints are normalized, deduped,
/// and cost-ordered by [`odc_plan::plan_battery`] before any search runs,
/// so cheap refutations come first and structurally identical queries are
/// solved once. The yes/no verdict matches the unplanned battery under a
/// sufficient budget; like the parallel battery, when several bottoms
/// fail the reported `failing_bottom` is the first one *found* in planned
/// order (any countermodel is a proof). On an interrupt the checkpoint
/// keeps the decided prefix only, so the unplanned resume path consumes
/// it unchanged.
pub fn is_summarizable_in_schema_planned(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    gov: &mut Governor,
    session: Option<CacheSession<'_>>,
) -> (SummarizabilityOutcome, odc_plan::PlanStats) {
    let constraints = summarizability_constraints(ds.hierarchy(), c, s);
    let plan = odc_plan::plan_battery(ds, &constraints);
    let mut implied: Vec<bool> = vec![false; constraints.len()];
    let mut per_item: Vec<(usize, SearchStats)> = Vec::new();
    let mut stats = SearchStats::default();
    for &i in &plan.order {
        let dc = &constraints[i];
        let out = match session {
            Some(sess) => implication::implies_memo_session(ds, dc, opts, gov, sess),
            None => implication::implies_governed(ds, dc, opts, gov),
        };
        stats.absorb(&out.stats);
        if let Some(intr) = out.interrupt() {
            // Decided-prefix checkpoint: aliases of decided canonicals
            // count as decided, everything from the first open index on
            // re-runs under the unplanned resume.
            let decided_at = |k: usize| match plan.alias_of[k] {
                Some(j) => implied[j],
                None => implied[k],
            };
            let next = (0..constraints.len())
                .find(|&k| !decided_at(k))
                .unwrap_or(constraints.len());
            let mut decided = SearchStats::default();
            for (k, s) in &per_item {
                if *k < next {
                    decided.absorb(s);
                }
            }
            let outcome = SummarizabilityOutcome {
                verdict: SummarizabilityVerdict::Unknown(intr),
                failing_bottom: None,
                counterexample: None,
                stats,
                checkpoint: Some(BatteryCheckpoint {
                    fingerprint: implication::schema_fingerprint(ds),
                    options_key: options_key(&opts),
                    target: c,
                    sources: s.to_vec(),
                    next,
                    stats: decided,
                }),
            };
            return (outcome, plan.stats);
        }
        per_item.push((i, out.stats.clone()));
        if !out.implied() {
            let outcome = SummarizabilityOutcome {
                verdict: SummarizabilityVerdict::NotSummarizable,
                failing_bottom: Some(dc.root()),
                counterexample: out.counterexample,
                stats,
                checkpoint: None,
            };
            return (outcome, plan.stats);
        }
        implied[i] = true;
    }
    let outcome = SummarizabilityOutcome {
        verdict: SummarizabilityVerdict::Summarizable,
        failing_bottom: None,
        counterexample: None,
        stats,
        checkpoint: None,
    };
    (outcome, plan.stats)
}

/// Per-worker result of the parallel battery.
struct WorkerReport {
    stats: SearchStats,
    /// Per-constraint stats of the queries this worker *decided* (used to
    /// rebuild the decided-prefix counters of a resume checkpoint).
    per_item: Vec<(usize, SearchStats)>,
    /// Lowest-index failing constraint this worker proved, if any.
    failing: Option<(usize, Category, Option<FrozenDimension>)>,
    /// Lowest-index query this worker had to abandon, if any.
    unknown: Option<(usize, Interrupt)>,
}

/// The Theorem-1 battery split across `jobs` worker threads under one
/// shared budget, with first-countermodel cancellation: as soon as any
/// worker refutes its constraint, a battery-internal child of `cancel`
/// stops the remaining workers (the caller's token is never flipped).
///
/// Verdicts match the serial battery under a sufficient budget. When
/// several bottom categories fail, the reported `failing_bottom` is the
/// lowest-indexed one *found* — cancellation may settle on a different
/// (equally valid) witness than serial order would. A countermodel found
/// by any worker wins over another worker's budget interrupt: it is a
/// proof, so the verdict is `NotSummarizable` even if part of the battery
/// went unexplored.
pub fn is_summarizable_in_schema_parallel(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    budget: Budget,
    cancel: &CancelToken,
    jobs: usize,
) -> SummarizabilityOutcome {
    is_summarizable_in_schema_parallel_observed(ds, c, s, opts, budget, cancel, jobs, Obs::none())
}

/// [`is_summarizable_in_schema_parallel`] with a structured-event
/// observer: every worker governor inherits the sink (budget heartbeats,
/// per-solve events) and each worker reports its per-worker counters when
/// its stripe drains.
#[allow(clippy::too_many_arguments)]
pub fn is_summarizable_in_schema_parallel_observed(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    budget: Budget,
    cancel: &CancelToken,
    jobs: usize,
    obs: Obs,
) -> SummarizabilityOutcome {
    let constraints = summarizability_constraints(ds.hierarchy(), c, s);
    let jobs = jobs.max(1).min(constraints.len().max(1));
    if jobs <= 1 {
        let mut gov = Governor::new(budget, cancel.clone()).with_observer(obs);
        return battery_governed(ds, c, s, opts, &mut gov, None);
    }
    let battery = cancel.child();
    let shared = SharedGovernor::new(budget, battery.clone()).with_observer(obs);
    let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let mut gov = shared.worker();
                let battery = &battery;
                let constraints = &constraints;
                scope.spawn(move || {
                    let mut rep = WorkerReport {
                        stats: SearchStats::default(),
                        per_item: Vec::new(),
                        failing: None,
                        unknown: None,
                    };
                    let mut items = 0u64;
                    for (i, dc) in constraints.iter().enumerate().skip(w).step_by(jobs) {
                        let out = implication::implies_governed(ds, dc, opts, &mut gov);
                        rep.stats.absorb(&out.stats);
                        items += 1;
                        if out.interrupt().is_none() {
                            rep.per_item.push((i, out.stats.clone()));
                        }
                        match out.verdict {
                            ImplicationVerdict::Implied => {}
                            ImplicationVerdict::NotImplied => {
                                rep.failing = Some((i, dc.root(), out.counterexample));
                                battery.cancel();
                                break;
                            }
                            ImplicationVerdict::Unknown(intr) => {
                                rep.unknown = Some((i, intr));
                                break;
                            }
                        }
                    }
                    gov.obs().worker_finished(&WorkerStats {
                        battery: "theorem1_battery",
                        worker: gov.worker_id().unwrap_or(w as u64),
                        nodes: gov.nodes(),
                        checks: gov.checks(),
                        items,
                    });
                    rep
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(rep) => rep,
                // A worker panic is a bug, not a verdict: re-raise it
                // instead of reporting the stripe as cleanly cancelled.
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });

    let mut stats = SearchStats::default();
    let mut per_item: Vec<(usize, SearchStats)> = Vec::new();
    let mut failing: Option<(usize, Category, Option<FrozenDimension>)> = None;
    let mut unknown: Option<(usize, Interrupt)> = None;
    for rep in reports {
        stats.absorb(&rep.stats);
        per_item.extend(rep.per_item);
        if let Some((i, root, cx)) = rep.failing {
            let replace = match &failing {
                None => true,
                Some((j, _, _)) => i < *j,
            };
            if replace {
                failing = Some((i, root, cx));
            }
        }
        if let Some((i, intr)) = rep.unknown {
            let replace = match unknown {
                None => true,
                Some((j, _)) => i < j,
            };
            if replace {
                unknown = Some((i, intr));
            }
        }
    }
    if let Some((_, root, cx)) = failing {
        return SummarizabilityOutcome {
            verdict: SummarizabilityVerdict::NotSummarizable,
            failing_bottom: Some(root),
            counterexample: cx,
            stats,
            checkpoint: None,
        };
    }
    if let Some((next, intr)) = unknown {
        // The checkpoint keeps only the decided *prefix* — constraints
        // other workers proved beyond the interrupt index re-run on
        // resume, so the merged totals stay identical to a clean run.
        let mut decided = SearchStats::default();
        for (i, s) in &per_item {
            if *i < next {
                decided.absorb(s);
            }
        }
        return SummarizabilityOutcome {
            verdict: SummarizabilityVerdict::Unknown(intr),
            failing_bottom: None,
            counterexample: None,
            stats,
            checkpoint: Some(BatteryCheckpoint {
                fingerprint: implication::schema_fingerprint(ds),
                options_key: options_key(&opts),
                target: c,
                sources: s.to_vec(),
                next,
                stats: decided,
            }),
        };
    }
    SummarizabilityOutcome {
        verdict: SummarizabilityVerdict::Summarizable,
        failing_bottom: None,
        counterexample: None,
        stats,
        checkpoint: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn cat(ds: &DimensionSchema, n: &str) -> Category {
        ds.hierarchy().category_by_name(n).unwrap()
    }

    #[test]
    fn constraint_construction_one_per_bottom() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let cs = summarizability_constraints(g, cat(&ds, "Country"), &[cat(&ds, "City")]);
        assert_eq!(cs.len(), 1, "location has one bottom category");
        assert_eq!(cs[0].root(), cat(&ds, "Store"));
        assert!(matches!(cs[0].formula(), Constraint::Implies(_, _)));
    }

    #[test]
    fn example_10_country_from_city_schema_level() {
        // The schema-level strengthening of Example 10's positive claim:
        // every instance of locationSch routes Country through exactly one
        // City.
        let ds = location_sch();
        let out = is_summarizable_in_schema(&ds, cat(&ds, "Country"), &[cat(&ds, "City")]);
        assert!(out.summarizable());
        assert!(out.counterexample.is_none());
    }

    #[test]
    fn example_10_country_not_from_state_province() {
        // The Washington structure breaks {State, Province} (Example 10's
        // negative claim): it reaches Country through neither.
        let ds = location_sch();
        let out = is_summarizable_in_schema(
            &ds,
            cat(&ds, "Country"),
            &[cat(&ds, "State"), cat(&ds, "Province")],
        );
        assert!(!out.summarizable());
        assert_eq!(out.failing_bottom, Some(cat(&ds, "Store")));
        let cx = out.counterexample.expect("countermodel");
        let state = cat(&ds, "State");
        let province = cat(&ds, "Province");
        assert!(
            !cx.subhierarchy().contains(state) && !cx.subhierarchy().contains(province),
            "the countermodel should be the Washington structure"
        );
    }

    #[test]
    fn summarizable_from_self() {
        let ds = location_sch();
        for name in ["Country", "City", "SaleRegion"] {
            let c = cat(&ds, name);
            let out = is_summarizable_in_schema(&ds, c, &[c]);
            assert!(out.summarizable(), "{name} must be summarizable from itself");
        }
    }

    #[test]
    fn all_from_country() {
        // Every store reaches All through exactly one country? Frozen
        // dimensions all contain Country on every path to All… Country is
        // on every path (the only edge into All). So yes.
        let ds = location_sch();
        let out = is_summarizable_in_schema(&ds, Category::ALL, &[cat(&ds, "Country")]);
        assert!(out.summarizable());
    }

    #[test]
    fn sale_region_not_summarizable_from_state() {
        // Canadian stores reach SaleRegion via Province, not State.
        let ds = location_sch();
        let out = is_summarizable_in_schema(&ds, cat(&ds, "SaleRegion"), &[cat(&ds, "State")]);
        assert!(!out.summarizable());
    }

    #[test]
    fn sale_region_from_state_and_province_fails_on_us_stores() {
        // US stores reach SaleRegion directly (Store→SaleRegion), passing
        // through neither State nor Province.
        let ds = location_sch();
        let out = is_summarizable_in_schema(
            &ds,
            cat(&ds, "SaleRegion"),
            &[cat(&ds, "State"), cat(&ds, "Province")],
        );
        assert!(!out.summarizable());
    }

    #[test]
    fn empty_source_set_only_works_if_nothing_reaches_target() {
        let ds = location_sch();
        // ⊙∅ is false, so summarizable-from-∅ requires that no store ever
        // reaches Country — false here.
        let out = is_summarizable_in_schema(&ds, cat(&ds, "Country"), &[]);
        assert!(!out.summarizable());
    }

    #[test]
    fn stats_accumulate() {
        let ds = location_sch();
        let out = is_summarizable_in_schema(&ds, cat(&ds, "Country"), &[cat(&ds, "City")]);
        assert!(out.stats.expand_calls > 0);
    }

    /// Four bottom categories, so the battery has four constraints to
    /// split across workers.
    fn multi_bottom_sch() -> DimensionSchema {
        let mut b = HierarchySchema::builder();
        let mid = b.category("Mid");
        let top = b.category("Top");
        for name in ["B0", "B1", "B2", "B3"] {
            let bottom = b.category(name);
            b.edge(bottom, mid);
        }
        b.edge(mid, top);
        b.edge_to_all(top);
        let g = Arc::new(b.build().unwrap());
        DimensionSchema::parse(g, "B0_Mid\nB1_Mid\nB2_Mid\nB3_Mid\n").unwrap()
    }

    #[test]
    fn parallel_battery_matches_serial() {
        use odc_govern::{Budget, CancelToken};
        let ds = multi_bottom_sch();
        let top = cat(&ds, "Top");
        let mid = cat(&ds, "Mid");
        for (target, sources) in [(top, vec![mid]), (top, vec![]), (mid, vec![top])] {
            let serial = is_summarizable_in_schema(&ds, target, &sources);
            for jobs in [1, 2, 4, 8] {
                let par = is_summarizable_in_schema_parallel(
                    &ds,
                    target,
                    &sources,
                    DimsatOptions::default(),
                    Budget::unlimited(),
                    &CancelToken::new(),
                    jobs,
                );
                assert_eq!(par.verdict, serial.verdict, "jobs={jobs}");
                assert_eq!(par.failing_bottom.is_some(), serial.failing_bottom.is_some());
            }
        }
    }

    #[test]
    fn parallel_battery_respects_caller_cancellation() {
        use odc_govern::{Budget, CancelToken};
        let ds = multi_bottom_sch();
        let token = CancelToken::new();
        token.cancel();
        let out = is_summarizable_in_schema_parallel(
            &ds,
            cat(&ds, "Top"),
            &[cat(&ds, "Mid")],
            DimsatOptions::default(),
            Budget::unlimited(),
            &token,
            4,
        );
        assert!(out.is_unknown(), "pre-cancelled battery must not decide");
    }

    #[test]
    fn memo_battery_hits_cache_on_second_run() {
        let ds = location_sch();
        let cache = ImplicationCache::for_schema(&ds);
        let mut gov = Governor::unlimited();
        let first = is_summarizable_in_schema_memo(
            &ds,
            cat(&ds, "Country"),
            &[cat(&ds, "City")],
            DimsatOptions::default(),
            &mut gov,
            &cache,
        );
        let second = is_summarizable_in_schema_memo(
            &ds,
            cat(&ds, "Country"),
            &[cat(&ds, "City")],
            DimsatOptions::default(),
            &mut gov,
            &cache,
        );
        assert_eq!(first.verdict, second.verdict);
        assert!(first.stats.cache_misses > 0 && first.stats.cache_hits == 0);
        assert!(second.stats.cache_hits > 0 && second.stats.cache_misses == 0);
        assert_eq!(second.stats.expand_calls, 0, "cached answer needs no search");
    }

    /// A schema with three bottom categories, so the Theorem-1 battery
    /// has three independently-checkpointable implication queries.
    fn tri_bottom_sch() -> DimensionSchema {
        let mut b = HierarchySchema::builder();
        let wa = b.category("WarehouseA");
        let wb = b.category("WarehouseB");
        let wc = b.category("WarehouseC");
        let city = b.category("City");
        let region = b.category("Region");
        let country = b.category("Country");
        b.edge(wa, city);
        b.edge(wb, city);
        b.edge(wc, city);
        b.edge(wc, region);
        b.edge(city, region);
        b.edge(city, country);
        b.edge(region, country);
        b.edge(country, Category::ALL);
        let g = Arc::new(b.build().unwrap());
        DimensionSchema::parse(
            g,
            r#"
            WarehouseA_City
            WarehouseB_City
            WarehouseC.City
            City.Country = Chile -> City_Country
            "#,
        )
        .unwrap()
    }

    fn assert_battery_stats_match(a: &SearchStats, b: &SearchStats, ctx: &str) {
        assert_eq!(a.expand_calls, b.expand_calls, "expand_calls {ctx}");
        assert_eq!(a.check_calls, b.check_calls, "check_calls {ctx}");
        assert_eq!(
            a.assignments_tested, b.assignments_tested,
            "assignments_tested {ctx}"
        );
    }

    #[test]
    fn battery_resume_merges_to_uninterrupted_verdict() {
        use crate::checkpoint::load_battery_checkpoint;
        let ds = tri_bottom_sch();
        let target = cat(&ds, "Country");
        let sources = [cat(&ds, "City")];
        let clean =
            is_summarizable_in_schema(&ds, target, &sources);
        assert_eq!(
            summarizability_constraints(ds.hierarchy(), target, &sources).len(),
            3,
            "three bottoms, three battery items"
        );
        let mut mid_battery = false;
        for limit in 1..3000u64 {
            let mut gov = Governor::new(
                Budget::unlimited().with_node_limit(limit),
                CancelToken::new(),
            );
            let partial = is_summarizable_in_schema_governed(
                &ds,
                target,
                &sources,
                DimsatOptions::default(),
                &mut gov,
            );
            if !partial.is_unknown() {
                assert_eq!(partial.verdict, clean.verdict);
                break;
            }
            let cp = partial.checkpoint.expect("interrupted battery checkpoints");
            if cp.next > 0 {
                mid_battery = true;
            }
            // Through the text form, like a real restart would.
            let cp = load_battery_checkpoint(&ds, &cp.to_text()).expect("roundtrip");
            let mut gov = Governor::unlimited();
            let merged =
                resume_summarizability(&ds, &cp, DimsatOptions::default(), &mut gov)
                    .expect("same schema resumes");
            assert_eq!(merged.verdict, clean.verdict, "limit={limit}");
            assert_battery_stats_match(&merged.stats, &clean.stats, &format!("limit={limit}"));
        }
        assert!(mid_battery, "no budget interrupted past the first item");
    }

    #[test]
    fn battery_resume_refuses_other_schema_or_options() {
        let ds = tri_bottom_sch();
        let target = cat(&ds, "Country");
        let sources = [cat(&ds, "City")];
        let mut gov = Governor::new(
            Budget::unlimited().with_node_limit(4),
            CancelToken::new(),
        );
        let partial = is_summarizable_in_schema_governed(
            &ds,
            target,
            &sources,
            DimsatOptions::default(),
            &mut gov,
        );
        let cp = partial.checkpoint.expect("tiny budget interrupts");
        let other = location_sch();
        let mut gov = Governor::unlimited();
        assert!(matches!(
            resume_summarizability(&other, &cp, DimsatOptions::default(), &mut gov),
            Err(odc_govern::CheckpointError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            resume_summarizability(&ds, &cp, DimsatOptions::without_into_pruning(), &mut gov),
            Err(odc_govern::CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn parallel_battery_resume_matches_serial_verdict() {
        use crate::checkpoint::load_battery_checkpoint;
        let ds = tri_bottom_sch();
        let target = cat(&ds, "Country");
        let sources = [cat(&ds, "City")];
        let clean = is_summarizable_in_schema(&ds, target, &sources);
        let mut resumed_any = false;
        for limit in (1..3000u64).step_by(7) {
            let partial = is_summarizable_in_schema_parallel(
                &ds,
                target,
                &sources,
                DimsatOptions::default(),
                Budget::unlimited().with_node_limit(limit),
                &CancelToken::new(),
                3,
            );
            if !partial.is_unknown() {
                continue;
            }
            let Some(cp) = partial.checkpoint else {
                continue;
            };
            let cp = load_battery_checkpoint(&ds, &cp.to_text()).expect("roundtrip");
            let mut gov = Governor::unlimited();
            let merged =
                resume_summarizability(&ds, &cp, DimsatOptions::default(), &mut gov)
                    .expect("same schema resumes");
            assert_eq!(merged.verdict, clean.verdict, "limit={limit}");
            assert_battery_stats_match(&merged.stats, &clean.stats, &format!("limit={limit}"));
            resumed_any = true;
        }
        assert!(resumed_any, "no budget produced a resumable parallel battery");
    }
}
