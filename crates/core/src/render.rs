//! Answer text shared by the `odc` CLI and the `odc serve` protocol.
//!
//! Each paper question has one renderer, so a one-shot CLI run and a
//! resident server answer the same query with the same bytes. Callers
//! append only their own annotations (retry counts, hints, checkpoint
//! pointers) after the rendered answer.

use odc_constraint::printer::display_dc;
use odc_constraint::DimensionSchema;
use odc_dimsat::{DimsatOutcome, ImplicationOutcome, ImplicationVerdict, Verdict};
use odc_frozen::FrozenDimension;
use odc_govern::Interrupt;
use odc_summarizability::advisor::{suggest_into_constraints, SchemaReport};
use odc_summarizability::{SummarizabilityOutcome, SummarizabilityVerdict};

/// How many partial results an *interrupted* frozen enumeration lists.
/// A cancelled exponential enumeration can hold tens of thousands of
/// partial frozen dimensions; listing them all makes the answer
/// unboundedly large (hundreds of MB on a depth-40 ladder), which a
/// draining server cannot flush before its grace expires. The decided
/// listing is never capped.
pub const PARTIAL_LISTING_CAP: usize = 32;

/// `<label>: true|false|unknown (<interrupt>)`, then the countermodel
/// line when one was found.
fn verdict_with_countermodel(
    ds: &DimensionSchema,
    label: &str,
    decided: Result<bool, Interrupt>,
    countermodel: Option<&FrozenDimension>,
) -> String {
    let mut out = match decided {
        Ok(v) => format!("{label}: {v}\n"),
        Err(i) => format!("{label}: unknown ({i})\n"),
    };
    if let Some(cx) = countermodel {
        out.push_str(&format!("countermodel: {}\n", cx.display(ds)));
    }
    out
}

/// The answer to `implies`: `implied: …` plus the countermodel of a
/// negative verdict.
pub fn implication(ds: &DimensionSchema, out: &ImplicationOutcome) -> String {
    let decided = match out.verdict {
        ImplicationVerdict::Implied => Ok(true),
        ImplicationVerdict::NotImplied => Ok(false),
        ImplicationVerdict::Unknown(i) => Err(i),
    };
    verdict_with_countermodel(ds, "implied", decided, out.counterexample.as_ref())
}

/// The answer to `summarizable`: `summarizable: …` plus the
/// countermodel of a negative verdict.
pub fn summarizability(ds: &DimensionSchema, out: &SummarizabilityOutcome) -> String {
    let decided = match out.verdict {
        SummarizabilityVerdict::Summarizable => Ok(true),
        SummarizabilityVerdict::NotSummarizable => Ok(false),
        SummarizabilityVerdict::Unknown(i) => Err(i),
    };
    verdict_with_countermodel(ds, "summarizable", decided, out.counterexample.as_ref())
}

/// The answer to `frozen`: the header with search counters, one line
/// per frozen dimension (capped at [`PARTIAL_LISTING_CAP`] when the
/// enumeration was interrupted), and the interrupt line.
pub fn frozen_listing(
    ds: &DimensionSchema,
    root: &str,
    frozen: &[FrozenDimension],
    outcome: &DimsatOutcome,
) -> String {
    let shown = if outcome.interrupted.is_some() {
        frozen.len().min(PARTIAL_LISTING_CAP)
    } else {
        frozen.len()
    };
    let mut out = format!(
        "{} frozen dimension(s) with root {} ({} EXPAND, {} CHECK):\n",
        frozen.len(),
        root,
        outcome.stats.expand_calls,
        outcome.stats.check_calls
    );
    for (i, f) in frozen.iter().take(shown).enumerate() {
        out.push_str(&format!("  f{}: {}\n", i + 1, f.display(ds)));
    }
    if frozen.len() > shown {
        out.push_str(&format!(
            "  ... {} more partial result(s) not shown\n",
            frozen.len() - shown
        ));
    }
    if let Some(i) = &outcome.interrupted {
        out.push_str(&format!(
            "enumeration interrupted ({i}); listing is partial\n"
        ));
    }
    out
}

/// The answer to `check` (the schema audit): the report, then, when the
/// audit finished, the implied *into* constraints worth making explicit.
pub fn audit(ds: &DimensionSchema, report: &SchemaReport) -> String {
    let mut out = report.render(ds);
    if report.interrupted.is_none() {
        let suggestions = suggest_into_constraints(ds);
        if !suggestions.is_empty() {
            out.push_str(
                "suggested into constraints (implied; make them explicit to help DIMSAT):\n",
            );
            for dc in suggestions {
                out.push_str(&format!("  {}\n", display_dc(ds.hierarchy(), &dc)));
            }
        }
    }
    out
}

/// The answer to a category satisfiability check: `satisfiable: …`.
pub fn satisfiability(verdict: &Verdict) -> String {
    match verdict {
        Verdict::Sat(_) => "satisfiable: true\n".to_string(),
        Verdict::Unsat => "satisfiable: false\n".to_string(),
        Verdict::Unknown(i) => format!("satisfiable: unknown ({i})\n"),
    }
}
