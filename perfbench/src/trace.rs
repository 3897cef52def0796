//! In-memory spans recorded by the benchmark around its calls into each
//! layer, plus an observer that turns the solver's own solve events into
//! `dimsat.solve` spans and counters. Nothing inside the program is
//! instrumented: every span starts and ends in this crate.
//!
//! A span has a name, a start, an end and a parent; the spans of one
//! operation share the operation's id. A layer's self time is its spans'
//! time minus the part their child spans cover. Spans stay in memory and
//! are summarised when the run ends.

use odc_core::obs::{CacheOutcome, Observer, SolveEnd, SolveStart};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans, innermost last. Replays run on one thread, so solver
    /// events nest under whatever span the replay has open.
    stack: Vec<usize>,
    op: u64,
    /// Open solver spans by solve id.
    solves: BTreeMap<u64, usize>,
    counts: BTreeMap<&'static str, u64>,
}

/// Span recorder. Disabled, every call is a plain pass-through, which is
/// what the untraced replay uses to measure the tracing overhead.
#[derive(Clone)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: Arc<Mutex<State>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            state: Arc::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking replay")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the open span or, for a new
    /// operation, as the root of a fresh operation id. One lock either way:
    /// the recorder's own cost lands in the gaps between spans.
    fn open(&self, name: &'static str, new_op: bool) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let t = self.now_ns();
        let mut s = self.lock();
        if new_op {
            s.op += 1;
            s.stack.clear();
        }
        let parent = s.stack.last().copied();
        let op = s.op;
        s.spans.push(Span {
            name,
            op,
            parent,
            start_ns: t,
            end_ns: t,
        });
        let i = s.spans.len() - 1;
        s.stack.push(i);
        Some(i)
    }

    fn close(&self, idx: Option<usize>) {
        let Some(i) = idx else { return };
        let t = self.now_ns();
        let mut s = self.lock();
        s.spans[i].end_ns = t;
        if let Some(pos) = s.stack.iter().rposition(|&j| j == i) {
            s.stack.truncate(pos);
        }
    }

    /// Runs one operation under a root span named `name`; its layer spans
    /// share a fresh operation id.
    pub fn op<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let i = self.open(name, true);
        let out = f();
        self.close(i);
        out
    }

    /// Runs `f` under a span named `name`, nested in the open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let i = self.open(name, false);
        let out = f();
        self.close(i);
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.enabled {
            *self.lock().counts.entry(name).or_default() += n;
        }
    }

    /// An observer for the solver's governor that records each solve as
    /// a `dimsat.solve` span under the open span and sums its counters.
    pub fn observer(&self) -> odc_core::obs::Obs {
        if self.enabled {
            odc_core::obs::Obs::new(Arc::new(SolveSpans(self.clone())))
        } else {
            odc_core::obs::Obs::none()
        }
    }

    pub fn summary(&self) -> Summary {
        let s = self.lock();
        summarize(&s.spans, &s.counts)
    }
}

/// Runs a replay four times — untraced, traced, traced, untraced — so a
/// steady drift in host speed cancels out of the tracing overhead. `f`
/// gets the tracer and the run's index (0–3, for fresh directories) and
/// returns its wall time in ms and a result. Returns the mean untraced
/// and traced wall times, and the first traced run's tracer and result.
/// The two traced runs must count exactly the same work.
pub fn abba<T>(
    mut f: impl FnMut(&Tracer, usize) -> Result<(f64, T), String>,
) -> Result<(f64, f64, Tracer, T), String> {
    let (a1, _) = f(&Tracer::new(false), 0)?;
    let tr = Tracer::new(true);
    let (b1, out) = f(&tr, 1)?;
    let again = Tracer::new(true);
    let (b2, _) = f(&again, 2)?;
    let (a2, _) = f(&Tracer::new(false), 3)?;
    let (c1, c2) = (tr.summary().counts, again.summary().counts);
    if c1 != c2 {
        return Err(format!(
            "two traced replays counted different work: {c1:?} vs {c2:?}"
        ));
    }
    Ok(((a1 + a2) / 2.0, (b1 + b2) / 2.0, tr, out))
}

struct SolveSpans(Tracer);

impl Observer for SolveSpans {
    fn solve_started(&self, e: &SolveStart) {
        let i = self.0.open("dimsat.solve", false);
        if let Some(i) = i {
            self.0.lock().solves.insert(e.solve_id, i);
        }
    }

    fn solve_finished(&self, e: &SolveEnd) {
        let i = self.0.lock().solves.remove(&e.solve_id);
        self.0.close(i);
        let c = &e.counters;
        for (k, v) in [
            ("dimsat.solves", 1),
            ("dimsat.expand_calls", c.expand_calls),
            ("dimsat.check_calls", c.check_calls),
            ("dimsat.assignments_tested", c.assignments_tested),
            ("dimsat.dead_ends", c.dead_ends),
            ("frozen.found_in_solves", c.frozen_found),
        ] {
            self.0.count(k, v);
        }
        if e.verdict == "unknown" {
            self.0.count("dimsat.unknown", 1);
        }
    }

    fn cache_access(&self, outcome: CacheOutcome) {
        match outcome {
            CacheOutcome::Hit | CacheOutcome::CrossHit => self.0.count("dimsat.cache_hits", 1),
            CacheOutcome::Miss => self.0.count("dimsat.cache_misses", 1),
            _ => {}
        }
    }
}

/// Per-layer self times and the checks on them.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Layer name → summed self time, ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Layer name → number of spans.
    pub spans: BTreeMap<&'static str, u64>,
    pub counts: BTreeMap<&'static str, u64>,
    /// Number of operations and their summed wall time, ms.
    pub ops: u64,
    pub op_wall_ms: f64,
    /// Summed self time of the operations' root spans: the part of an
    /// operation no layer span covers.
    pub unattributed_ms: f64,
    /// Worst share, over the operations of at least [`MIN_CHECKED_OP_MS`],
    /// of wall time no layer span covers.
    pub worst_unattributed: f64,
    /// That operation's wall time, ms.
    pub worst_op_ms: f64,
    /// Operations of at least [`MIN_CHECKED_OP_MS`].
    pub checked_ops: u64,
}

/// Operations shorter than this, in ms, are covered only in the aggregate:
/// the recorder's own cost between spans (a lock and a clock read, about
/// a microsecond each) and one host interrupt landing between two spans
/// (several microseconds) are more than 5% of a shorter operation.
pub const MIN_CHECKED_OP_MS: f64 = 1.0;

impl Summary {
    pub fn layer_ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

fn summarize(spans: &[Span], counts: &BTreeMap<&'static str, u64>) -> Summary {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = Summary {
        counts: counts.clone(),
        ..Summary::default()
    };
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        // Union of the children's intervals, clipped to this span.
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let self_ms = dur.saturating_sub(covered) as f64 / 1e6;
        if s.parent.is_none() {
            out.ops += 1;
            out.op_wall_ms += dur as f64 / 1e6;
            out.unattributed_ms += self_ms;
            let share = self_ms * 1e6 / dur.max(1) as f64;
            if dur as f64 / 1e6 >= MIN_CHECKED_OP_MS {
                out.checked_ops += 1;
                if share > out.worst_unattributed {
                    out.worst_unattributed = share;
                    out.worst_op_ms = dur as f64 / 1e6;
                }
            }
        } else {
            *out.self_ms.entry(s.name).or_default() += self_ms;
            *out.spans.entry(s.name).or_default() += 1;
        }
    }
    out
}
