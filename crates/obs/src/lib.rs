//! # odc-obs
//!
//! Structured observability for the solving core. The reasoning problems
//! are NP-complete (Theorem 4) and the paper's complexity story (Section
//! 6, Figures 8–9) is told entirely through search counters, so a
//! production deployment is operated through those counters too: this
//! crate defines the [`Observer`] sink trait carrying structured
//! solve-lifecycle events, and the emitters that turn them into
//! JSON-lines telemetry ([`JsonlObserver`]) or live progress lines
//! ([`ProgressObserver`]).
//!
//! ## Design
//!
//! * **Zero-cost when disabled.** Solvers hold an [`Obs`] handle — a
//!   cloneable `Option<Arc<dyn Observer>>`. Every emission site is an
//!   inlined `if let Some(..)` branch; with no observer attached the hot
//!   path pays one predicted branch and allocates nothing (event payloads
//!   are only constructed behind [`Obs::get`] / [`Obs::enabled`]).
//! * **Dependency-free events.** Event payloads carry primitives and
//!   strings only, so `odc-obs` sits below every other crate in the
//!   workspace (the governor, the solvers, and the batch drivers all
//!   depend on it, never the other way around).
//! * **One schema for bench and live telemetry.** The JSON-lines emitter
//!   is the same one behind `odc --stats-json`, the `exp_dimsat` bench
//!   harness, and the CI smoke stage, so counters recorded offline and
//!   counters scraped from a running service have identical shapes.
//!
//! ## Event vocabulary
//!
//! | event         | emitted by                         | payload                            |
//! |---------------|------------------------------------|------------------------------------|
//! | `solve_start` | DIMSAT entry                       | solve id, root, schema fingerprint |
//! | `solve_end`   | DIMSAT exit                        | verdict, full counters, breakdowns |
//! | `prune`       | EXPAND pruning sites               | reason (cycle/shortcut/…)          |
//! | `backtrack`   | EXPAND unwinding                   | depth (histogrammed by the sink)   |
//! | `check`       | CHECK outcome                      | induced or not                     |
//! | `cache`       | implication memo-cache             | hit/cross_hit/miss/collision/bypass |
//! | `conn`        | `odc-serve` accept loop            | conn id, phase, peer               |
//! | `request`     | `odc-serve` dispatch               | request id, command, status, timing |
//! | `heartbeat`   | `Governor::poll`                   | nodes/sec, elapsed, budget used    |
//! | `worker`      | parallel batch drivers             | worker id, per-worker counters     |
//! | `fault`       | `Governor` fault-injection harness | kind, site, trigger, counters      |
//!
//! ## Sink failure
//!
//! The writing sinks ([`JsonlObserver`], [`ProgressObserver`]) never let a
//! broken pipe or a full disk take the solve down, but they do not fail
//! silently either: the first write error is reported once on stderr, the
//! sink stops retrying (a dead sink stays dead), and every event dropped
//! after that point is counted (see [`JsonlObserver::dropped_events`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default spacing between budget heartbeats emitted by `Governor::poll`.
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

static NEXT_SOLVE_ID: AtomicU64 = AtomicU64::new(1);

/// Mints a process-unique solve id (used to correlate the fine-grained
/// events of one solve across threads sharing a sink).
pub fn next_solve_id() -> u64 {
    NEXT_SOLVE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Why the search discarded a candidate (the EXPAND prunings of Figure 6
/// plus the late safety-net rejection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneReason {
    /// A parent choice would close a cycle (`Sc`).
    Cycle,
    /// A parent choice would complete a shortcut (`Ss`, including the
    /// two-parents-of-one-expansion shape the paper's set misses).
    Shortcut,
    /// An *into*-forced parent was pruned away, or no parent remained:
    /// the whole expansion is a dead end (Figure 6 line 15).
    IntoDeadEnd,
    /// A complete subhierarchy failed the safety-net validation before
    /// CHECK (generate-and-test mode).
    LateRejection,
}

impl PruneReason {
    /// Stable machine-readable name (the JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            PruneReason::Cycle => "cycle",
            PruneReason::Shortcut => "shortcut",
            PruneReason::IntoDeadEnd => "into_dead_end",
            PruneReason::LateRejection => "late_rejection",
        }
    }

    fn index(self) -> usize {
        match self {
            PruneReason::Cycle => 0,
            PruneReason::Shortcut => 1,
            PruneReason::IntoDeadEnd => 2,
            PruneReason::LateRejection => 3,
        }
    }

    /// All reasons, in JSON emission order.
    pub const ALL: [PruneReason; 4] = [
        PruneReason::Cycle,
        PruneReason::Shortcut,
        PruneReason::IntoDeadEnd,
        PruneReason::LateRejection,
    ];
}

/// How an implication memo-cache access resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOutcome {
    /// Answered from the cache by an entry stored earlier in the *same*
    /// session (formula verified equal).
    Hit,
    /// Answered from the cache by an entry another session stored — the
    /// warm-catalog payoff a resident server measures (a cache session
    /// corresponds to one top-level call, e.g. one server request).
    CrossHit,
    /// Not present; the query ran and was stored.
    Miss,
    /// The 64-bit key matched but the stored formula differed — the stale
    /// hit was rejected and the query ran for real.
    CollisionRejected,
    /// The cache was built for a different schema fingerprint; the query
    /// ran uncached.
    Bypass,
}

impl CacheOutcome {
    /// Stable machine-readable name (the JSON value).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::CrossHit => "cross_hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::CollisionRejected => "collision_rejected",
            CacheOutcome::Bypass => "bypass",
        }
    }
}

/// A solve began (one DIMSAT activation: decision or enumeration).
#[derive(Debug, Clone)]
pub struct SolveStart {
    /// Process-unique id correlating this solve's events.
    pub solve_id: u64,
    /// Name of the query category.
    pub root: String,
    /// Fingerprint of the schema being solved (hierarchy edges + Σ).
    pub schema_fingerprint: u64,
    /// `"decide"` (stop at first witness) or `"enumerate"`.
    pub mode: &'static str,
    /// Worker id when the solve ran inside a parallel batch.
    pub worker: Option<u64>,
    /// Server request id when the solve ran on behalf of a served
    /// request — lets one JSONL stream interleave many concurrent
    /// requests unambiguously. `None` outside a server.
    pub request: Option<u64>,
}

/// The flat counters of one finished solve (mirrors the solver's
/// `SearchStats`, kept as primitives so this crate stays dependency-free).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveCounters {
    /// EXPAND activations.
    pub expand_calls: u64,
    /// CHECK invocations.
    pub check_calls: u64,
    /// Into-pruning dead ends.
    pub dead_ends: u64,
    /// Safety-net rejections of complete subhierarchies.
    pub late_rejections: u64,
    /// c-assignment nodes visited across CHECK calls.
    pub assignments_tested: u64,
    /// Frozen dimensions found.
    pub frozen_found: u64,
    /// Implication memo-cache hits.
    pub cache_hits: u64,
    /// Implication memo-cache misses.
    pub cache_misses: u64,
    /// Rejected 64-bit cache-key collisions.
    pub cache_collisions: u64,
    /// Wall-clock microseconds consumed.
    pub elapsed_us: u64,
}

/// A solve finished (with an answer or an interrupt).
#[derive(Debug, Clone)]
pub struct SolveEnd {
    /// The id minted at [`SolveStart`].
    pub solve_id: u64,
    /// `"sat"`, `"unsat"`, or `"unknown"`.
    pub verdict: &'static str,
    /// Human-readable interrupt description when the solve was cut short.
    pub interrupt: Option<String>,
    /// The run's counters (identical to the outcome's `SearchStats`).
    pub counters: SolveCounters,
    /// Server request id, mirroring [`SolveStart::request`].
    pub request: Option<u64>,
}

/// A connection lifecycle event from a resident server.
#[derive(Debug, Clone)]
pub struct ConnEvent {
    /// Process-unique connection id.
    pub conn_id: u64,
    /// `"accepted"`, `"closed"`, or `"rejected_overloaded"` (admission
    /// control turned the connection away at the bounded queue).
    pub phase: &'static str,
    /// Peer address, when known.
    pub peer: String,
}

/// A request lifecycle event from a resident server: one line at dispatch
/// and one at completion bracket every solve the request triggered.
#[derive(Debug, Clone)]
pub struct RequestEvent {
    /// Process-unique request id (the value threaded into
    /// [`SolveStart::request`] / [`SolveEnd::request`]).
    pub request_id: u64,
    /// The connection the request arrived on.
    pub conn_id: u64,
    /// `"start"` or `"end"`.
    pub phase: &'static str,
    /// The protocol command (`"check"`, `"implies"`, …).
    pub command: String,
    /// The catalog schema the request addressed, if any.
    pub schema: Option<String>,
    /// Response status on `"end"` (`"ok"`, `"error"`, `"unknown"`,
    /// `"cancelled"`); `None` on `"start"`.
    pub status: Option<String>,
    /// Wall-clock microseconds from dispatch to response on `"end"`.
    pub elapsed_us: Option<u64>,
    /// Server worker thread that served the request.
    pub worker: Option<u64>,
}

/// A budget heartbeat from a governed search still in flight.
#[derive(Debug, Clone)]
pub struct Heartbeat {
    /// Search nodes consumed so far (batch-wide total under a shared
    /// governor).
    pub nodes: u64,
    /// CHECK invocations consumed so far.
    pub checks: u64,
    /// Wall-clock microseconds since the governor started.
    pub elapsed_us: u64,
    /// Current node throughput.
    pub nodes_per_sec: f64,
    /// Largest fraction consumed of any configured limit (nodes, checks,
    /// deadline); `None` when the budget is unlimited.
    pub budget_fraction: Option<f64>,
    /// Worker id when the governor was minted by a shared batch governor.
    pub worker: Option<u64>,
}

/// A deliberately injected fault from the governor's fault-injection
/// harness. Tagged separately from organic interrupts so telemetry from a
/// chaos run is distinguishable from real budget exhaustion.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// `"interrupt"`, `"cancel"`, or `"panic"`.
    pub kind: &'static str,
    /// The tick site that fired: `"node"`, `"check"`, or `"depth"`.
    pub site: &'static str,
    /// Human-readable description of the trigger (e.g. `every 64th node`).
    pub trigger: String,
    /// Search nodes this governor had consumed when the fault fired.
    pub nodes: u64,
    /// CHECK invocations this governor had consumed when the fault fired.
    pub checks: u64,
    /// Worker id when the governor was minted by a shared batch governor.
    pub worker: Option<u64>,
}

/// A verdict-repository lifecycle event: recovery after a crash,
/// quarantine of a corrupt segment tail, stale-lock takeover, or a
/// footprint migration after a schema edit. Recovery events carry their
/// own JSONL event name (`repo_recovery`) so crash-recovery smoke tests
/// can assert on them directly.
#[derive(Debug, Clone)]
pub struct RepoEvent {
    /// `"recovery"`, `"open"`, `"lock_stale"`, `"read_only"`, or
    /// `"migrate"`.
    pub phase: &'static str,
    /// The repository directory (or the affected file, for recovery).
    pub path: String,
    /// Human-readable detail (what was truncated, which fingerprints
    /// migrated, …).
    pub detail: String,
    /// Records affected (valid records kept on recovery, verdicts
    /// migrated on migration).
    pub records: u64,
    /// Bytes affected (quarantined bytes on recovery).
    pub bytes: u64,
}

/// A differential-fuzzer lifecycle event: one generated case pushed
/// through an executor pair (`phase == "case"`), or a disagreement
/// between the two executors of a pair (`phase == "divergence"`).
/// Divergences carry their own JSONL event name (`fuzz_divergence`) so
/// CI smoke stages can assert on them without decoding phases.
#[derive(Debug, Clone)]
pub struct FuzzEvent {
    /// `"case"` or `"divergence"`.
    pub phase: &'static str,
    /// The fuzzer's case counter (stable for a fixed seed).
    pub case_id: u64,
    /// Which generator axis produced the case (`fan_out`,
    /// `shortcut_density`, `into_ratio`, `vocabulary`, `sat_adversarial`,
    /// `mutated_fixture`, or `replay`).
    pub axis: String,
    /// The executor pair exercised (e.g. `trail/clone`).
    pub pair: String,
    /// For cases: the query-batch size; for divergences: how the
    /// executors disagreed (verdict, countermodel, stats, exit code,
    /// or protocol desync).
    pub detail: String,
}

/// A columnar-store ingest event: one committed batch (`phase ==
/// "batch"`), or the end-of-stream summary (`phase == "done"`). The
/// throughput field lets CI smoke stages assert rows/sec without
/// re-deriving it from timestamps.
#[derive(Debug, Clone)]
pub struct IngestEvent {
    /// `"batch"` or `"done"`.
    pub phase: &'static str,
    /// The store directory (or `-` when nothing is persisted).
    pub path: String,
    /// 1-based batch ordinal; for `"done"`, the total batch count.
    pub batch: u64,
    /// Members committed (this batch; cumulative for `"done"`).
    pub members: u64,
    /// Facts committed (this batch; cumulative for `"done"`).
    pub facts: u64,
    /// Validation-plus-commit wall time in microseconds.
    pub micros: u64,
    /// Staged rows per second over the covered span.
    pub rows_per_sec: u64,
}

/// One worker's contribution to a parallel battery, reported when the
/// worker drains its stripe.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Which battery the worker served (e.g. `"category_sweep"`).
    pub battery: &'static str,
    /// Worker id within the batch.
    pub worker: u64,
    /// Search nodes this worker consumed.
    pub nodes: u64,
    /// CHECK invocations this worker consumed.
    pub checks: u64,
    /// Work items the worker completed.
    pub items: u64,
}

/// A battery-planning report from `odc-plan`: how many queries the
/// planner saw, how many it answered without a solve (structural dedup,
/// shared facts, batched witness evaluation), and how far it reordered
/// execution. Emitted once per planned battery so `--stats-json` runs
/// can attribute skipped solves to the planner rather than the cache.
#[derive(Debug, Clone)]
pub struct PlanEvent {
    /// Which battery was planned (e.g. `"category_sweep"`,
    /// `"theorem1_battery"`, `"schema_audit"`).
    pub battery: &'static str,
    /// Queries submitted to the planner.
    pub queries: u64,
    /// Queries answered by aliasing to a structurally identical query.
    pub deduped: u64,
    /// Queries whose execution position differs from submission order.
    pub reordered: u64,
    /// Queries answered from facts shared by earlier queries.
    pub fact_hits: u64,
    /// Queries answered by evaluating pooled witnesses instead of a
    /// fresh search.
    pub batched: u64,
}

/// The structured-event sink. Every method has a no-op default, so a
/// sink implements only what it consumes; implementations must be
/// thread-safe (parallel batteries share one sink across workers).
pub trait Observer: Send + Sync {
    /// A solve began.
    fn solve_started(&self, _e: &SolveStart) {}
    /// A solve finished.
    fn solve_finished(&self, _e: &SolveEnd) {}
    /// A candidate was pruned during EXPAND.
    fn prune(&self, _solve_id: u64, _reason: PruneReason) {}
    /// The search backtracked past an expansion at `depth`.
    fn backtrack(&self, _solve_id: u64, _depth: u32) {}
    /// CHECK ran on a complete subhierarchy.
    fn check_outcome(&self, _solve_id: u64, _induced: bool) {}
    /// The implication memo-cache was consulted.
    fn cache_access(&self, _outcome: CacheOutcome) {}
    /// A server connection changed state.
    fn conn(&self, _e: &ConnEvent) {}
    /// A served request was dispatched or completed.
    fn request(&self, _e: &RequestEvent) {}
    /// A governed search is still in flight.
    fn heartbeat(&self, _hb: &Heartbeat) {}
    /// A parallel-battery worker drained its stripe.
    fn worker_finished(&self, _w: &WorkerStats) {}
    /// A battery planner finished scheduling (and its shortcuts tallied).
    fn plan(&self, _p: &PlanEvent) {}
    /// The fault-injection harness fired a planned fault.
    fn fault(&self, _f: &FaultEvent) {}
    /// The verdict repository recovered, migrated, or changed mode.
    fn repo(&self, _e: &RepoEvent) {}
    /// The differential fuzzer completed a case or found a divergence.
    fn fuzz(&self, _e: &FuzzEvent) {}
    /// The columnar store committed an ingest batch (or finished a
    /// stream).
    fn ingest(&self, _e: &IngestEvent) {}
}

/// The sink that ignores everything (useful for measuring pure
/// emission-site overhead).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// The handle solvers carry: a cloneable, optionally-attached sink.
/// All emission helpers are inlined branches on the option, so a
/// disabled handle costs one predicted branch per site.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<dyn Observer>>);

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "Obs(attached)"
        } else {
            "Obs(none)"
        })
    }
}

impl Obs {
    /// The disabled handle (the default everywhere).
    pub fn none() -> Self {
        Obs(None)
    }

    /// A handle forwarding to `sink`.
    pub fn new(sink: Arc<dyn Observer>) -> Self {
        Obs(Some(sink))
    }

    /// Whether a sink is attached. Guard event-payload construction
    /// (string allocation, fingerprinting) behind this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The attached sink, if any.
    #[inline]
    pub fn get(&self) -> Option<&dyn Observer> {
        self.0.as_deref()
    }

    /// Forwards a prune event.
    #[inline]
    pub fn prune(&self, solve_id: u64, reason: PruneReason) {
        if let Some(o) = &self.0 {
            o.prune(solve_id, reason);
        }
    }

    /// Forwards a backtrack event.
    #[inline]
    pub fn backtrack(&self, solve_id: u64, depth: u32) {
        if let Some(o) = &self.0 {
            o.backtrack(solve_id, depth);
        }
    }

    /// Forwards a CHECK outcome.
    #[inline]
    pub fn check_outcome(&self, solve_id: u64, induced: bool) {
        if let Some(o) = &self.0 {
            o.check_outcome(solve_id, induced);
        }
    }

    /// Forwards a cache access.
    #[inline]
    pub fn cache_access(&self, outcome: CacheOutcome) {
        if let Some(o) = &self.0 {
            o.cache_access(outcome);
        }
    }

    /// Forwards a connection lifecycle event.
    #[inline]
    pub fn conn(&self, e: &ConnEvent) {
        if let Some(o) = &self.0 {
            o.conn(e);
        }
    }

    /// Forwards a request lifecycle event.
    #[inline]
    pub fn request(&self, e: &RequestEvent) {
        if let Some(o) = &self.0 {
            o.request(e);
        }
    }

    /// Forwards a heartbeat.
    #[inline]
    pub fn heartbeat(&self, hb: &Heartbeat) {
        if let Some(o) = &self.0 {
            o.heartbeat(hb);
        }
    }

    /// Forwards a worker report.
    #[inline]
    pub fn worker_finished(&self, w: &WorkerStats) {
        if let Some(o) = &self.0 {
            o.worker_finished(w);
        }
    }

    /// Forwards a battery-plan report.
    #[inline]
    pub fn plan(&self, p: &PlanEvent) {
        if let Some(o) = &self.0 {
            o.plan(p);
        }
    }

    /// Forwards an injected-fault event.
    #[inline]
    pub fn fault(&self, f: &FaultEvent) {
        if let Some(o) = &self.0 {
            o.fault(f);
        }
    }

    /// Forwards a verdict-repository event.
    #[inline]
    pub fn repo(&self, e: &RepoEvent) {
        if let Some(o) = &self.0 {
            o.repo(e);
        }
    }

    /// Forwards a fuzzer event.
    #[inline]
    pub fn fuzz(&self, e: &FuzzEvent) {
        if let Some(o) = &self.0 {
            o.fuzz(e);
        }
    }

    /// Forwards a store-ingest event.
    #[inline]
    pub fn ingest(&self, e: &IngestEvent) {
        if let Some(o) = &self.0 {
            o.ingest(e);
        }
    }
}

/// Fans events out to several sinks (e.g. a JSON-lines file *and* a
/// progress stream).
pub struct MultiObserver {
    sinks: Vec<Arc<dyn Observer>>,
}

impl MultiObserver {
    /// A sink forwarding to every member of `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Observer>>) -> Self {
        MultiObserver { sinks }
    }
}

impl Observer for MultiObserver {
    fn solve_started(&self, e: &SolveStart) {
        for s in &self.sinks {
            s.solve_started(e);
        }
    }
    fn solve_finished(&self, e: &SolveEnd) {
        for s in &self.sinks {
            s.solve_finished(e);
        }
    }
    fn prune(&self, solve_id: u64, reason: PruneReason) {
        for s in &self.sinks {
            s.prune(solve_id, reason);
        }
    }
    fn backtrack(&self, solve_id: u64, depth: u32) {
        for s in &self.sinks {
            s.backtrack(solve_id, depth);
        }
    }
    fn check_outcome(&self, solve_id: u64, induced: bool) {
        for s in &self.sinks {
            s.check_outcome(solve_id, induced);
        }
    }
    fn cache_access(&self, outcome: CacheOutcome) {
        for s in &self.sinks {
            s.cache_access(outcome);
        }
    }
    fn conn(&self, e: &ConnEvent) {
        for s in &self.sinks {
            s.conn(e);
        }
    }
    fn request(&self, e: &RequestEvent) {
        for s in &self.sinks {
            s.request(e);
        }
    }
    fn heartbeat(&self, hb: &Heartbeat) {
        for s in &self.sinks {
            s.heartbeat(hb);
        }
    }
    fn worker_finished(&self, w: &WorkerStats) {
        for s in &self.sinks {
            s.worker_finished(w);
        }
    }
    fn plan(&self, p: &PlanEvent) {
        for s in &self.sinks {
            s.plan(p);
        }
    }
    fn fault(&self, f: &FaultEvent) {
        for s in &self.sinks {
            s.fault(f);
        }
    }
    fn repo(&self, e: &RepoEvent) {
        for s in &self.sinks {
            s.repo(e);
        }
    }
    fn fuzz(&self, e: &FuzzEvent) {
        for s in &self.sinks {
            s.fuzz(e);
        }
    }
    fn ingest(&self, e: &IngestEvent) {
        for s in &self.sinks {
            s.ingest(e);
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn json_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Failure bookkeeping shared by the writing sinks: the first write error
/// is surfaced once on stderr, the sink is declared dead (no further
/// writes are attempted), and every event dropped afterwards is counted.
#[derive(Debug, Default)]
struct SinkHealth {
    dead: std::sync::atomic::AtomicBool,
    dropped: AtomicU64,
}

impl SinkHealth {
    /// Whether the sink has already failed. A dead sink drops (and
    /// counts) the event instead of re-attempting the write.
    fn check_dead(&self) -> bool {
        if self.dead.load(Ordering::Acquire) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Records a write failure: the triggering event is counted as
    /// dropped and the very first failure is reported once on stderr.
    fn record_failure(&self, sink: &str, err: &std::io::Error) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        if !self.dead.swap(true, Ordering::AcqRel) {
            eprintln!(
                "odc-obs: {sink} sink write failed ({err}); \
                 dropping all further events on this sink"
            );
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Per-solve aggregation state kept by [`JsonlObserver`] between a
/// solve's start and end events.
#[derive(Debug, Default, Clone)]
struct SolveAgg {
    prunes: [u64; 4],
    induced: u64,
    failed: u64,
    backtracks: BTreeMap<u32, u64>,
}

/// The JSON-lines emitter: one self-describing JSON object per line.
///
/// Fine-grained events (prunes, backtracks, CHECK outcomes) are
/// aggregated per solve id and folded into that solve's `solve_end`
/// line, so the stream stays proportional to the number of solves, not
/// the number of search nodes. Heartbeats, cache accesses, and worker
/// reports are emitted as their own lines.
///
/// Line vocabulary (all lines have an `"event"` discriminator):
///
/// ```text
/// {"event":"solve_start","solve_id":1,"root":"Store","schema_fingerprint":…,"mode":"decide","worker":null}
/// {"event":"heartbeat","nodes":…,"checks":…,"elapsed_us":…,"nodes_per_sec":…,"budget_fraction":…,"worker":…}
/// {"event":"cache","outcome":"hit"}
/// {"event":"worker","battery":"category_sweep","worker":0,"nodes":…,"checks":…,"items":…}
/// {"event":"solve_end","solve_id":1,"verdict":"sat","interrupt":null,
///  "expand_calls":…,"check_calls":…,"dead_ends":…,"late_rejections":…,
///  "assignments_tested":…,"frozen_found":…,
///  "cache_hits":…,"cache_misses":…,"cache_collisions":…,"elapsed_us":…,
///  "prunes":{"cycle":…,"shortcut":…,"into_dead_end":…,"late_rejection":…},
///  "checks":{"induced":…,"failed":…},"backtrack_depths":{"0":…,"1":…}}
/// ```
pub struct JsonlObserver {
    out: Mutex<Box<dyn Write + Send>>,
    solves: Mutex<HashMap<u64, SolveAgg>>,
    health: SinkHealth,
}

impl JsonlObserver {
    /// An emitter writing to an arbitrary sink.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlObserver {
            out: Mutex::new(out),
            solves: Mutex::new(HashMap::new()),
            health: SinkHealth::default(),
        }
    }

    /// An emitter appending to (and first creating/truncating) `path`.
    pub fn to_file(path: &str) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(f))))
    }

    /// How many events were dropped because the sink failed. Zero while
    /// the sink is healthy.
    pub fn dropped_events(&self) -> u64 {
        self.health.dropped()
    }

    fn emit(&self, line: String) {
        if self.health.check_dead() {
            return;
        }
        if let Ok(mut w) = self.out.lock() {
            if let Err(e) = writeln!(w, "{line}").and_then(|()| w.flush()) {
                self.health.record_failure("jsonl", &e);
            }
        }
    }

    fn with_agg(&self, solve_id: u64, f: impl FnOnce(&mut SolveAgg)) {
        if let Ok(mut m) = self.solves.lock() {
            f(m.entry(solve_id).or_default());
        }
    }
}

impl Observer for JsonlObserver {
    fn solve_started(&self, e: &SolveStart) {
        self.with_agg(e.solve_id, |_| {});
        self.emit(format!(
            "{{\"event\":\"solve_start\",\"solve_id\":{},\"root\":\"{}\",\
             \"schema_fingerprint\":{},\"mode\":\"{}\",\"worker\":{},\"request\":{}}}",
            e.solve_id,
            json_escape(&e.root),
            e.schema_fingerprint,
            e.mode,
            json_opt_u64(e.worker),
            json_opt_u64(e.request),
        ));
    }

    fn solve_finished(&self, e: &SolveEnd) {
        let agg = self
            .solves
            .lock()
            .ok()
            .and_then(|mut m| m.remove(&e.solve_id))
            .unwrap_or_default();
        let c = &e.counters;
        let prunes = PruneReason::ALL
            .iter()
            .map(|r| format!("\"{}\":{}", r.as_str(), agg.prunes[r.index()]))
            .collect::<Vec<_>>()
            .join(",");
        let depths = agg
            .backtracks
            .iter()
            .map(|(d, n)| format!("\"{d}\":{n}"))
            .collect::<Vec<_>>()
            .join(",");
        self.emit(format!(
            "{{\"event\":\"solve_end\",\"solve_id\":{},\"verdict\":\"{}\",\"interrupt\":{},\
             \"request\":{},\
             \"expand_calls\":{},\"check_calls\":{},\"dead_ends\":{},\"late_rejections\":{},\
             \"assignments_tested\":{},\"frozen_found\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_collisions\":{},\"elapsed_us\":{},\
             \"prunes\":{{{prunes}}},\"checks\":{{\"induced\":{},\"failed\":{}}},\
             \"backtrack_depths\":{{{depths}}}}}",
            e.solve_id,
            e.verdict,
            match &e.interrupt {
                Some(i) => format!("\"{}\"", json_escape(i)),
                None => "null".to_string(),
            },
            json_opt_u64(e.request),
            c.expand_calls,
            c.check_calls,
            c.dead_ends,
            c.late_rejections,
            c.assignments_tested,
            c.frozen_found,
            c.cache_hits,
            c.cache_misses,
            c.cache_collisions,
            c.elapsed_us,
            agg.induced,
            agg.failed,
        ));
    }

    fn prune(&self, solve_id: u64, reason: PruneReason) {
        self.with_agg(solve_id, |a| a.prunes[reason.index()] += 1);
    }

    fn backtrack(&self, solve_id: u64, depth: u32) {
        self.with_agg(solve_id, |a| *a.backtracks.entry(depth).or_insert(0) += 1);
    }

    fn check_outcome(&self, solve_id: u64, induced: bool) {
        self.with_agg(solve_id, |a| {
            if induced {
                a.induced += 1;
            } else {
                a.failed += 1;
            }
        });
    }

    fn cache_access(&self, outcome: CacheOutcome) {
        self.emit(format!(
            "{{\"event\":\"cache\",\"outcome\":\"{}\"}}",
            outcome.as_str()
        ));
    }

    fn conn(&self, e: &ConnEvent) {
        self.emit(format!(
            "{{\"event\":\"conn\",\"conn_id\":{},\"phase\":\"{}\",\"peer\":\"{}\"}}",
            e.conn_id,
            e.phase,
            json_escape(&e.peer),
        ));
    }

    fn request(&self, e: &RequestEvent) {
        self.emit(format!(
            "{{\"event\":\"request\",\"request_id\":{},\"conn_id\":{},\"phase\":\"{}\",\
             \"command\":\"{}\",\"schema\":{},\"status\":{},\"elapsed_us\":{},\"worker\":{}}}",
            e.request_id,
            e.conn_id,
            e.phase,
            json_escape(&e.command),
            match &e.schema {
                Some(s) => format!("\"{}\"", json_escape(s)),
                None => "null".to_string(),
            },
            match &e.status {
                Some(s) => format!("\"{}\"", json_escape(s)),
                None => "null".to_string(),
            },
            json_opt_u64(e.elapsed_us),
            json_opt_u64(e.worker),
        ));
    }

    fn heartbeat(&self, hb: &Heartbeat) {
        self.emit(format!(
            "{{\"event\":\"heartbeat\",\"nodes\":{},\"checks\":{},\"elapsed_us\":{},\
             \"nodes_per_sec\":{:.1},\"budget_fraction\":{},\"worker\":{}}}",
            hb.nodes,
            hb.checks,
            hb.elapsed_us,
            hb.nodes_per_sec,
            match hb.budget_fraction {
                Some(f) => format!("{f:.4}"),
                None => "null".to_string(),
            },
            json_opt_u64(hb.worker),
        ));
    }

    fn worker_finished(&self, w: &WorkerStats) {
        self.emit(format!(
            "{{\"event\":\"worker\",\"battery\":\"{}\",\"worker\":{},\"nodes\":{},\
             \"checks\":{},\"items\":{}}}",
            w.battery, w.worker, w.nodes, w.checks, w.items,
        ));
    }

    fn plan(&self, p: &PlanEvent) {
        self.emit(format!(
            "{{\"event\":\"plan\",\"battery\":\"{}\",\"queries\":{},\"deduped\":{},\
             \"reordered\":{},\"fact_hits\":{},\"batched\":{}}}",
            p.battery, p.queries, p.deduped, p.reordered, p.fact_hits, p.batched,
        ));
    }

    fn fault(&self, f: &FaultEvent) {
        self.emit(format!(
            "{{\"event\":\"fault\",\"kind\":\"{}\",\"site\":\"{}\",\"trigger\":\"{}\",\
             \"nodes\":{},\"checks\":{},\"worker\":{}}}",
            f.kind,
            f.site,
            json_escape(&f.trigger),
            f.nodes,
            f.checks,
            json_opt_u64(f.worker),
        ));
    }

    fn repo(&self, e: &RepoEvent) {
        // Recovery gets its own event name so crash-recovery smoke tests
        // can grep for it without decoding phases.
        let event = if e.phase == "recovery" {
            "repo_recovery"
        } else {
            "repo"
        };
        self.emit(format!(
            "{{\"event\":\"{event}\",\"phase\":\"{}\",\"path\":\"{}\",\"detail\":\"{}\",\
             \"records\":{},\"bytes\":{}}}",
            e.phase,
            json_escape(&e.path),
            json_escape(&e.detail),
            e.records,
            e.bytes,
        ));
    }

    fn fuzz(&self, e: &FuzzEvent) {
        // Divergences get their own event name so fuzz smoke stages can
        // grep for them without decoding phases.
        let event = if e.phase == "divergence" {
            "fuzz_divergence"
        } else {
            "fuzz_case"
        };
        self.emit(format!(
            "{{\"event\":\"{event}\",\"case_id\":{},\"axis\":\"{}\",\"pair\":\"{}\",\
             \"detail\":\"{}\"}}",
            e.case_id,
            json_escape(&e.axis),
            json_escape(&e.pair),
            json_escape(&e.detail),
        ));
    }

    fn ingest(&self, e: &IngestEvent) {
        self.emit(format!(
            "{{\"event\":\"ingest\",\"phase\":\"{}\",\"path\":\"{}\",\"batch\":{},\
             \"members\":{},\"facts\":{},\"micros\":{},\"rows_per_sec\":{}}}",
            e.phase,
            json_escape(&e.path),
            e.batch,
            e.members,
            e.facts,
            e.micros,
            e.rows_per_sec,
        ));
    }
}

/// A human-readable progress stream (one short line per lifecycle event
/// and heartbeat), for `odc --progress` on stderr: long governed solves
/// stop being a black box.
pub struct ProgressObserver {
    out: Mutex<Box<dyn Write + Send>>,
    health: SinkHealth,
}

impl ProgressObserver {
    /// A progress stream writing to an arbitrary sink.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        ProgressObserver {
            out: Mutex::new(out),
            health: SinkHealth::default(),
        }
    }

    /// A progress stream on standard error.
    pub fn to_stderr() -> Self {
        Self::new(Box::new(std::io::stderr()))
    }

    /// How many progress lines were dropped because the sink failed.
    pub fn dropped_events(&self) -> u64 {
        self.health.dropped()
    }

    fn emit(&self, line: String) {
        if self.health.check_dead() {
            return;
        }
        if let Ok(mut w) = self.out.lock() {
            if let Err(e) = writeln!(w, "{line}").and_then(|()| w.flush()) {
                self.health.record_failure("progress", &e);
            }
        }
    }
}

impl Observer for ProgressObserver {
    fn solve_started(&self, e: &SolveStart) {
        let req = match e.request {
            Some(r) => format!(" [request {r}]"),
            None => String::new(),
        };
        self.emit(format!(
            "progress: solve #{} started (root {}, {}){req}",
            e.solve_id, e.root, e.mode
        ));
    }

    fn solve_finished(&self, e: &SolveEnd) {
        self.emit(format!(
            "progress: solve #{} {} ({} EXPAND, {} CHECK, {} µs{})",
            e.solve_id,
            e.verdict,
            e.counters.expand_calls,
            e.counters.check_calls,
            e.counters.elapsed_us,
            match &e.interrupt {
                Some(i) => format!("; interrupted: {i}"),
                None => String::new(),
            },
        ));
    }

    fn heartbeat(&self, hb: &Heartbeat) {
        let budget = match hb.budget_fraction {
            Some(f) => format!(", {:.0}% of budget", f * 100.0),
            None => String::new(),
        };
        let worker = match hb.worker {
            Some(w) => format!(" [worker {w}]"),
            None => String::new(),
        };
        self.emit(format!(
            "progress: {} nodes, {} checks, {:.1}s elapsed, {:.0} nodes/s{budget}{worker}",
            hb.nodes,
            hb.checks,
            hb.elapsed_us as f64 / 1e6,
            hb.nodes_per_sec,
        ));
    }

    fn conn(&self, e: &ConnEvent) {
        self.emit(format!(
            "progress: conn #{} {} ({})",
            e.conn_id, e.phase, e.peer
        ));
    }

    fn request(&self, e: &RequestEvent) {
        let status = match &e.status {
            Some(s) => format!(" -> {s}"),
            None => String::new(),
        };
        self.emit(format!(
            "progress: request #{} {} ({}){status}",
            e.request_id, e.phase, e.command
        ));
    }

    fn worker_finished(&self, w: &WorkerStats) {
        self.emit(format!(
            "progress: {} worker {} done ({} items, {} nodes, {} checks)",
            w.battery, w.worker, w.items, w.nodes, w.checks
        ));
    }

    fn plan(&self, p: &PlanEvent) {
        self.emit(format!(
            "progress: {} planned ({} queries, {} deduped, {} fact hits, {} batched)",
            p.battery, p.queries, p.deduped, p.fact_hits, p.batched
        ));
    }

    fn fault(&self, f: &FaultEvent) {
        let worker = match f.worker {
            Some(w) => format!(" [worker {w}]"),
            None => String::new(),
        };
        self.emit(format!(
            "progress: injected {} at {} tick ({}; {} nodes, {} checks){worker}",
            f.kind, f.site, f.trigger, f.nodes, f.checks
        ));
    }

    fn repo(&self, e: &RepoEvent) {
        self.emit(format!(
            "progress: repo {} {} ({}; {} records, {} bytes)",
            e.phase, e.path, e.detail, e.records, e.bytes
        ));
    }

    fn fuzz(&self, e: &FuzzEvent) {
        self.emit(format!(
            "progress: fuzz case #{} {} [{}] {} ({})",
            e.case_id, e.phase, e.axis, e.pair, e.detail
        ));
    }

    fn ingest(&self, e: &IngestEvent) {
        self.emit(format!(
            "progress: ingest {} #{} {} ({} members, {} facts, {} rows/s)",
            e.phase, e.batch, e.path, e.members, e.facts, e.rows_per_sec
        ));
    }
}

/// One recorded event (what a [`CollectingObserver`] stores).
#[derive(Debug, Clone)]
pub enum Event {
    /// A `solve_started` call.
    Start(SolveStart),
    /// A `solve_finished` call.
    End(SolveEnd),
    /// A `prune` call.
    Prune(u64, PruneReason),
    /// A `backtrack` call.
    Backtrack(u64, u32),
    /// A `check_outcome` call.
    Check(u64, bool),
    /// A `cache_access` call.
    Cache(CacheOutcome),
    /// A `conn` call.
    Conn(ConnEvent),
    /// A `request` call.
    Request(RequestEvent),
    /// A `heartbeat` call.
    Heartbeat(Heartbeat),
    /// A `worker_finished` call.
    Worker(WorkerStats),
    /// A `plan` call.
    Plan(PlanEvent),
    /// A `fault` call.
    Fault(FaultEvent),
    /// A `repo` call.
    Repo(RepoEvent),
    /// A `fuzz` call.
    Fuzz(FuzzEvent),
    /// An `ingest` call.
    Ingest(IngestEvent),
}

/// An in-memory sink recording every event, for tests and ad-hoc
/// inspection.
#[derive(Default)]
pub struct CollectingObserver {
    events: Mutex<Vec<Event>>,
}

impl CollectingObserver {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }

    fn push(&self, e: Event) {
        if let Ok(mut v) = self.events.lock() {
            v.push(e);
        }
    }
}

impl Observer for CollectingObserver {
    fn solve_started(&self, e: &SolveStart) {
        self.push(Event::Start(e.clone()));
    }
    fn solve_finished(&self, e: &SolveEnd) {
        self.push(Event::End(e.clone()));
    }
    fn prune(&self, solve_id: u64, reason: PruneReason) {
        self.push(Event::Prune(solve_id, reason));
    }
    fn backtrack(&self, solve_id: u64, depth: u32) {
        self.push(Event::Backtrack(solve_id, depth));
    }
    fn check_outcome(&self, solve_id: u64, induced: bool) {
        self.push(Event::Check(solve_id, induced));
    }
    fn cache_access(&self, outcome: CacheOutcome) {
        self.push(Event::Cache(outcome));
    }
    fn conn(&self, e: &ConnEvent) {
        self.push(Event::Conn(e.clone()));
    }
    fn request(&self, e: &RequestEvent) {
        self.push(Event::Request(e.clone()));
    }
    fn heartbeat(&self, hb: &Heartbeat) {
        self.push(Event::Heartbeat(hb.clone()));
    }
    fn worker_finished(&self, w: &WorkerStats) {
        self.push(Event::Worker(w.clone()));
    }
    fn plan(&self, p: &PlanEvent) {
        self.push(Event::Plan(p.clone()));
    }
    fn fault(&self, f: &FaultEvent) {
        self.push(Event::Fault(f.clone()));
    }
    fn repo(&self, e: &RepoEvent) {
        self.push(Event::Repo(e.clone()));
    }
    fn fuzz(&self, e: &FuzzEvent) {
        self.push(Event::Fuzz(e.clone()));
    }
    fn ingest(&self, e: &IngestEvent) {
        self.push(Event::Ingest(e.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shared buffer the JSONL emitter can write into from tests.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn jsonl_lines(buf: &SharedBuf) -> Vec<String> {
        String::from_utf8(buf.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn solve_ids_are_unique() {
        let a = next_solve_id();
        let b = next_solve_id();
        assert_ne!(a, b);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::none();
        assert!(!obs.enabled());
        obs.prune(1, PruneReason::Cycle);
        obs.backtrack(1, 0);
        obs.cache_access(CacheOutcome::Hit);
        assert!(obs.get().is_none());
    }

    #[test]
    fn jsonl_aggregates_fine_events_into_solve_end() {
        let buf = SharedBuf::default();
        let sink = JsonlObserver::new(Box::new(buf.clone()));
        sink.solve_started(&SolveStart {
            solve_id: 7,
            root: "Store".into(),
            schema_fingerprint: 42,
            mode: "decide",
            worker: None,
            request: None,
        });
        sink.prune(7, PruneReason::Cycle);
        sink.prune(7, PruneReason::Cycle);
        sink.prune(7, PruneReason::IntoDeadEnd);
        sink.backtrack(7, 0);
        sink.backtrack(7, 2);
        sink.backtrack(7, 2);
        sink.check_outcome(7, true);
        sink.check_outcome(7, false);
        sink.solve_finished(&SolveEnd {
            solve_id: 7,
            verdict: "sat",
            interrupt: None,
            counters: SolveCounters {
                expand_calls: 5,
                check_calls: 2,
                ..Default::default()
            },
            request: None,
        });
        let lines = jsonl_lines(&buf);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"solve_start\""));
        assert!(lines[0].contains("\"root\":\"Store\""));
        let end = &lines[1];
        assert!(end.contains("\"event\":\"solve_end\""));
        assert!(end.contains("\"verdict\":\"sat\""));
        assert!(end.contains("\"cycle\":2"));
        assert!(end.contains("\"into_dead_end\":1"));
        assert!(end.contains("\"shortcut\":0"));
        assert!(end.contains("\"induced\":1"));
        assert!(end.contains("\"failed\":1"));
        assert!(end.contains("\"0\":1"));
        assert!(end.contains("\"2\":2"));
        assert!(end.contains("\"expand_calls\":5"));
    }

    #[test]
    fn jsonl_keeps_concurrent_solves_apart() {
        let buf = SharedBuf::default();
        let sink = JsonlObserver::new(Box::new(buf.clone()));
        for id in [1u64, 2] {
            sink.solve_started(&SolveStart {
                solve_id: id,
                root: format!("R{id}"),
                schema_fingerprint: 0,
                mode: "decide",
                worker: Some(id),
                request: Some(id),
            });
        }
        sink.prune(1, PruneReason::Cycle);
        sink.prune(2, PruneReason::Shortcut);
        for id in [1u64, 2] {
            sink.solve_finished(&SolveEnd {
                solve_id: id,
                verdict: "unsat",
                interrupt: None,
                counters: SolveCounters::default(),
                request: Some(id),
            });
        }
        let lines = jsonl_lines(&buf);
        let end1 = lines
            .iter()
            .find(|l| l.contains("\"solve_id\":1") && l.contains("solve_end"))
            .unwrap();
        assert!(end1.contains("\"cycle\":1"), "{end1}");
        assert!(end1.contains("\"shortcut\":0"), "{end1}");
        let end2 = lines
            .iter()
            .find(|l| l.contains("\"solve_id\":2") && l.contains("solve_end"))
            .unwrap();
        assert!(end2.contains("\"shortcut\":1"), "{end2}");
        assert!(end2.contains("\"cycle\":0"), "{end2}");
    }

    #[test]
    fn jsonl_heartbeat_and_cache_lines() {
        let buf = SharedBuf::default();
        let sink = JsonlObserver::new(Box::new(buf.clone()));
        sink.heartbeat(&Heartbeat {
            nodes: 100,
            checks: 3,
            elapsed_us: 5000,
            nodes_per_sec: 20_000.0,
            budget_fraction: Some(0.25),
            worker: Some(1),
        });
        sink.cache_access(CacheOutcome::CollisionRejected);
        sink.worker_finished(&WorkerStats {
            battery: "category_sweep",
            worker: 1,
            nodes: 100,
            checks: 3,
            items: 2,
        });
        let lines = jsonl_lines(&buf);
        assert!(lines[0].contains("\"nodes\":100"));
        assert!(lines[0].contains("\"budget_fraction\":0.2500"));
        assert!(lines[1].contains("\"outcome\":\"collision_rejected\""));
        assert!(lines[2].contains("\"battery\":\"category_sweep\""));
    }

    #[test]
    fn jsonl_conn_and_request_lines() {
        let buf = SharedBuf::default();
        let sink = JsonlObserver::new(Box::new(buf.clone()));
        sink.conn(&ConnEvent {
            conn_id: 3,
            phase: "accepted",
            peer: "127.0.0.1:9999".into(),
        });
        sink.request(&RequestEvent {
            request_id: 11,
            conn_id: 3,
            phase: "start",
            command: "implies".into(),
            schema: Some("location".into()),
            status: None,
            elapsed_us: None,
            worker: Some(0),
        });
        sink.request(&RequestEvent {
            request_id: 11,
            conn_id: 3,
            phase: "end",
            command: "implies".into(),
            schema: Some("location".into()),
            status: Some("ok".into()),
            elapsed_us: Some(1234),
            worker: Some(0),
        });
        let lines = jsonl_lines(&buf);
        assert!(lines[0].contains("\"event\":\"conn\""), "{}", lines[0]);
        assert!(lines[0].contains("\"phase\":\"accepted\""));
        assert!(lines[1].contains("\"event\":\"request\""), "{}", lines[1]);
        assert!(lines[1].contains("\"request_id\":11"));
        assert!(lines[1].contains("\"status\":null"));
        assert!(lines[2].contains("\"status\":\"ok\""));
        assert!(lines[2].contains("\"elapsed_us\":1234"));
    }

    #[test]
    fn solve_lines_carry_request_ids() {
        let buf = SharedBuf::default();
        let sink = JsonlObserver::new(Box::new(buf.clone()));
        sink.solve_started(&SolveStart {
            solve_id: 9,
            root: "Store".into(),
            schema_fingerprint: 0,
            mode: "decide",
            worker: None,
            request: Some(4),
        });
        sink.solve_finished(&SolveEnd {
            solve_id: 9,
            verdict: "unsat",
            interrupt: None,
            counters: SolveCounters::default(),
            request: Some(4),
        });
        let lines = jsonl_lines(&buf);
        assert!(lines[0].contains("\"request\":4"), "{}", lines[0]);
        assert!(lines[1].contains("\"request\":4"), "{}", lines[1]);
    }

    #[test]
    fn json_escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    /// A writer that fails after `ok_lines` successfully flushed lines
    /// (each emitted line ends in exactly one flush).
    struct FailingWriter {
        ok_lines: usize,
        flushed: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.flushed >= self.ok_lines {
                return Err(std::io::Error::other("disk full"));
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushed += 1;
            Ok(())
        }
    }

    #[test]
    fn dead_sink_counts_dropped_events_and_stops_writing() {
        let sink = JsonlObserver::new(Box::new(FailingWriter {
            ok_lines: 1,
            flushed: 0,
        }));
        sink.cache_access(CacheOutcome::Hit); // succeeds
        assert_eq!(sink.dropped_events(), 0);
        sink.cache_access(CacheOutcome::Hit); // write fails -> sink dies
        assert_eq!(sink.dropped_events(), 1);
        sink.cache_access(CacheOutcome::Hit); // dropped without a write
        sink.cache_access(CacheOutcome::Miss);
        assert_eq!(sink.dropped_events(), 3);
    }

    #[test]
    fn progress_sink_reports_drops_too() {
        let sink = ProgressObserver::new(Box::new(FailingWriter {
            ok_lines: 0,
            flushed: 0,
        }));
        sink.worker_finished(&WorkerStats {
            battery: "category_sweep",
            worker: 0,
            nodes: 1,
            checks: 1,
            items: 1,
        });
        sink.heartbeat(&Heartbeat {
            nodes: 1,
            checks: 0,
            elapsed_us: 1,
            nodes_per_sec: 1.0,
            budget_fraction: None,
            worker: None,
        });
        assert_eq!(sink.dropped_events(), 2);
    }

    #[test]
    fn fault_events_reach_every_sink_kind() {
        let f = FaultEvent {
            kind: "interrupt",
            site: "node",
            trigger: "every 64th node".into(),
            nodes: 64,
            checks: 2,
            worker: Some(1),
        };
        let buf = SharedBuf::default();
        let jsonl = JsonlObserver::new(Box::new(buf.clone()));
        jsonl.fault(&f);
        let lines = jsonl_lines(&buf);
        assert!(lines[0].contains("\"event\":\"fault\""), "{}", lines[0]);
        assert!(lines[0].contains("\"kind\":\"interrupt\""));
        assert!(lines[0].contains("\"site\":\"node\""));
        assert!(lines[0].contains("\"nodes\":64"));

        let pbuf = SharedBuf::default();
        let progress = ProgressObserver::new(Box::new(pbuf.clone()));
        progress.fault(&f);
        assert!(jsonl_lines(&pbuf)[0].contains("injected interrupt at node tick"));

        let collector = Arc::new(CollectingObserver::new());
        Obs::new(collector.clone()).fault(&f);
        assert!(matches!(collector.events()[0], Event::Fault(_)));
    }

    #[test]
    fn multi_observer_fans_out() {
        let a = Arc::new(CollectingObserver::new());
        let b = Arc::new(CollectingObserver::new());
        let multi = MultiObserver::new(vec![a.clone(), b.clone()]);
        multi.prune(1, PruneReason::Cycle);
        multi.cache_access(CacheOutcome::Hit);
        assert_eq!(a.events().len(), 2);
        assert_eq!(b.events().len(), 2);
    }

    #[test]
    fn progress_lines_are_human_readable() {
        let buf = SharedBuf::default();
        let sink = ProgressObserver::new(Box::new(buf.clone()));
        sink.heartbeat(&Heartbeat {
            nodes: 1000,
            checks: 10,
            elapsed_us: 1_500_000,
            nodes_per_sec: 666.7,
            budget_fraction: Some(0.5),
            worker: None,
        });
        let lines = jsonl_lines(&buf);
        assert!(lines[0].contains("1000 nodes"));
        assert!(lines[0].contains("50% of budget"));
    }
}
