//! The result of one run: metrics by name with their units, the failure
//! count, provenance, and the one-line JSON the run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics. Every workload reports every one of them, each
/// measured on that workload's own traffic; README.md maps them onto the
/// per-workload names (`reason_p50_ms`, `serve_p99_ms`, …).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rate_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("slow_ms", "ms"),
    ("warm_ms", "ms"),
];

/// Per-layer metrics of the traced run. Every workload prints all of
/// them; a layer the workload's traffic never reaches reads 0, which is
/// how the trace shows the layers separated.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.worst_op_unattributed_pct", "%"),
    // audit
    ("audit.cli_process_ms", "ms"),
    ("audit.render_ms", "ms"),
    ("audit.unknown_frac", "ratio"),
    ("audit.skipped_draws", "count"),
    ("constraint.parse_ms", "ms"),
    ("plan.build_ms", "ms"),
    ("dimsat.solve_ms", "ms"),
    ("dimsat.solves", "count"),
    ("dimsat.expand_calls", "count"),
    ("dimsat.check_calls", "count"),
    ("dimsat.assignments_tested", "count"),
    ("dimsat.dead_ends", "count"),
    ("dimsat.cache_hit_ratio", "ratio"),
    ("frozen.enumerate_ms", "ms"),
    ("frozen.found", "count"),
    ("summarizability.self_ms", "ms"),
    ("repo.open_ms", "ms"),
    ("repo.get_ms", "ms"),
    ("repo.put_ms", "ms"),
    ("repo.hits", "count"),
    ("repo.hit_ratio", "ratio"),
    ("repo.bytes_written", "bytes"),
    // serve
    ("protocol.parse_us", "us"),
    ("serve.exec_hit_us", "us"),
    ("serve.exec_miss_us", "us"),
    ("serve.overhead_hit_us", "us"),
    ("serve.overhead_miss_us", "us"),
    ("serve.cache_hits", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("loadgen.lateness_p99_ms", "ms"),
    // store
    ("store.cli_process_ms", "ms"),
    ("store.parse_batch_ms", "ms"),
    ("store.check_batch_ms", "ms"),
    ("store.ingest_batch_ms", "ms"),
    ("store.rows_validated", "count"),
    ("store.load_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_per_fact", "bytes"),
    ("store.instance_ms", "ms"),
    ("summarizability.verdict_ms", "ms"),
    ("olap.materialize_ms", "ms"),
    ("olap.choose_source_ms", "ms"),
    ("olap.roll_up_ms", "ms"),
    ("olap.verify_ms", "ms"),
];

/// Per-layer metrics that are counts of work: for a fixed seed they must
/// repeat exactly from run to run (the determinism self-test checks it).
pub fn is_exact_count(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|&(n, u)| n == name && (u == "count" || u == "bytes"))
        && !matches!(name, "serve.rejected" | "store.bytes_per_fact")
        || matches!(
            name,
            "audit.unknown_frac"
                | "dimsat.cache_hit_ratio"
                | "repo.hit_ratio"
                | "serve.cache_hit_ratio"
        )
}

pub struct Report {
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Problems found while checking outputs; any makes `correct` false.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Sample count behind each metric, where it is a statistic.
    pub samples: BTreeMap<String, usize>,
    /// Other facts worth a line: per-workload metric names, validity checks.
    pub notes: Vec<String>,
    pub provenance: Vec<(String, String)>,
    /// Digest of the generated inputs (a new seed must change it).
    pub input_digest: u64,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
            notes: Vec::new(),
            provenance: Vec::new(),
            input_digest: 0,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn set_n(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name.to_string(), samples);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Records one attempted operation and whether it failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The tracing checks every workload reports: overhead, and how much of
    /// the operations' wall time no layer span covers.
    pub fn trace_checks(&mut self, s: &crate::trace::Summary, plain_ms: f64, traced_ms: f64) {
        self.set(
            "trace.overhead_pct",
            100.0 * (traced_ms - plain_ms) / plain_ms,
        );
        self.set(
            "trace.unattributed_pct",
            100.0 * s.unattributed_ms / s.op_wall_ms.max(1e-9),
        );
        self.set(
            "trace.worst_op_unattributed_pct",
            100.0 * s.worst_unattributed,
        );
        self.note(format!(
            "trace: {} operations, {} spans; {} operations of at least {} ms checked one by one, \
             the worst-covered of them took {:.3} ms",
            s.ops,
            s.spans.values().sum::<u64>(),
            s.checked_ops,
            crate::trace::MIN_CHECKED_OP_MS,
            s.worst_op_ms
        ));
        let covered = 1.0 - s.unattributed_ms / s.op_wall_ms.max(1e-9);
        if covered < 0.95 {
            self.error(format!(
                "layer self times cover only {:.1}% of the operations' in-process wall time",
                100.0 * covered
            ));
        }
        if s.worst_unattributed > 0.05 {
            self.error(format!(
                "layer self times cover only {:.1}% of one operation's in-process wall time ({:.3} ms)",
                100.0 * (1.0 - s.worst_unattributed),
                s.worst_op_ms
            ));
        }
    }

    fn schema(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The human-readable lines, then the JSON result line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.provenance {
            let _ = writeln!(out, "provenance {k}: {v}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "note {n}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "error {e}");
        }
        for &(name, unit) in self.schema() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            match self.samples.get(name) {
                Some(n) => {
                    let _ = writeln!(out, "metric {name} = {v} {unit} (n={n})");
                }
                None => {
                    let _ = writeln!(out, "metric {name} = {v} {unit}");
                }
            }
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, unit)) in self.schema().iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        out.push_str(&json);
        out.push('\n');
        out
    }
}

/// FNV-1a over a byte stream: a stable digest of generated inputs.
pub fn digest(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        for b in p.bytes().chain(std::iter::once(0xff)) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
