//! Search statistics, the observable for the complexity experiments
//! (E7–E10).

use std::time::Duration;

/// Counters collected during one DIMSAT run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Calls to the EXPAND procedure.
    pub expand_calls: u64,
    /// Wall-clock time consumed by the governed search (also populated on
    /// interrupted runs, so partial work is reported, not discarded).
    pub elapsed: Duration,
    /// Complete subhierarchies handed to CHECK.
    pub check_calls: u64,
    /// Parent subsets skipped because an *into* parent was pruned away
    /// (`Into ⊄ S`, Figure 6 line 15) or no parent remained.
    pub dead_ends: u64,
    /// Complete subhierarchies rejected by the safety-net validation
    /// (cycle/shortcut missed by eager pruning). Always 0 when eager
    /// pruning is complete; counts the generate-and-test rejections when
    /// eager pruning is disabled.
    pub late_rejections: u64,
    /// c-assignment search nodes visited across all CHECK calls.
    pub assignments_tested: u64,
    /// Frozen dimensions found (1 in decision mode, all of them in
    /// enumeration mode).
    pub frozen_found: u64,
    /// Implication memo-cache hits (queries answered without a search).
    pub cache_hits: u64,
    /// Implication memo-cache misses (queries that ran and were stored).
    pub cache_misses: u64,
    /// Implication memo-cache lookups whose 64-bit key matched a stored
    /// entry for a *different* formula. The stale hit is rejected and the
    /// query runs for real, so collisions cost time but never correctness.
    pub cache_collisions: u64,
}

impl SearchStats {
    /// Merges another run's counters into this one (used by the
    /// implication driver, which may run several satisfiability queries).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.expand_calls += other.expand_calls;
        self.elapsed += other.elapsed;
        self.check_calls += other.check_calls;
        self.dead_ends += other.dead_ends;
        self.late_rejections += other.late_rejections;
        self.assignments_tested += other.assignments_tested;
        self.frozen_found += other.frozen_found;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_collisions += other.cache_collisions;
    }
}

/// A timed outcome wrapper used by benchmark binaries.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// The wrapped result.
    pub value: T,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Times a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = std::time::Instant::now();
    let value = f();
    Timed {
        value,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_counters() {
        let mut a = SearchStats {
            expand_calls: 2,
            check_calls: 1,
            ..Default::default()
        };
        let b = SearchStats {
            expand_calls: 3,
            assignments_tested: 7,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.expand_calls, 5);
        assert_eq!(a.check_calls, 1);
        assert_eq!(a.assignments_tested, 7);
    }

    #[test]
    fn timed_measures_something() {
        let t = timed(|| 40 + 2);
        assert_eq!(t.value, 42);
    }
}
