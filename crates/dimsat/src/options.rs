//! Search configuration, including the ablation switches used by the
//! benchmark suite.

/// Which frontier category EXPAND picks next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopOrder {
    /// Depth-first: expand the most recently discovered category first.
    /// This is the default; it reaches complete subhierarchies (and hence
    /// CHECK) quickly.
    #[default]
    Lifo,
    /// Breadth-first: expand categories in discovery order.
    Fifo,
}

/// Tunable behavior of the DIMSAT search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimsatOptions {
    /// Honor *into* constraints (`c_c'` in `Σ`) by forcing the parent into
    /// every expansion of `c` (Figure 6 line 14–15). Disabling this is the
    /// E9 ablation: the search still returns correct answers (CHECK
    /// rejects subhierarchies missing forced edges) but explores far more
    /// of the space.
    pub into_pruning: bool,
    /// Prune cycle- and shortcut-creating parent choices during expansion
    /// (the `Sc`/`Ss` sets of Figure 6). Disabling falls back to
    /// generate-and-test: every complete subhierarchy is validated before
    /// CHECK instead.
    pub eager_structure_pruning: bool,
    /// Frontier discipline.
    pub order: TopOrder,
    /// Record a [`crate::TraceEvent`] log of the search (Figure 7).
    pub trace: bool,
    /// Maintain the `In*` reachability sets incrementally (Figure 6,
    /// lines 2/4/11/12) instead of recomputing reachability by DFS at
    /// every pruning decision. Same answers either way; this is the
    /// paper's own bookkeeping, kept switchable so its effect can be
    /// measured.
    pub incremental_instar: bool,
}

impl Default for DimsatOptions {
    fn default() -> Self {
        DimsatOptions {
            into_pruning: true,
            eager_structure_pruning: true,
            order: TopOrder::Lifo,
            trace: false,
            incremental_instar: true,
        }
    }
}

impl DimsatOptions {
    /// The paper's full algorithm (all heuristics on).
    pub fn full() -> Self {
        Self::default()
    }

    /// E9 ablation: no into pruning.
    pub fn without_into_pruning() -> Self {
        DimsatOptions {
            into_pruning: false,
            ..Self::default()
        }
    }

    /// E9 ablation: generate-and-test (no eager structural pruning, no
    /// into pruning) — the closest in-search analogue of the naive
    /// Theorem-3 enumeration.
    pub fn generate_and_test() -> Self {
        DimsatOptions {
            into_pruning: false,
            eager_structure_pruning: false,
            ..Self::default()
        }
    }

    /// Enables tracing.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Ablation: recompute reachability by DFS instead of maintaining
    /// `In*` incrementally.
    pub fn without_incremental_instar(mut self) -> Self {
        self.incremental_instar = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_heuristics() {
        let o = DimsatOptions::default();
        assert!(o.into_pruning);
        assert!(o.eager_structure_pruning);
        assert_eq!(o.order, TopOrder::Lifo);
        assert!(!o.trace);
    }

    #[test]
    fn ablation_constructors() {
        assert!(!DimsatOptions::without_into_pruning().into_pruning);
        assert!(DimsatOptions::without_into_pruning().eager_structure_pruning);
        let gt = DimsatOptions::generate_and_test();
        assert!(!gt.into_pruning && !gt.eager_structure_pruning);
        assert!(DimsatOptions::full().with_trace().trace);
        assert!(DimsatOptions::full().incremental_instar);
        assert!(
            !DimsatOptions::full()
                .without_incremental_instar()
                .incremental_instar
        );
    }
}
