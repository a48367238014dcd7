//! Assignment configuration and the four heuristic variants of Figs 12/13.

/// The four algorithm variants the paper compares (Figures 12 and 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Non-iterative, simple cluster selection (Fig. 10 without lines
    /// 3-8): first feasible cluster.
    Simple,
    /// Iterative with the simple cluster selection.
    SimpleIterative,
    /// Non-iterative with the full selection heuristic.
    Heuristic,
    /// Iterative with the full selection heuristic — the paper's proposed
    /// algorithm.
    HeuristicIterative,
}

impl Variant {
    /// All four variants in the order the paper's legends list them.
    pub const ALL: [Variant; 4] = [
        Variant::Simple,
        Variant::SimpleIterative,
        Variant::Heuristic,
        Variant::HeuristicIterative,
    ];

    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Simple => "Simple",
            Variant::SimpleIterative => "Simple Iterative",
            Variant::Heuristic => "Heuristic",
            Variant::HeuristicIterative => "Heuristic Iterative",
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which node ordering drives the assignment (§4.1 and its ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ordering {
    /// The paper's ordering: SCC sets by decreasing RecMII, swing-ordered
    /// within each set.
    #[default]
    SccSwing,
    /// Swing ordering over the whole graph, without SCC-first sets
    /// (isolates the benefit of §4.1's set formation).
    SwingOnly,
    /// The §3.1 strawman: plain bottom-up traversal.
    BottomUp,
}

/// Tuning knobs for the cluster assigner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignConfig {
    /// Enable the iterative removal/reassignment machinery (§4.3). When
    /// off, the first unassignable node fails the II attempt.
    pub iterative: bool,
    /// Enable the full selection cascade (Fig. 10 lines 3-8). When off,
    /// the first feasible cluster wins ("Simple").
    pub heuristic: bool,
    /// Enable the PCR <= MRC predicted-copy-pressure selection (Fig. 10
    /// line 6) within the heuristic cascade; disable to ablate prediction
    /// alone.
    pub pcr_prediction: bool,
    /// Node ordering strategy (§4.1; non-default values are ablations).
    pub ordering: Ordering,
    /// Per-II-attempt budget as a multiple of the node count: each
    /// finalized (including forced) assignment spends one unit; exhausting
    /// the budget bumps II.
    pub budget_factor: u32,
    /// Hard cap on the II search; `None` derives a generous bound from the
    /// graph (see `clasp_ddg::max_ii_bound`).
    pub max_ii: Option<u32>,
}

impl Default for AssignConfig {
    fn default() -> Self {
        Variant::HeuristicIterative.into()
    }
}

impl From<Variant> for AssignConfig {
    fn from(v: Variant) -> Self {
        let (iterative, heuristic) = match v {
            Variant::Simple => (false, false),
            Variant::SimpleIterative => (true, false),
            Variant::Heuristic => (false, true),
            Variant::HeuristicIterative => (true, true),
        };
        AssignConfig {
            iterative,
            heuristic,
            pcr_prediction: true,
            ordering: Ordering::SccSwing,
            budget_factor: 6,
            max_ii: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_algorithm() {
        let c = AssignConfig::default();
        assert!(c.iterative);
        assert!(c.heuristic);
    }

    #[test]
    fn variants_map_to_flags() {
        let s = AssignConfig::from(Variant::Simple);
        assert!(!s.iterative && !s.heuristic);
        let si = AssignConfig::from(Variant::SimpleIterative);
        assert!(si.iterative && !si.heuristic);
        let h = AssignConfig::from(Variant::Heuristic);
        assert!(!h.iterative && h.heuristic);
    }

    #[test]
    fn labels() {
        assert_eq!(
            Variant::HeuristicIterative.to_string(),
            "Heuristic Iterative"
        );
        assert_eq!(Variant::ALL.len(), 4);
    }
}
