//! Typed scheduling-failure reasons.
//!
//! The schedulers used to answer "no schedule at this II" with a bare
//! `None`, which made II-escalation decisions unexplainable: a budget
//! exhaustion (retry at a larger II may help), a structurally impossible
//! resource request (no II will ever help), and a malformed annotation
//! (caller bug) all looked identical. [`SchedFailure`] keeps them apart
//! and records the *blocking node* — the operation the scheduler was
//! working on when it gave up — so the pipeline report can say not just
//! that II escalated but why.

use crate::schedule::ScheduleError;
use clasp_ddg::NodeId;
use std::fmt;

/// Why a modulo-scheduling attempt (or a whole II sweep) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedFailure {
    /// The placement budget (Rau's `budget_ratio × nodes`) ran out at
    /// `ii` while `node` was the highest-priority unscheduled operation.
    /// A larger II usually relieves the contention.
    BudgetExhausted {
        /// The II being attempted.
        ii: u32,
        /// The operation the scheduler was about to (re)place.
        node: NodeId,
    },
    /// `node`'s resource request can never be granted: the reservation
    /// table has no matching capacity in any row (e.g. its assigned
    /// cluster has no unit of the required class). No II helps.
    ResourceImpossible {
        /// The II being attempted when the conflict was discovered.
        ii: u32,
        /// The operation with the unsatisfiable request.
        node: NodeId,
    },
    /// An exact (SAT-based) backend spent its solver resource budget
    /// before reaching an answer. Distinct from [`SchedFailure::
    /// BudgetExhausted`]: that is a heuristic placement budget at one II,
    /// this is a proof-search cap — the II in question is neither proved
    /// feasible nor infeasible.
    Budget {
        /// Solver conflicts spent before giving up.
        conflicts: u64,
        /// Node count of the instance (the per-instance size cap also
        /// surfaces here, with `conflicts == 0`).
        nodes: usize,
    },
    /// An exact backend *proved* there is no schedule at `ii` (an UNSAT
    /// certificate, not a search giving up). A larger II may exist.
    Infeasible {
        /// The II proved infeasible.
        ii: u32,
    },
    /// MII is unbounded: some operation kind has no functional unit
    /// anywhere on the machine, so no II search can even start.
    MiiUnbounded,
    /// The graph annotation is unusable — a node is missing its cluster
    /// assignment or copy metadata. This is a caller error, not a
    /// scheduling outcome.
    Invalid(ScheduleError),
    /// Every II in `min_ii..=max_ii` failed. `last` is the final
    /// attempt's reason (`None` only when the range was empty).
    Exhausted {
        /// First II attempted.
        min_ii: u32,
        /// Last II attempted.
        max_ii: u32,
        /// The failure reported at `max_ii`.
        last: Option<Box<SchedFailure>>,
    },
}

impl SchedFailure {
    /// The operation the scheduler was blocked on, when one is known.
    /// For a range exhaustion this is the blocking node of the last
    /// attempt.
    pub fn blocking_node(&self) -> Option<NodeId> {
        match self {
            SchedFailure::BudgetExhausted { node, .. }
            | SchedFailure::ResourceImpossible { node, .. } => Some(*node),
            SchedFailure::Exhausted { last, .. } => last.as_ref().and_then(|f| f.blocking_node()),
            SchedFailure::Budget { .. }
            | SchedFailure::Infeasible { .. }
            | SchedFailure::MiiUnbounded
            | SchedFailure::Invalid(_) => None,
        }
    }

    /// Whether escalating to a larger II could plausibly succeed.
    /// Structural failures (impossible requests, unbounded MII, bad
    /// annotations) return `false`.
    pub fn retryable(&self) -> bool {
        match self {
            SchedFailure::BudgetExhausted { .. } | SchedFailure::Infeasible { .. } => true,
            SchedFailure::Budget { .. }
            | SchedFailure::ResourceImpossible { .. }
            | SchedFailure::MiiUnbounded
            | SchedFailure::Invalid(_) => false,
            SchedFailure::Exhausted { last, .. } => last.as_ref().is_some_and(|f| f.retryable()),
        }
    }
}

impl fmt::Display for SchedFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedFailure::BudgetExhausted { ii, node } => {
                write!(
                    f,
                    "placement budget exhausted at II = {ii} (blocked on {node})"
                )
            }
            SchedFailure::ResourceImpossible { ii, node } => {
                write!(
                    f,
                    "{node}'s resource request is unsatisfiable at II = {ii} (no matching unit)"
                )
            }
            SchedFailure::Budget { conflicts, nodes } => {
                if *conflicts == 0 {
                    write!(
                        f,
                        "exact backend refused the instance: {nodes} nodes exceed the size cap"
                    )
                } else {
                    write!(
                        f,
                        "exact solver budget spent ({conflicts} conflicts, {nodes} nodes) \
                         with no answer"
                    )
                }
            }
            SchedFailure::Infeasible { ii } => {
                write!(f, "proved infeasible at II = {ii} (UNSAT)")
            }
            SchedFailure::MiiUnbounded => {
                write!(f, "MII is unbounded: some operation has no unit anywhere")
            }
            SchedFailure::Invalid(e) => write!(f, "graph annotation unusable: {e}"),
            SchedFailure::Exhausted {
                min_ii,
                max_ii,
                last,
            } => {
                write!(f, "every II in {min_ii}..={max_ii} failed")?;
                if let Some(last) = last {
                    write!(f, "; at II = {max_ii}: {last}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SchedFailure {}

impl From<ScheduleError> for SchedFailure {
    fn from(e: ScheduleError) -> Self {
        SchedFailure::Invalid(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_node_threads_through_exhaustion() {
        let inner = SchedFailure::BudgetExhausted {
            ii: 4,
            node: NodeId(7),
        };
        let outer = SchedFailure::Exhausted {
            min_ii: 2,
            max_ii: 4,
            last: Some(Box::new(inner)),
        };
        assert_eq!(outer.blocking_node(), Some(NodeId(7)));
        assert!(outer.retryable());
    }

    #[test]
    fn structural_failures_are_not_retryable() {
        assert!(!SchedFailure::MiiUnbounded.retryable());
        assert!(!SchedFailure::ResourceImpossible {
            ii: 1,
            node: NodeId(0)
        }
        .retryable());
        assert_eq!(SchedFailure::MiiUnbounded.blocking_node(), None);
    }

    #[test]
    fn solver_budget_and_infeasible_shapes() {
        let b = SchedFailure::Budget {
            conflicts: 1000,
            nodes: 12,
        };
        assert_eq!(b.blocking_node(), None);
        assert!(!b.retryable(), "a spent proof budget is not an II problem");
        assert!(b.to_string().contains("1000 conflicts"));
        let cap = SchedFailure::Budget {
            conflicts: 0,
            nodes: 99,
        };
        assert!(cap.to_string().contains("size cap"));
        let inf = SchedFailure::Infeasible { ii: 3 };
        assert!(inf.retryable(), "UNSAT at one II says nothing about II+1");
        assert!(inf.to_string().contains("II = 3"));
    }

    #[test]
    fn display_is_informative() {
        let s = SchedFailure::BudgetExhausted {
            ii: 3,
            node: NodeId(2),
        }
        .to_string();
        assert!(s.contains("II = 3"));
        assert!(s.contains("budget"));
    }
}
