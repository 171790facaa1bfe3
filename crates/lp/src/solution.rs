//! Solver results.

use crate::expr::Variable;
use crate::model::ConstraintId;
use crate::simplex::Basis;

/// Termination status of a solve.
#[must_use = "a solve status must be inspected: non-optimal outcomes carry no usable values"]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Status::Optimal => write!(f, "optimal"),
            Status::Infeasible => write!(f, "infeasible"),
            Status::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// Solver effort counters of one solve, carried from the simplex into
/// [`Solution`]. Counts only: the solver reads no clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SolveCounts {
    /// Pivots across every phase.
    pub(crate) iterations: usize,
    /// Dual-simplex pivots (a subset of `iterations`).
    pub(crate) dual_iterations: usize,
    /// Primal pivots spent reaching feasibility (a subset of `iterations`).
    pub(crate) phase1_iterations: usize,
    /// Basis refactorizations.
    pub(crate) refactorizations: usize,
    /// Artificial columns in the start basis.
    pub(crate) artificials: usize,
    /// Whether a supplied warm basis seeded the returned solve.
    pub(crate) warm_started: bool,
}

/// The outcome of solving a [`crate::Model`].
///
/// For non-[`Status::Optimal`] outcomes the primal/dual values are all zero
/// and the objective is `f64::NAN` (infeasible) or signed infinity
/// (unbounded); always check [`Solution::status`] first.
#[must_use = "dropping a Solution discards the solve outcome, including infeasibility"]
#[derive(Debug, Clone)]
pub struct Solution {
    status: Status,
    objective: f64,
    values: Vec<f64>,
    duals: Vec<f64>,
    counts: SolveCounts,
    basis: Option<Basis>,
}

impl Solution {
    pub(crate) fn new(
        status: Status,
        objective: f64,
        values: Vec<f64>,
        duals: Vec<f64>,
        counts: SolveCounts,
        basis: Option<Basis>,
    ) -> Self {
        Self { status, objective, values, duals, counts, basis }
    }

    /// Termination status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// `true` when the solve found an optimum.
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }

    /// Objective value in the model's own sense (i.e. already un-negated for
    /// maximization problems).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of one variable.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to the solved model.
    pub fn value(&self, var: Variable) -> f64 {
        self.values[var.index()]
    }

    /// All primal values, indexed by variable index.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Dual value of one constraint.
    ///
    /// The sign convention: duals are reported so that for a *minimization*
    /// problem, a binding `≤` constraint has a non-negative dual and the
    /// strong-duality identity checked in [`crate::validate`] holds; for a
    /// maximization problem duals are negated accordingly.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to the solved model.
    pub fn dual(&self, c: ConstraintId) -> f64 {
        self.duals[c.index()]
    }

    /// All dual values, indexed by constraint id.
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// Number of simplex iterations across both phases.
    pub fn iterations(&self) -> usize {
        self.counts.iterations
    }

    /// Number of dual-simplex pivots (a subset of [`Solution::iterations`]):
    /// nonzero exactly when a warm basis left primal-infeasible by a
    /// right-hand-side change was re-optimized in place by the dual simplex
    /// instead of a cold two-phase restart.
    pub fn dual_iterations(&self) -> usize {
        self.counts.dual_iterations
    }

    /// Number of phase-1 pivots (a subset of [`Solution::iterations`]):
    /// the primal pivots spent driving the artificials out before the true
    /// costs were priced. Zero for a warm-started solve.
    pub fn phase1_iterations(&self) -> usize {
        self.counts.phase1_iterations
    }

    /// Number of basis refactorizations the solve performed.
    pub fn refactorizations(&self) -> usize {
        self.counts.refactorizations
    }

    /// Number of artificial columns the solve started with. For a cold
    /// solve these are the rows neither a slack nor the triangular crash
    /// could cover: on a Postcard LP, one release row per file. For a warm
    /// solve they are the artificials the exported basis kept on linearly
    /// dependent rows.
    pub fn artificials(&self) -> usize {
        self.counts.artificials
    }

    /// `true` when a supplied warm basis actually seeded the solve. A basis
    /// that was offered but rejected (dimension mismatch, singular,
    /// infeasible, or degraded mid-solve) leaves this `false`: the solve
    /// then ran cold.
    pub fn warm_started(&self) -> bool {
        self.counts.warm_started
    }

    /// The optimal basis, for warm-starting a later solve of a same-shaped
    /// model via [`crate::Model::solve_warm`]. `None` unless the solve
    /// terminated [`Status::Optimal`].
    pub fn basis(&self) -> Option<&Basis> {
        self.basis.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display() {
        assert_eq!(Status::Optimal.to_string(), "optimal");
        assert_eq!(Status::Infeasible.to_string(), "infeasible");
        assert_eq!(Status::Unbounded.to_string(), "unbounded");
    }

    #[test]
    fn accessors() {
        let counts = SolveCounts {
            iterations: 7,
            dual_iterations: 2,
            phase1_iterations: 4,
            refactorizations: 1,
            artificials: 3,
            warm_started: true,
        };
        let s = Solution::new(Status::Optimal, 3.5, vec![1.0, 2.0], vec![0.5], counts, None);
        assert!(s.is_optimal());
        assert_eq!(s.objective(), 3.5);
        assert_eq!(s.values(), &[1.0, 2.0]);
        assert_eq!(s.duals(), &[0.5]);
        assert_eq!(s.iterations(), 7);
        assert_eq!(s.dual_iterations(), 2);
        assert_eq!(s.phase1_iterations(), 4);
        assert_eq!(s.refactorizations(), 1);
        assert_eq!(s.artificials(), 3);
        assert!(s.warm_started());
        assert!(s.basis().is_none());
    }
}
