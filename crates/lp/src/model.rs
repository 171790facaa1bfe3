//! The user-facing LP modeling layer.

use crate::error::LpError;
use crate::expr::{LinExpr, Variable};
use crate::simplex::{SimplexOptions, SimplexSolver};
use crate::solution::Solution;
use crate::standard::StandardForm;
use std::borrow::Cow;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Relation of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `expr ≤ rhs`
    Leq,
    /// `expr = rhs`
    Eq,
    /// `expr ≥ rhs`
    Geq,
}

/// Handle to a constraint of a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintId(pub(crate) usize);

impl ConstraintId {
    /// Dense 0-based index of this constraint within its model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A stored linear constraint `expr ⋈ rhs` (the expression's constant part is
/// folded into `rhs` on ingestion).
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    pub(crate) expr: LinExpr,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

impl Constraint {
    /// The left-hand-side expression (constant-free).
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// The relation.
    pub fn relation(&self) -> Relation {
        self.relation
    }

    /// The right-hand side.
    pub fn rhs(&self) -> f64 {
        self.rhs
    }
}

/// A linear program under construction.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug, Clone)]
pub struct Model {
    sense: Sense,
    objective: LinExpr,
    names: Vec<String>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            objective: LinExpr::new(),
            names: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Replaces the optimization sense (useful for lexicographic re-solves:
    /// clone the model, pin the primary objective with a constraint, then
    /// optimize a secondary objective in the other direction).
    pub fn set_sense(&mut self, sense: Sense) {
        self.sense = sense;
    }

    /// Adds a variable with the given bounds and returns its handle.
    ///
    /// Use `f64::NEG_INFINITY` / `f64::INFINITY` for free directions. Bounds
    /// are validated at solve time (so that building can stay infallible).
    pub fn add_var(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> Variable {
        let idx = self.names.len();
        self.names.push(name.into());
        self.lower.push(lower);
        self.upper.push(upper);
        Variable(idx)
    }

    /// Adds an unnamed variable with the given bounds. [`Model::var_name`]
    /// renders it as `x<index>`; builders that create thousands of
    /// variables per solve use this to skip formatting a name for each.
    pub fn add_anon_var(&mut self, lower: f64, upper: f64) -> Variable {
        self.add_var(String::new(), lower, upper)
    }

    /// Adds `count` variables sharing bounds, named `prefix[0..count)`.
    pub fn add_vars(
        &mut self,
        prefix: &str,
        count: usize,
        lower: f64,
        upper: f64,
    ) -> Vec<Variable> {
        (0..count).map(|i| self.add_var(format!("{prefix}[{i}]"), lower, upper)).collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable; an unnamed one ([`Model::add_anon_var`]) reads
    /// `x<index>`.
    pub fn var_name(&self, v: Variable) -> Cow<'_, str> {
        match self.names[v.0].as_str() {
            "" => Cow::Owned(format!("x{}", v.0)),
            name => Cow::Borrowed(name),
        }
    }

    /// `(lower, upper)` bounds of a variable.
    pub fn bounds(&self, v: Variable) -> (f64, f64) {
        (self.lower[v.0], self.upper[v.0])
    }

    /// Replaces the right-hand side of an existing constraint, keeping its
    /// expression and relation.
    ///
    /// Note that [`Model::add_constraint`] folds the expression's constant
    /// part into the stored right-hand side at ingestion; the value set here
    /// replaces that folded result directly (stored expressions are
    /// constant-free).
    pub fn set_rhs(&mut self, id: ConstraintId, rhs: f64) {
        self.constraints[id.0].rhs = rhs;
    }

    /// Sets the objective expression (replacing any previous one).
    pub fn set_objective(&mut self, expr: impl Into<LinExpr>) {
        self.objective = expr.into();
    }

    /// The current objective expression.
    pub fn objective_expr(&self) -> &LinExpr {
        &self.objective
    }

    /// Adds `lhs ≤ rhs`.
    pub fn leq(&mut self, lhs: impl Into<LinExpr>, rhs: f64) -> ConstraintId {
        self.add_constraint(lhs.into(), Relation::Leq, rhs)
    }

    /// Adds `lhs ≥ rhs`.
    pub fn geq(&mut self, lhs: impl Into<LinExpr>, rhs: f64) -> ConstraintId {
        self.add_constraint(lhs.into(), Relation::Geq, rhs)
    }

    /// Adds `lhs = rhs`.
    pub fn eq(&mut self, lhs: impl Into<LinExpr>, rhs: f64) -> ConstraintId {
        self.add_constraint(lhs.into(), Relation::Eq, rhs)
    }

    /// Adds a constraint with an explicit relation.
    pub fn add_constraint(
        &mut self,
        lhs: impl Into<LinExpr>,
        relation: Relation,
        rhs: f64,
    ) -> ConstraintId {
        let mut expr = lhs.into();
        let rhs = rhs - expr.constant();
        expr.add_constant(-expr.constant());
        expr.compact();
        let id = ConstraintId(self.constraints.len());
        self.constraints.push(Constraint { expr, relation, rhs });
        id
    }

    /// Read access to a stored constraint.
    pub fn constraint(&self, id: ConstraintId) -> &Constraint {
        &self.constraints[id.0]
    }

    /// Iterates over all constraints with their ids.
    pub fn constraints(&self) -> impl Iterator<Item = (ConstraintId, &Constraint)> {
        self.constraints.iter().enumerate().map(|(i, c)| (ConstraintId(i), c))
    }

    /// Iterates over all variable handles of the model, in index order.
    pub fn variables(&self) -> impl Iterator<Item = Variable> {
        (0..self.names.len()).map(Variable)
    }

    /// Validates the model (bounds, NaNs, handle ranges).
    ///
    /// # Errors
    ///
    /// Returns the first structural problem found; see [`LpError`].
    pub fn validate(&self) -> Result<(), LpError> {
        if self.names.is_empty() {
            return Err(LpError::EmptyModel);
        }
        for i in 0..self.names.len() {
            let (lo, hi) = (self.lower[i], self.upper[i]);
            if lo.is_nan() || hi.is_nan() {
                return Err(LpError::NotANumber {
                    context: format!("bounds of `{}`", self.var_name(Variable(i))),
                });
            }
            if lo > hi {
                return Err(LpError::InvalidBounds {
                    name: self.var_name(Variable(i)).into_owned(),
                    lower: lo,
                    upper: hi,
                });
            }
        }
        if self.objective.has_nan() {
            return Err(LpError::NotANumber { context: "objective".into() });
        }
        if let Some(mx) = self.objective.max_var_index() {
            if mx >= self.names.len() {
                return Err(LpError::UnknownVariable { index: mx, num_vars: self.names.len() });
            }
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if c.expr.has_nan() || c.rhs.is_nan() {
                return Err(LpError::NotANumber { context: format!("constraint #{i}") });
            }
            if let Some(mx) = c.expr.max_var_index() {
                if mx >= self.names.len() {
                    return Err(LpError::UnknownVariable { index: mx, num_vars: self.names.len() });
                }
            }
        }
        Ok(())
    }

    /// Solves the model with default [`SimplexOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`LpError`] for malformed models or numerical failure. Note
    /// that infeasibility/unboundedness are *not* errors — they are reported
    /// through [`Solution::status`].
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solves with explicit options.
    ///
    /// # Errors
    ///
    /// Same contract as [`Model::solve`].
    pub fn solve_with(&self, options: &SimplexOptions) -> Result<Solution, LpError> {
        self.solve_warm(options, None)
    }

    /// Solves with explicit options, warm-starting from a basis exported by
    /// a previous optimal solve ([`Solution::basis`]) when one is supplied.
    ///
    /// When the basis's dimensions do not match this model's standard
    /// form, or it is singular or infeasible for the new data, the solver
    /// silently falls back to a cold two-phase solve. Either way the
    /// optimal cost equals [`Model::solve_with`]'s, but a warm solve may end
    /// at another optimal vertex, so the values can differ.
    ///
    /// # Errors
    ///
    /// Same contract as [`Model::solve`].
    pub fn solve_warm(
        &self,
        options: &SimplexOptions,
        warm: Option<&crate::simplex::Basis>,
    ) -> Result<Solution, LpError> {
        let mut ws = crate::simplex::SolverWorkspace::new();
        self.prepare()?.solve_warm(self, options, warm, &mut ws)
    }

    /// Compiles the model's standard form once, so that building it and
    /// solving it can be timed, and repeated, apart (see [`PreparedLp`]).
    ///
    /// # Errors
    ///
    /// Returns [`LpError`] when the model fails validation.
    pub fn prepare(&self) -> Result<PreparedLp, LpError> {
        self.validate()?;
        Ok(PreparedLp { sf: StandardForm::from_model(self) })
    }
}

/// A compiled standard form, produced by [`Model::prepare`] and solved by
/// [`PreparedLp::solve_warm`] with a caller-owned
/// [`crate::SolverWorkspace`], whose allocations survive across solves.
#[derive(Debug, Clone)]
pub struct PreparedLp {
    sf: StandardForm,
}

impl PreparedLp {
    /// Solves against the prepared form, warm-starting from `warm` and
    /// reusing `ws`'s allocations.
    ///
    /// `model` must be the model this form was prepared from — it supplies
    /// the objective evaluation and solution mapping. [`Model::prepare`]
    /// already validated it, so it is not validated again here.
    ///
    /// # Errors
    ///
    /// [`LpError`] on numerical failure; a malformed model is reported by
    /// [`Model::prepare`] instead.
    pub fn solve_warm(
        &self,
        model: &Model,
        options: &SimplexOptions,
        warm: Option<&crate::simplex::Basis>,
        ws: &mut crate::simplex::SolverWorkspace,
    ) -> Result<Solution, LpError> {
        debug_assert_eq!(self.sf.fixed_values.len(), model.num_vars(), "not the prepared model");
        let solver = SimplexSolver::new(options.clone());
        let raw = solver.solve_warm(&self.sf, warm, ws)?;
        Ok(self.sf.map_solution(model, raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Status;

    #[test]
    fn basic_maximize() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(3.0 * x + 2.0 * y);
        m.leq(x + y, 4.0);
        m.leq(x + 3.0 * y, 6.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal);
        assert!((s.objective() - 12.0).abs() < 1e-6, "obj = {}", s.objective());
        assert!((s.value(x) - 4.0).abs() < 1e-6);
        assert!(s.value(y).abs() < 1e-6);
    }

    #[test]
    fn constant_in_constraint_folds_into_rhs() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x));
        // x + 3 ≥ 5  ⇔  x ≥ 2
        m.geq(x + 3.0, 5.0);
        let s = m.solve().unwrap();
        assert!((s.value(x) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 1.0, 0.0);
        m.set_objective(LinExpr::from(x));
        assert!(matches!(m.solve(), Err(LpError::InvalidBounds { .. })));
    }

    #[test]
    fn empty_model_rejected() {
        let m = Model::new(Sense::Minimize);
        assert!(matches!(m.solve(), Err(LpError::EmptyModel)));
    }

    #[test]
    fn nan_rejected() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0);
        m.set_objective(f64::NAN * x);
        assert!(matches!(m.solve(), Err(LpError::NotANumber { .. })));
    }

    #[test]
    fn add_vars_names() {
        let mut m = Model::new(Sense::Minimize);
        let vs = m.add_vars("f", 3, 0.0, 1.0);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.var_name(vs[2]), "f[2]");
    }

    #[test]
    fn anonymous_vars_render_their_index() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("named", 0.0, 1.0);
        let anon = m.add_anon_var(0.0, 1.0);
        assert_eq!(m.var_name(anon), "x1");
        m.set_objective(LinExpr::from(anon));
        m.leq(LinExpr::from(anon), 1.0);
        let bad = m.add_anon_var(2.0, 1.0);
        assert!(matches!(
            m.validate(),
            Err(LpError::InvalidBounds { ref name, .. }) if name == "x2" && bad.index() == 2
        ));
    }

    #[test]
    fn constraint_accessors() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let id = m.leq(2.0 * x, 10.0);
        let c = m.constraint(id);
        assert_eq!(c.relation(), Relation::Leq);
        assert_eq!(c.rhs(), 10.0);
        assert_eq!(c.expr().coefficient(x), 2.0);
        assert_eq!(m.constraints().count(), 1);
    }
}
