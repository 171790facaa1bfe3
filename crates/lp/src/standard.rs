//! Conversion of a [`Model`] into the simplex computational form
//! `min c·x  s.t.  A·x = b, x ≥ 0, b ≥ 0`.
//!
//! Transformations applied, in order:
//!
//! 1. **Fixed variables** (`lower == upper`) are substituted out.
//! 2. **Lower-bounded variables** are shifted: `x = lower + x'`, `x' ≥ 0`.
//! 3. **Upper-only variables** are mirrored: `x = upper − x'`, `x' ≥ 0`.
//! 4. **Free variables** are split: `x = x⁺ − x⁻`.
//! 5. Finite **upper bounds** of shifted variables become explicit
//!    `x' ≤ upper − lower` rows.
//! 6. Each row gets a **slack** (`≤`: +1, `≥`: −1, `=`: none) turning it into
//!    an equality, and rows with negative right-hand sides are negated.
//! 7. A **maximization** objective is negated (tracked by `obj_sign`).

use crate::expr::LinExpr;
use crate::model::{Model, Relation};
use crate::simplex::RawSolution;
use crate::solution::{Solution, Status};
use crate::sparse::CscMatrix;

/// What an internal (structural or slack) column represents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ColSource {
    /// `x_var = shift + x'`.
    Shifted { var: usize, shift: f64 },
    /// `x_var = ub − x'`.
    Mirrored { var: usize, ub: f64 },
    /// Positive part of a free variable.
    FreePos { var: usize },
    /// Negative part of a free variable.
    FreeNeg { var: usize },
    /// Slack of internal row `row`.
    Slack { row: usize },
}

/// The computational standard form plus all bookkeeping needed to map a raw
/// simplex solution back onto the originating model.
#[derive(Debug, Clone)]
pub(crate) struct StandardForm {
    /// Constraint matrix over all columns (structural then slack).
    pub a: CscMatrix,
    /// Right-hand sides, all non-negative.
    pub b: Vec<f64>,
    /// Minimization costs per column.
    pub c: Vec<f64>,
    /// Total number of columns.
    pub n_cols: usize,
    /// Number of rows.
    pub m: usize,
    /// `+1` for minimize, `−1` for maximize (costs were negated).
    pub obj_sign: f64,
    /// Column provenance, indexed by column.
    pub col_source: Vec<ColSource>,
    /// Internal row index per model constraint (`None` for vacuous rows).
    pub row_of_constraint: Vec<Option<usize>>,
    /// `+1`/`−1` per internal row: whether the row kept its orientation.
    pub row_sign: Vec<f64>,
    /// Substituted value per model variable (fixed variables only).
    pub fixed_values: Vec<Option<f64>>,
    /// Slack column per internal row, if the row has one.
    pub slack_of_row: Vec<Option<usize>>,
    /// Coefficient (+1/−1, post-negation) of that slack in its row.
    pub slack_coeff: Vec<f64>,
    /// A vacuous constraint (`0 ⋈ rhs`) was violated — the model is
    /// infeasible regardless of the simplex.
    pub trivially_infeasible: bool,
}

/// Appends the terms of a model expression rewritten over standard columns
/// to `terms`, and returns the right-hand-side correction accumulated from
/// substitutions.
fn rewrite_terms(
    expr: &LinExpr,
    cols_of_var: &[VarCols],
    fixed: &[Option<f64>],
    terms: &mut Vec<(usize, f64)>,
) -> f64 {
    let mut rhs_delta = 0.0;
    for (v, coef) in expr.iter() {
        // postcard-analyze: allow(PA101) — exact-zero terms are not emitted.
        if coef == 0.0 {
            continue;
        }
        if let Some(val) = fixed[v.index()] {
            rhs_delta += coef * val;
            continue;
        }
        match cols_of_var[v.index()] {
            VarCols::Shifted { col, shift } => {
                terms.push((col, coef));
                rhs_delta += coef * shift;
            }
            VarCols::Mirrored { col, ub } => {
                terms.push((col, -coef));
                rhs_delta += coef * ub;
            }
            VarCols::Free { pos, neg } => {
                terms.push((pos, coef));
                terms.push((neg, -coef));
            }
            VarCols::Fixed => unreachable!("fixed vars handled above"),
        }
    }
    rhs_delta
}

/// The standard form's rows, closed one at a time into one flat buffer:
/// row `r` is `entries[row_start[r]..row_start[r + 1]]`, its terms over
/// the structural columns followed by its slack.
struct Rows {
    entries: Vec<(usize, f64)>,
    row_start: Vec<usize>,
    b: Vec<f64>,
    row_sign: Vec<f64>,
    slack_of_row: Vec<Option<usize>>,
    slack_coeff: Vec<f64>,
    /// The column the next slack gets: slacks follow the structural
    /// columns in row order.
    next_col: usize,
}

impl Rows {
    fn new(n_struct: usize, capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            row_start: vec![0],
            b: Vec::new(),
            row_sign: Vec::new(),
            slack_of_row: Vec::new(),
            slack_coeff: Vec::new(),
            next_col: n_struct,
        }
    }

    /// Closes the row whose terms are the entries pushed since the last
    /// row: negates it when `rhs < 0`, so that `b ≥ 0`, and gives a `≤` or
    /// `≥` row its slack column.
    fn close(&mut self, relation: Relation, rhs: f64, col_source: &mut Vec<ColSource>) {
        let r = self.b.len();
        let sign = if rhs < 0.0 { -1.0 } else { 1.0 };
        for (_, coef) in &mut self.entries[self.row_start[r]..] {
            *coef *= sign;
        }
        self.b.push(sign * rhs);
        self.row_sign.push(sign);
        let base = match relation {
            Relation::Leq => Some(1.0),
            Relation::Geq => Some(-1.0),
            Relation::Eq => None,
        };
        match base {
            Some(base) => {
                let col = self.next_col;
                self.next_col += 1;
                col_source.push(ColSource::Slack { row: r });
                self.entries.push((col, sign * base));
                self.slack_of_row.push(Some(col));
                self.slack_coeff.push(sign * base);
            }
            None => {
                self.slack_of_row.push(None);
                self.slack_coeff.push(0.0);
            }
        }
        self.row_start.push(self.entries.len());
    }
}

/// Column layout for one model variable.
#[derive(Debug, Clone, Copy)]
enum VarCols {
    Shifted { col: usize, shift: f64 },
    Mirrored { col: usize, ub: f64 },
    Free { pos: usize, neg: usize },
    Fixed,
}

impl StandardForm {
    /// Builds the standard form for a validated model.
    pub fn from_model(model: &Model) -> Self {
        let nv = model.num_vars();
        let mut fixed_values: Vec<Option<f64>> = vec![None; nv];
        let mut cols_of_var: Vec<VarCols> = Vec::with_capacity(nv);
        let mut col_source: Vec<ColSource> = Vec::new();
        // Pending upper-bound rows: (column, range).
        let mut ub_rows: Vec<(usize, f64)> = Vec::new();

        for (i, fixed) in fixed_values.iter_mut().enumerate() {
            let (lo, hi) = model.bounds(crate::Variable(i));
            if lo.is_finite() && hi.is_finite() && (hi - lo).abs() <= 1e-12 {
                *fixed = Some(lo);
                cols_of_var.push(VarCols::Fixed);
            } else if lo.is_finite() {
                let col = col_source.len();
                col_source.push(ColSource::Shifted { var: i, shift: lo });
                cols_of_var.push(VarCols::Shifted { col, shift: lo });
                if hi.is_finite() {
                    ub_rows.push((col, hi - lo));
                }
            } else if hi.is_finite() {
                let col = col_source.len();
                col_source.push(ColSource::Mirrored { var: i, ub: hi });
                cols_of_var.push(VarCols::Mirrored { col, ub: hi });
            } else {
                let pos = col_source.len();
                col_source.push(ColSource::FreePos { var: i });
                let neg = col_source.len();
                col_source.push(ColSource::FreeNeg { var: i });
                cols_of_var.push(VarCols::Free { pos, neg });
            }
        }
        let n_struct = col_source.len();

        // Rewrite the rows over standard columns.
        let num_terms = model.constraints().map(|(_, con)| con.expr.len()).sum::<usize>();
        let mut rows = Rows::new(n_struct, num_terms + model.num_constraints() + 2 * ub_rows.len());
        let mut row_of_constraint: Vec<Option<usize>> = Vec::with_capacity(model.num_constraints());
        let mut trivially_infeasible = false;
        for (_, con) in model.constraints() {
            let start = rows.entries.len();
            let rhs_delta =
                rewrite_terms(&con.expr, &cols_of_var, &fixed_values, &mut rows.entries);
            let rhs = con.rhs() - rhs_delta;
            if rows.entries[start..].iter().all(|&(_, c)| c.abs() <= 1e-14) {
                // Vacuous row `0 ⋈ rhs`: verify and skip.
                let ok = match con.relation() {
                    Relation::Leq => rhs >= -1e-9,
                    Relation::Geq => rhs <= 1e-9,
                    Relation::Eq => rhs.abs() <= 1e-9,
                };
                if !ok {
                    trivially_infeasible = true;
                }
                rows.entries.truncate(start);
                row_of_constraint.push(None);
                continue;
            }
            row_of_constraint.push(Some(rows.b.len()));
            rows.close(con.relation(), rhs, &mut col_source);
        }
        for (col, range) in ub_rows {
            rows.entries.push((col, 1.0));
            rows.close(Relation::Leq, range, &mut col_source);
        }
        let Rows { entries, row_start, b, row_sign, slack_of_row, slack_coeff, next_col: n_cols } =
            rows;
        let m = b.len();
        let a = CscMatrix::from_rows(n_cols, &row_start, &entries);

        // Costs.
        let obj_sign = match model.sense() {
            crate::Sense::Minimize => 1.0,
            crate::Sense::Maximize => -1.0,
        };
        let mut c = vec![0.0; n_cols];
        let mut terms = entries;
        terms.clear();
        rewrite_terms(model.objective_expr(), &cols_of_var, &fixed_values, &mut terms);
        for &(col, coef) in &terms {
            c[col] += obj_sign * coef;
        }

        StandardForm {
            a,
            b,
            c,
            n_cols,
            m,
            obj_sign,
            col_source,
            row_of_constraint,
            row_sign,
            fixed_values,
            slack_of_row,
            slack_coeff,
            trivially_infeasible,
        }
    }

    /// Maps a raw simplex solution back into model space.
    pub fn map_solution(&self, model: &Model, raw: RawSolution) -> Solution {
        let nv = model.num_vars();
        match raw.status {
            Status::Optimal => {
                let mut values = vec![0.0; nv];
                for (i, fv) in self.fixed_values.iter().enumerate() {
                    if let Some(v) = fv {
                        values[i] = *v;
                    }
                }
                for (col, src) in self.col_source.iter().enumerate() {
                    let xv = raw.x[col];
                    match *src {
                        ColSource::Shifted { var, shift } => values[var] = shift + xv,
                        ColSource::Mirrored { var, ub } => values[var] = ub - xv,
                        ColSource::FreePos { var } => values[var] += xv,
                        ColSource::FreeNeg { var } => values[var] -= xv,
                        ColSource::Slack { .. } => {}
                    }
                }
                let objective = model.objective_expr().evaluate(&values);
                let mut duals = vec![0.0; model.num_constraints()];
                for (ci, row) in self.row_of_constraint.iter().enumerate() {
                    if let Some(r) = *row {
                        duals[ci] = self.obj_sign * self.row_sign[r] * raw.y[r];
                    }
                }
                Solution::new(Status::Optimal, objective, values, duals, raw.counts, raw.basis)
            }
            Status::Infeasible => Solution::new(
                Status::Infeasible,
                f64::NAN,
                vec![0.0; nv],
                vec![0.0; model.num_constraints()],
                raw.counts,
                None,
            ),
            Status::Unbounded => {
                let obj = match model.sense() {
                    crate::Sense::Minimize => f64::NEG_INFINITY,
                    crate::Sense::Maximize => f64::INFINITY,
                };
                Solution::new(
                    Status::Unbounded,
                    obj,
                    vec![0.0; nv],
                    vec![0.0; model.num_constraints()],
                    raw.counts,
                    None,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Sense};

    #[test]
    fn shifts_and_slacks() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 2.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x));
        m.leq(LinExpr::from(x), 10.0);
        let sf = StandardForm::from_model(&m);
        // One structural + one slack column; one row; rhs shifted to 8.
        assert_eq!(sf.n_cols, 2);
        assert_eq!(sf.m, 1);
        assert!((sf.b[0] - 8.0).abs() < 1e-12);
        assert_eq!(sf.slack_coeff[0], 1.0);
    }

    #[test]
    fn upper_bound_becomes_row() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 5.0);
        m.set_objective(LinExpr::from(x));
        let sf = StandardForm::from_model(&m);
        assert_eq!(sf.m, 1); // the bound row
        assert!((sf.b[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn free_variable_splits() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        m.set_objective(LinExpr::from(x));
        m.eq(LinExpr::from(x), -3.0);
        let sf = StandardForm::from_model(&m);
        // pos + neg columns, no slack (equality).
        assert_eq!(sf.n_cols, 2);
        // Row was negated to keep b ≥ 0.
        assert!((sf.b[0] - 3.0).abs() < 1e-12);
        assert_eq!(sf.row_sign[0], -1.0);
    }

    #[test]
    fn fixed_variable_substituted() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 4.0, 4.0);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(y));
        m.geq(x + y, 10.0); // ⇒ y ≥ 6
        let sf = StandardForm::from_model(&m);
        assert_eq!(sf.fixed_values[0], Some(4.0));
        assert!((sf.b[0] - 6.0).abs() < 1e-12);
        let sol = m.solve().unwrap();
        assert!((sol.value(y) - 6.0).abs() < 1e-7);
        assert!((sol.value(x) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn vacuous_violated_row_flags_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 1.0, 1.0);
        m.set_objective(LinExpr::from(x));
        m.geq(LinExpr::from(x), 5.0); // 1 ≥ 5: vacuous after substitution, violated
        let sf = StandardForm::from_model(&m);
        assert!(sf.trivially_infeasible);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status(), Status::Infeasible);
    }

    #[test]
    fn mirrored_variable_maps_back() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", f64::NEG_INFINITY, 7.0);
        m.set_objective(LinExpr::from(x));
        let sol = m.solve().unwrap();
        assert_eq!(sol.status(), Status::Optimal);
        assert!((sol.value(x) - 7.0).abs() < 1e-9);
    }
}
