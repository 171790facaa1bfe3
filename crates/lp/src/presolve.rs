//! Opt-in presolve: shrink a [`Model`] before the simplex sees it.
//!
//! Three classic, always-safe reductions are implemented:
//!
//! 1. **Empty-row elimination** — a constraint whose left-hand side has no
//!    (nonzero) terms reads `0 ⋈ rhs`; it is dropped, after checking whether
//!    the trivial relation holds (a violated one proves infeasibility);
//! 2. **Singleton-row folding** — a constraint touching exactly one
//!    variable (`a·x ⋈ b`) is a bound in disguise and is folded into the
//!    variable's bound interval (detecting empty intervals as
//!    infeasibility);
//! 3. **Duplicate-row elimination** — rows with identical left-hand sides
//!    keep only their tightest right-hand side.
//!
//! The Postcard formulations benefit directly: every capacity row on an arc
//! used by a single file is a singleton, and batches with overlapping
//! windows produce many parallel rows.
//!
//! Primal solutions are unaffected (variables are never eliminated); dual
//! values of *removed* rows are reported as 0 — the multiplier of a folded
//! singleton row migrates to the bound, which this crate does not expose.
//! Use presolve when you want speed and primal answers; solve the original
//! model when you need the full dual vector.

use crate::error::LpError;
use crate::model::{Model, Relation};
use crate::solution::{Solution, SolveCounts, Status};
use crate::Variable;
use std::collections::BTreeMap;

/// Duplicate-lhs bookkeeping: canonical row key (bit-exact coefficient
/// terms + relation tag) → (kept slot in `kept_rows`, tightest rhs so far).
type DupGroups = BTreeMap<(Vec<(usize, u64)>, u8), (usize, f64)>;

/// The outcome of presolving a model: a reduced model plus the bookkeeping
/// to map solutions back.
#[must_use = "a Presolved carries the reduced model (and possibly a proof of infeasibility)"]
#[derive(Debug, Clone)]
pub struct Presolved {
    reduced: Model,
    /// For each kept row of the reduced model, the original constraint
    /// index.
    kept_rows: Vec<usize>,
    num_original_rows: usize,
    /// Presolve already proved infeasibility (empty bound interval or
    /// contradictory duplicate equalities).
    infeasible: bool,
}

impl Presolved {
    /// The reduced model.
    pub fn reduced(&self) -> &Model {
        &self.reduced
    }

    /// How many constraints presolve removed.
    pub fn rows_removed(&self) -> usize {
        self.num_original_rows - self.kept_rows.len()
    }

    /// `true` when presolve alone proved the model infeasible.
    pub fn proven_infeasible(&self) -> bool {
        self.infeasible
    }

    /// Solves the reduced model and maps the solution back to the original
    /// constraint indexing (duals of removed rows are 0; see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// Same contract as [`Model::solve`].
    pub fn solve(&self) -> Result<Solution, LpError> {
        if self.infeasible {
            return Ok(Solution::new(
                Status::Infeasible,
                f64::NAN,
                vec![0.0; self.reduced.num_vars()],
                vec![0.0; self.num_original_rows],
                SolveCounts::default(),
                None,
            ));
        }
        let sol = self.reduced.solve()?;
        let mut duals = vec![0.0; self.num_original_rows];
        for (reduced_idx, &orig_idx) in self.kept_rows.iter().enumerate() {
            duals[orig_idx] = sol.duals()[reduced_idx];
        }
        // The reduced model's basis indexes *its* standard form, not the
        // original model's, so it is not forwarded for warm starts.
        Ok(Solution::new(
            sol.status(),
            sol.objective(),
            sol.values().to_vec(),
            duals,
            sol.counts(),
            None,
        ))
    }
}

/// Key identifying a row's left-hand side (terms rounded to exact bits).
fn lhs_key(expr: &crate::LinExpr) -> Vec<(usize, u64)> {
    // postcard-analyze: allow(PA101) — exact-zero sparsity filter.
    expr.iter().filter(|&(_, c)| c != 0.0).map(|(v, c)| (v.index(), c.to_bits())).collect()
}

/// Presolves `model` (see the module docs for the reductions applied).
pub fn presolve(model: &Model) -> Presolved {
    let mut reduced = Model::new(model.sense());
    for i in 0..model.num_vars() {
        let v = Variable(i);
        let (lo, hi) = model.bounds(v);
        reduced.add_var(model.var_name(v).to_string(), lo, hi);
    }
    reduced.set_objective(model.objective_expr().clone());

    let mut infeasible = false;
    let mut kept_rows = Vec::new();
    let mut groups: DupGroups = BTreeMap::new();

    for (id, con) in model.constraints() {
        // postcard-analyze: allow(PA101) — exact-zero sparsity filter.
        let terms: Vec<(Variable, f64)> = con.expr().iter().filter(|&(_, c)| c != 0.0).collect();
        // Empty row → `0 ⋈ rhs`: drop it, flagging infeasibility when the
        // trivial relation does not hold.
        if terms.is_empty() {
            let holds = match con.relation() {
                Relation::Leq => 0.0 <= con.rhs() + 1e-12,
                Relation::Geq => 0.0 >= con.rhs() - 1e-12,
                Relation::Eq => con.rhs().abs() <= 1e-12,
            };
            if !holds {
                infeasible = true;
            }
            continue;
        }
        // Singleton row → fold into the bound.
        if let [(v, a)] = terms[..] {
            let ratio = con.rhs() / a;
            let (mut lo, mut hi) = reduced.bounds(v);
            let (implies_ub, implies_lb) = match (con.relation(), a > 0.0) {
                (Relation::Leq, true) | (Relation::Geq, false) => (true, false),
                (Relation::Leq, false) | (Relation::Geq, true) => (false, true),
                (Relation::Eq, _) => (true, true),
            };
            if implies_ub {
                hi = hi.min(ratio);
            }
            if implies_lb {
                lo = lo.max(ratio);
            }
            if lo > hi + 1e-12 {
                infeasible = true;
            } else {
                reduced.set_bounds(v, lo, hi.max(lo));
            }
            continue;
        }
        // Duplicate-lhs rows → keep the tightest rhs.
        let rel_tag = match con.relation() {
            Relation::Leq => 0u8,
            Relation::Geq => 1,
            Relation::Eq => 2,
        };
        let key = (lhs_key(con.expr()), rel_tag);
        match groups.get_mut(&key) {
            Some((slot, best_rhs)) => {
                match con.relation() {
                    Relation::Leq => *best_rhs = best_rhs.min(con.rhs()),
                    Relation::Geq => *best_rhs = best_rhs.max(con.rhs()),
                    Relation::Eq => {
                        if (*best_rhs - con.rhs()).abs() > 1e-9 {
                            infeasible = true;
                        }
                    }
                }
                // Note: the *first* row of the group stays the one reported
                // in `kept_rows`; its rhs is updated below after the loop.
                let _ = slot;
            }
            None => {
                groups.insert(key, (kept_rows.len(), con.rhs()));
                kept_rows.push(id.index());
            }
        }
    }

    // Emit the kept rows with their (possibly tightened) rhs, in original
    // order.
    let mut rows: Vec<(usize, usize, f64)> =
        groups.into_iter().map(|((_, _), (slot, rhs))| (slot, kept_rows[slot], rhs)).collect();
    rows.sort_unstable_by_key(|&(slot, _, _)| slot);
    let mut final_kept = Vec::with_capacity(rows.len());
    for (_, orig_idx, rhs) in rows {
        let con = model.constraint(crate::ConstraintId(orig_idx));
        reduced.add_constraint(con.expr().clone(), con.relation(), rhs);
        final_kept.push(orig_idx);
    }
    debug_assert!(
        // postcard-analyze: allow(PA101) — exact-zero sparsity test.
        reduced.constraints().all(|(_, c)| c.expr().iter().any(|(_, coef)| coef != 0.0)),
        "presolve must not emit empty rows"
    );

    Presolved {
        reduced,
        kept_rows: final_kept,
        num_original_rows: model.num_constraints(),
        infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinExpr, Sense};

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(x + y);
        m.leq(2.0 * x, 10.0); // x ≤ 5
        m.geq(LinExpr::from(y), 3.0); // y ≥ 3
        m.geq(x + y, 4.0); // kept
        let p = presolve(&m);
        assert_eq!(p.reduced().num_constraints(), 1);
        assert_eq!(p.rows_removed(), 2);
        assert_eq!(p.reduced().bounds(x), (0.0, 5.0));
        assert_eq!(p.reduced().bounds(y), (3.0, f64::INFINITY));
        let a = p.solve().unwrap();
        let b = m.solve().unwrap();
        assert!((a.objective() - b.objective()).abs() < 1e-9);
        assert_eq!(a.duals().len(), 3);
    }

    #[test]
    fn negative_coefficient_singleton_flips_direction() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        m.set_objective(LinExpr::from(x));
        m.leq(-2.0 * x, -6.0); // ⇔ x ≥ 3
        m.leq(LinExpr::from(x), 8.0);
        let p = presolve(&m);
        assert_eq!(p.reduced().num_constraints(), 0);
        assert_eq!(p.reduced().bounds(x), (3.0, 8.0));
        assert!((p.solve().unwrap().objective() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn crossing_bounds_prove_infeasibility() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x));
        m.leq(LinExpr::from(x), 1.0);
        m.geq(LinExpr::from(x), 2.0);
        let p = presolve(&m);
        assert!(p.proven_infeasible());
        assert_eq!(p.solve().unwrap().status(), Status::Infeasible);
        // The full solver agrees.
        assert_eq!(m.solve().unwrap().status(), Status::Infeasible);
    }

    #[test]
    fn empty_rows_are_dropped_or_prove_infeasibility() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 10.0);
        m.set_objective(LinExpr::from(x));
        m.leq(LinExpr::new(), 5.0); // 0 ≤ 5: vacuous, dropped
        m.geq(x + 1.0, 3.0); // kept (as a bound)
        let p = presolve(&m);
        assert!(!p.proven_infeasible());
        assert_eq!(p.reduced().num_constraints(), 0);
        assert!((p.solve().unwrap().objective() - 2.0).abs() < 1e-9);

        let mut bad = Model::new(Sense::Minimize);
        let y = bad.add_var("y", 0.0, 1.0);
        bad.set_objective(LinExpr::from(y));
        bad.geq(LinExpr::new(), 5.0); // 0 ≥ 5: impossible
        let p = presolve(&bad);
        assert!(p.proven_infeasible());
        assert_eq!(p.solve().unwrap().status(), Status::Infeasible);
    }

    #[test]
    fn duplicate_leq_rows_keep_tightest() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(x + y);
        m.leq(x + y, 9.0);
        m.leq(x + y, 4.0);
        m.leq(x + y, 7.0);
        let p = presolve(&m);
        assert_eq!(p.reduced().num_constraints(), 1);
        let s = p.solve().unwrap();
        assert!((s.objective() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn contradictory_duplicate_equalities_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(x + y);
        m.eq(x + y, 3.0);
        m.eq(x + y, 5.0);
        let p = presolve(&m);
        assert!(p.proven_infeasible());
        assert_eq!(m.solve().unwrap().status(), Status::Infeasible);
    }

    #[test]
    fn presolved_optimum_matches_original_on_random_models() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..20 {
            let n = rng.gen_range(2..6usize);
            let mut m = Model::new(Sense::Minimize);
            let vars: Vec<_> = (0..n).map(|i| m.add_var(format!("x{i}"), 0.0, 10.0)).collect();
            let mut obj = LinExpr::new();
            for &v in &vars {
                obj.add_term(v, rng.gen_range(-3.0..3.0));
            }
            m.set_objective(obj);
            for _ in 0..rng.gen_range(1..8usize) {
                // Mix of singletons, duplicates, and general rows, all
                // feasible at the box midpoint x = 5.
                match rng.gen_range(0..3) {
                    0 => {
                        let v = vars[rng.gen_range(0..n)];
                        m.leq(LinExpr::from(v), rng.gen_range(5.0..10.0));
                    }
                    1 => {
                        let mut e = LinExpr::new();
                        let mut mid = 0.0;
                        for &v in &vars {
                            let c = rng.gen_range(-1.0..1.0f64).round();
                            e.add_term(v, c);
                            mid += 5.0 * c;
                        }
                        m.leq(e.clone(), mid + 2.0);
                        m.leq(e, mid + rng.gen_range(2.0..6.0)); // duplicate lhs
                    }
                    _ => {
                        let mut e = LinExpr::new();
                        let mut mid = 0.0;
                        for &v in &vars {
                            let c = rng.gen_range(-2.0..2.0);
                            e.add_term(v, c);
                            mid += 5.0 * c;
                        }
                        m.geq(e, mid - rng.gen_range(0.0..4.0));
                    }
                }
            }
            let p = presolve(&m);
            let a = m.solve().unwrap();
            let b = p.solve().unwrap();
            assert_eq!(a.status(), b.status(), "trial {trial}");
            if a.status() == Status::Optimal {
                assert!(
                    (a.objective() - b.objective()).abs() < 1e-6 * (1.0 + a.objective().abs()),
                    "trial {trial}: {} vs {}",
                    a.objective(),
                    b.objective()
                );
            }
        }
    }

    #[test]
    fn kept_row_duals_map_back() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.set_objective(2.0 * x + y);
        m.leq(LinExpr::from(x), 100.0); // singleton, removed (not binding anyway)
        let kept = m.geq(x + y, 5.0); // binding at the optimum
        let p = presolve(&m);
        let s = p.solve().unwrap();
        // The kept row's dual lands at its original index.
        assert!(s.dual(kept).abs() > 1e-9, "binding row should have nonzero dual");
        assert_eq!(s.duals().len(), 2);
    }
}
