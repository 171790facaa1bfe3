//! Property-based tests for the simplex solver.
//!
//! Strategy: build random LPs whose feasibility (and sometimes whose exact
//! optimum) is known by construction, then verify the solver's answer with
//! the independent checker in `postcard_lp::validate`.

use postcard_lp::{
    validate, LinExpr, Model, Sense, SimplexOptions, SolverWorkspace, Status, Variable,
};
use proptest::prelude::*;

/// Builds a model with `n` box-bounded variables and `m` "≤" constraints
/// that are guaranteed feasible at the box midpoint.
fn feasible_box_lp(
    n: usize,
    costs: &[f64],
    boxes: &[(f64, f64)],
    rows: &[Vec<f64>],
    slacks: &[f64],
) -> (Model, Vec<Variable>, Vec<f64>) {
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<Variable> =
        (0..n).map(|i| m.add_var(format!("x{i}"), boxes[i].0, boxes[i].1)).collect();
    let mut obj = LinExpr::new();
    for (v, c) in vars.iter().zip(costs) {
        obj.add_term(*v, *c);
    }
    m.set_objective(obj);
    // The midpoint of the box is feasible by construction.
    let mid: Vec<f64> = boxes.iter().map(|(lo, hi)| 0.5 * (lo + hi)).collect();
    for (row, slack) in rows.iter().zip(slacks) {
        let mut e = LinExpr::new();
        let mut lhs_at_mid = 0.0;
        for (i, coef) in row.iter().enumerate() {
            e.add_term(vars[i], *coef);
            lhs_at_mid += coef * mid[i];
        }
        m.leq(e, lhs_at_mid + slack.abs());
    }
    (m, vars, mid)
}

/// How an intermediate node's conservation row is stated; every form has
/// a zero right-hand side, so the cold start's crash may cover it.
fn conservation_row(m: &mut Model, out_minus_in: LinExpr, kind: usize) {
    match kind % 3 {
        0 => {
            m.eq(out_minus_in, 0.0);
        }
        // Flow may appear at the node.
        1 => {
            m.geq(out_minus_in, 0.0);
        }
        // Flow may vanish at the node.
        _ => {
            m.geq(-out_minus_in, 0.0);
        }
    }
}

/// A single-commodity flow LP on nodes `0..n` in topological order, in
/// the shape of a time-expanded transfer LP: `supply` leaves node 0 and
/// arrives at node `n − 1`, every other node has a zero right-hand-side
/// conservation row (stated by `kinds`, and stated twice where `dups` is
/// odd), and the extra arcs carry capacity rows. The chain arcs
/// `(i, i + 1)` are uncapacitated, so routing the supply along the chain
/// is feasible; its cost is returned as the witness. With `choke` the
/// source may emit only half the supply, which makes the LP infeasible.
fn flow_shaped_lp(
    n: usize,
    chain_costs: &[f64],
    extra: &[(usize, usize, f64, f64)],
    kinds: &[usize],
    dups: &[usize],
    supply: f64,
    choke: bool,
) -> (Model, f64) {
    let mut m = Model::new(Sense::Minimize);
    let mut arcs: Vec<(usize, usize, Variable)> = Vec::new();
    let mut obj = LinExpr::new();
    for (i, &cost) in chain_costs[..n - 1].iter().enumerate() {
        let x = m.add_var(format!("c{i}"), 0.0, f64::INFINITY);
        obj.add_term(x, cost);
        arcs.push((i, i + 1, x));
    }
    for (k, &(a, b, cost, cap)) in extra.iter().enumerate() {
        let (u, v) = (a % n, b % n);
        if u >= v {
            continue;
        }
        let x = m.add_var(format!("e{k}"), 0.0, f64::INFINITY);
        obj.add_term(x, cost);
        m.leq(LinExpr::from(x), cap);
        arcs.push((u, v, x));
    }
    m.set_objective(obj);
    let net_out = |node: usize| {
        let mut e = LinExpr::new();
        for &(u, v, x) in &arcs {
            if u == node {
                e.add_term(x, 1.0);
            }
            if v == node {
                e.add_term(x, -1.0);
            }
        }
        e
    };
    m.eq(net_out(0), supply);
    if choke {
        let out: LinExpr =
            arcs.iter().filter(|a| a.0 == 0).map(|&(_, _, x)| LinExpr::from(x)).sum();
        m.leq(out, 0.5 * supply);
    }
    for node in 1..n - 1 {
        let kind = kinds[node % kinds.len()];
        conservation_row(&mut m, net_out(node), kind);
        if dups[node % dups.len()] % 2 == 1 {
            conservation_row(&mut m, net_out(node), kind);
        }
    }
    m.eq(-net_out(n - 1), supply);
    let witness = supply * chain_costs[..n - 1].iter().sum::<f64>();
    (m, witness)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random flow-shaped LPs, whose zero right-hand-side rows the crash
    /// covers with structural and slack columns: a feasible one must come
    /// back Optimal, feasible and no worse than the chain witness, and a
    /// choked one must still be found infeasible.
    #[test]
    fn crashed_flow_lps_are_solved_or_proved_infeasible(
        n in 3usize..9,
        chain_costs in prop::collection::vec(0.0f64..10.0, 8..9),
        extra in prop::collection::vec((0usize..9, 0usize..9, 0.0f64..10.0, 0.0f64..20.0), 0..16),
        kinds in prop::collection::vec(0usize..3, 1..9),
        dups in prop::collection::vec(0usize..4, 1..9),
        supply in 1.0f64..30.0,
        choke in 0usize..4,
    ) {
        let choke = choke == 0;
        let (m, witness) = flow_shaped_lp(n, &chain_costs, &extra, &kinds, &dups, supply, choke);
        let s = m.solve().unwrap();
        if choke {
            prop_assert_eq!(s.status(), Status::Infeasible);
        } else {
            prop_assert_eq!(s.status(), Status::Optimal);
            prop_assert!(validate::is_feasible(&m, &s, 1e-6),
                "violations: {:?}", validate::check_feasibility(&m, &s, 1e-6));
            prop_assert!(validate::at_least_as_good(&m, &s, witness, 1e-6),
                "objective {} above witness {witness}", s.objective());
        }
    }

    /// Box-only LPs have a closed-form optimum: each variable sits at the
    /// bound dictated by its cost sign.
    #[test]
    fn box_only_lp_matches_closed_form(
        costs in prop::collection::vec(-10.0f64..10.0, 1..6),
        raw_boxes in prop::collection::vec((-5.0f64..5.0, 0.1f64..10.0), 1..6),
    ) {
        let n = costs.len().min(raw_boxes.len());
        let boxes: Vec<(f64, f64)> =
            raw_boxes[..n].iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<Variable> = (0..n)
            .map(|i| m.add_var(format!("x{i}"), boxes[i].0, boxes[i].1))
            .collect();
        let mut obj = LinExpr::new();
        for i in 0..n {
            obj.add_term(vars[i], costs[i]);
        }
        m.set_objective(obj);
        let s = m.solve().unwrap();
        prop_assert_eq!(s.status(), Status::Optimal);
        let expected: f64 = (0..n)
            .map(|i| if costs[i] >= 0.0 { costs[i] * boxes[i].0 } else { costs[i] * boxes[i].1 })
            .sum();
        prop_assert!((s.objective() - expected).abs() < 1e-5 * (1.0 + expected.abs()),
            "solver {} vs closed form {}", s.objective(), expected);
        prop_assert!(validate::is_feasible(&m, &s, 1e-6));
    }

    /// Constructed-feasible LPs must come back Optimal, feasible, and at
    /// least as good as the known interior point.
    #[test]
    fn constructed_feasible_lp_is_solved_and_beats_witness(
        costs in prop::collection::vec(-5.0f64..5.0, 2..5),
        raw_boxes in prop::collection::vec((-3.0f64..3.0, 0.5f64..6.0), 2..5),
        rows in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 2..5), 0..6),
        slacks in prop::collection::vec(0.0f64..4.0, 0..6),
    ) {
        let n = costs.len().min(raw_boxes.len());
        let boxes: Vec<(f64, f64)> =
            raw_boxes[..n].iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let m_rows = rows.len().min(slacks.len());
        let rows: Vec<Vec<f64>> = rows[..m_rows]
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.resize(n, 0.0);
                r
            })
            .collect();
        let (m, _, mid) = feasible_box_lp(n, &costs[..n], &boxes, &rows, &slacks[..m_rows]);
        let s = m.solve().unwrap();
        prop_assert_eq!(s.status(), Status::Optimal);
        prop_assert!(validate::is_feasible(&m, &s, 1e-6),
            "violations: {:?}", validate::check_feasibility(&m, &s, 1e-6));
        let witness: f64 = (0..n).map(|i| costs[i] * mid[i]).sum();
        prop_assert!(validate::at_least_as_good(&m, &s, witness, 1e-6));
    }

    /// The solver agrees with itself under objective scaling: scaling all
    /// costs by λ > 0 scales the optimum by λ and keeps an optimal point
    /// optimal.
    #[test]
    fn objective_scaling_invariance(
        lambda in 0.1f64..10.0,
        costs in prop::collection::vec(-5.0f64..5.0, 2..4),
        raw_boxes in prop::collection::vec((0.0f64..2.0, 0.5f64..4.0), 2..4),
        rows in prop::collection::vec(prop::collection::vec(-1.0f64..2.0, 2..4), 1..4),
        slacks in prop::collection::vec(0.5f64..3.0, 1..4),
    ) {
        let n = costs.len().min(raw_boxes.len());
        let boxes: Vec<(f64, f64)> =
            raw_boxes[..n].iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let m_rows = rows.len().min(slacks.len());
        let rows: Vec<Vec<f64>> = rows[..m_rows]
            .iter()
            .map(|r| { let mut r = r.clone(); r.resize(n, 0.0); r })
            .collect();
        let (m1, _, _) = feasible_box_lp(n, &costs[..n], &boxes, &rows, &slacks[..m_rows]);
        let scaled: Vec<f64> = costs[..n].iter().map(|c| c * lambda).collect();
        let (m2, _, _) = feasible_box_lp(n, &scaled, &boxes, &rows, &slacks[..m_rows]);
        let s1 = m1.solve().unwrap();
        let s2 = m2.solve().unwrap();
        prop_assert_eq!(s1.status(), Status::Optimal);
        prop_assert_eq!(s2.status(), Status::Optimal);
        prop_assert!((s2.objective() - lambda * s1.objective()).abs()
            < 1e-5 * (1.0 + s2.objective().abs()),
            "{} vs {}", s2.objective(), lambda * s1.objective());
    }

    /// Maximization is exactly negated minimization.
    #[test]
    fn max_is_negated_min(
        costs in prop::collection::vec(-5.0f64..5.0, 2..4),
        raw_boxes in prop::collection::vec((0.0f64..2.0, 0.5f64..4.0), 2..4),
    ) {
        let n = costs.len().min(raw_boxes.len());
        let boxes: Vec<(f64, f64)> =
            raw_boxes[..n].iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let build = |sense: Sense, costs: &[f64]| {
            let mut m = Model::new(sense);
            let vars: Vec<Variable> = (0..n)
                .map(|i| m.add_var(format!("x{i}"), boxes[i].0, boxes[i].1))
                .collect();
            let mut obj = LinExpr::new();
            for i in 0..n {
                obj.add_term(vars[i], costs[i]);
            }
            m.set_objective(obj);
            m
        };
        let neg: Vec<f64> = costs[..n].iter().map(|c| -c).collect();
        let smax = build(Sense::Maximize, &costs[..n]).solve().unwrap();
        let smin = build(Sense::Minimize, &neg).solve().unwrap();
        prop_assert!((smax.objective() + smin.objective()).abs() < 1e-6,
            "{} vs {}", smax.objective(), -smin.objective());
    }

    /// After an arbitrary RHS perturbation, the dual-simplex warm re-solve
    /// of the re-prepared model must land exactly where a cold two-phase
    /// solve of the mutated model lands: identical status, objectives within
    /// 1e-9, and an independently validated feasible point.
    #[test]
    fn dual_simplex_resolve_matches_cold_after_rhs_perturbation(
        costs in prop::collection::vec(-5.0f64..5.0, 2..5),
        raw_boxes in prop::collection::vec((0.0f64..3.0, 0.5f64..6.0), 2..5),
        rows in prop::collection::vec(prop::collection::vec(-2.0f64..2.0, 2..5), 1..6),
        slacks in prop::collection::vec(0.0f64..4.0, 1..6),
        deltas in prop::collection::vec(-3.0f64..3.0, 1..6),
    ) {
        let n = costs.len().min(raw_boxes.len());
        let m_rows = rows.len().min(slacks.len());
        let boxes: Vec<(f64, f64)> =
            raw_boxes[..n].iter().map(|&(lo, w)| (lo, lo + w)).collect();
        let rows: Vec<Vec<f64>> = rows[..m_rows]
            .iter()
            .map(|r| { let mut r = r.clone(); r.resize(n, 0.0); r })
            .collect();
        let (mut m, _, _) = feasible_box_lp(n, &costs[..n], &boxes, &rows, &slacks[..m_rows]);
        let opts = SimplexOptions::default();
        let mut ws = SolverWorkspace::new();
        let first = m.prepare().unwrap().solve_warm(&m, &opts, None, &mut ws).unwrap();
        prop_assert_eq!(first.status(), Status::Optimal);
        let basis = first.basis().cloned();

        // Perturb every row's RHS (possibly making the LP infeasible).
        let ids: Vec<_> = m.constraints().map(|(id, c)| (id, c.rhs())).collect();
        for (i, (id, rhs)) in ids.into_iter().enumerate() {
            m.set_rhs(id, rhs + deltas[i % deltas.len()]);
        }
        let warm =
            m.prepare().unwrap().solve_warm(&m, &opts, basis.as_ref(), &mut ws).unwrap();
        let cold = m.solve_with(&opts).unwrap();
        prop_assert_eq!(warm.status(), cold.status());
        if cold.status() == Status::Optimal {
            prop_assert!(
                (warm.objective() - cold.objective()).abs()
                    < 1e-9 * (1.0 + cold.objective().abs()),
                "warm {} vs cold {}", warm.objective(), cold.objective()
            );
            prop_assert!(validate::is_feasible(&m, &warm, 1e-6));
        }
    }

    /// A massively degenerate re-solve — every constraint tightened to be
    /// active at the unique optimum — terminates under the dual Bland rule
    /// (forced on from the first pivot) and still lands on the optimum.
    #[test]
    fn dual_simplex_terminates_on_degenerate_rhs(
        costs in prop::collection::vec(0.1f64..5.0, 2..5),
        rows in prop::collection::vec(prop::collection::vec(0.0f64..2.0, 2..5), 2..8),
    ) {
        let n = costs.len();
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<Variable> =
            (0..n).map(|i| m.add_var(format!("x{i}"), 0.0, 10.0)).collect();
        let mut obj = LinExpr::new();
        for (v, c) in vars.iter().zip(&costs) {
            obj.add_term(*v, *c);
        }
        m.set_objective(obj);
        // Nonnegative rows: feasible at the origin for any rhs ≥ 0, and
        // with positive costs the origin is the unique optimum.
        let mut ids = Vec::new();
        for row in &rows {
            let mut e = LinExpr::new();
            for (i, coef) in row.iter().take(n).enumerate() {
                e.add_term(vars[i], *coef);
            }
            ids.push(m.leq(e, 5.0));
        }
        // Bland from the very first pivot: termination must not rely on the
        // Dantzig phase making progress.
        let opts = SimplexOptions { bland_after: 0, ..SimplexOptions::default() };
        let mut ws = SolverWorkspace::new();
        let first = m.prepare().unwrap().solve_warm(&m, &opts, None, &mut ws).unwrap();
        prop_assert_eq!(first.status(), Status::Optimal);
        let basis = first.basis().cloned();
        // Tighten every row to 0: all rows become active at the origin at
        // once — maximal degeneracy for the dual ratio test.
        for &id in &ids {
            m.set_rhs(id, 0.0);
        }
        let warm =
            m.prepare().unwrap().solve_warm(&m, &opts, basis.as_ref(), &mut ws).unwrap();
        prop_assert_eq!(warm.status(), Status::Optimal);
        prop_assert!(warm.objective().abs() < 1e-9, "optimum is the origin");
        prop_assert!(validate::is_feasible(&m, &warm, 1e-6));
    }
}

/// Equality-constrained random transportation problems: supplies/demands
/// balanced by construction; solution must be feasible and integral-cost
/// consistent with the greedy upper bound.
#[test]
fn random_transportation_problems_feasible_and_bounded() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(42);
    for trial in 0..25 {
        let ns = rng.gen_range(2..5usize);
        let nd = rng.gen_range(2..5usize);
        let mut supply: Vec<f64> = (0..ns).map(|_| rng.gen_range(1.0..20.0f64).round()).collect();
        let demand: Vec<f64> = {
            let total: f64 = supply.iter().sum();
            // Split total into nd random parts.
            let mut cuts: Vec<f64> = (0..nd - 1).map(|_| rng.gen_range(0.0..total)).collect();
            cuts.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut parts = Vec::with_capacity(nd);
            let mut prev = 0.0;
            for c in &cuts {
                parts.push(c - prev);
                prev = *c;
            }
            parts.push(total - prev);
            parts
        };
        // Repair tiny negative parts from rounding.
        supply.iter_mut().for_each(|s| *s = s.max(0.0));
        let cost: Vec<Vec<f64>> =
            (0..ns).map(|_| (0..nd).map(|_| rng.gen_range(1.0..10.0)).collect()).collect();

        let mut m = Model::new(Sense::Minimize);
        let mut vars = Vec::new();
        for i in 0..ns {
            let row: Vec<Variable> =
                (0..nd).map(|j| m.add_var(format!("x{i}_{j}"), 0.0, f64::INFINITY)).collect();
            vars.push(row);
        }
        let mut obj = LinExpr::new();
        for i in 0..ns {
            for j in 0..nd {
                obj.add_term(vars[i][j], cost[i][j]);
            }
        }
        m.set_objective(obj);
        for i in 0..ns {
            let e: LinExpr = (0..nd).map(|j| LinExpr::from(vars[i][j])).sum();
            m.eq(e, supply[i]);
        }
        for j in 0..nd {
            let e: LinExpr = (0..ns).map(|i| LinExpr::from(vars[i][j])).sum();
            m.eq(e, demand[j]);
        }
        let s = m.solve().unwrap();
        assert_eq!(s.status(), Status::Optimal, "trial {trial}");
        assert!(validate::is_feasible(&m, &s, 1e-5), "trial {trial}");
        // Upper bound: ship everything at the worst cost.
        let worst: f64 = cost.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
        let total: f64 = supply.iter().sum();
        assert!(s.objective() <= worst * total + 1e-6);
        // Lower bound: everything at the best cost.
        let best: f64 = cost.iter().flatten().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(s.objective() >= best * total - 1e-6);
    }
}
