//! Cross-validation of independent algorithm implementations: SSP vs
//! cycle-canceling min-cost flow, and SSP against the LP solver, on
//! randomized graphs.

use postcard_flow::{cycle_canceling_min_cost, min_cost_flow, FlowNetwork, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph(seed: u64, n: usize, density: f64) -> FlowNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = FlowNetwork::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(density) {
                g.add_edge(
                    NodeId(u),
                    NodeId(v),
                    rng.gen_range(1.0..10.0f64).round(),
                    rng.gen_range(1.0..8.0f64).round(),
                );
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ssp_equals_cycle_canceling(seed in 0u64..10_000, n in 3usize..8) {
        let mut g1 = random_graph(seed, n, 0.5);
        let mut g2 = g1.clone();
        let (s, t) = (NodeId(0), NodeId(n - 1));
        let a = min_cost_flow(&mut g1, s, t, f64::INFINITY);
        let b = cycle_canceling_min_cost(&mut g2, s, t, f64::INFINITY);
        prop_assert!((a.flow - b.flow).abs() < 1e-6, "flows {} vs {}", a.flow, b.flow);
        prop_assert!(
            (a.cost - b.cost).abs() < 1e-6 * (1.0 + a.cost.abs()),
            "costs {} vs {}",
            a.cost,
            b.cost
        );
    }

    #[test]
    fn ssp_equals_cycle_canceling_with_finite_target(
        seed in 0u64..10_000,
        n in 3usize..8,
        target in 1.0f64..12.0,
    ) {
        let mut g1 = random_graph(seed, n, 0.6);
        let mut g2 = g1.clone();
        let (s, t) = (NodeId(0), NodeId(n - 1));
        let a = min_cost_flow(&mut g1, s, t, target);
        let b = cycle_canceling_min_cost(&mut g2, s, t, target);
        prop_assert!((a.flow - b.flow).abs() < 1e-6, "flows {} vs {}", a.flow, b.flow);
        prop_assert!(
            (a.cost - b.cost).abs() < 1e-6 * (1.0 + a.cost.abs()),
            "costs {} vs {}",
            a.cost,
            b.cost
        );
    }
}

/// Deterministic spot-check of min-cost flow against the LP formulation
/// (the same check as in the unit tests, at larger sizes).
#[test]
fn min_cost_flow_matches_lp_on_larger_graphs() {
    use postcard_lp::{LinExpr, Model, Sense, Status};
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..5 {
        let n = rng.gen_range(8..12usize);
        let g0 = random_graph(rng.gen(), n, 0.4);
        let (s, t) = (NodeId(0), NodeId(n - 1));
        let mut g = g0.clone();
        let out = min_cost_flow(&mut g, s, t, f64::INFINITY);

        // LP: min cost at exactly `out.flow` units.
        let mut m = Model::new(Sense::Minimize);
        let edges: Vec<(usize, usize, f64, f64)> =
            g0.forward_edges().map(|(_, from, to, cap, cost)| (from.0, to.0, cap, cost)).collect();
        let vars: Vec<_> = edges
            .iter()
            .enumerate()
            .map(|(i, &(_, _, cap, _))| m.add_var(format!("e{i}"), 0.0, cap))
            .collect();
        let mut obj = LinExpr::new();
        for (i, &(_, _, _, cost)) in edges.iter().enumerate() {
            obj.add_term(vars[i], cost);
        }
        m.set_objective(obj);
        for node in 0..n {
            let mut e = LinExpr::new();
            for (i, &(u, v, _, _)) in edges.iter().enumerate() {
                if u == node {
                    e.add_term(vars[i], 1.0);
                }
                if v == node {
                    e.add_term(vars[i], -1.0);
                }
            }
            if node == s.0 {
                m.eq(e, out.flow);
            } else if node != t.0 {
                m.eq(e, 0.0);
            }
        }
        let sol = m.solve().unwrap();
        assert_eq!(sol.status(), Status::Optimal);
        assert!(
            (sol.objective() - out.cost).abs() < 1e-5 * (1.0 + out.cost),
            "LP {} vs SSP {}",
            sol.objective(),
            out.cost
        );
    }
}
