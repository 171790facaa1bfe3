//! LP formulations of the two classic multicommodity problems the paper's
//! flow-based decomposition rests on (Sec. II-B): the **maximum concurrent
//! flow** problem and the **minimum-cost multicommodity flow** problem.

use postcard_lp::{LinExpr, Model, Sense, Status, Variable};
use postcard_net::{DcId, Network};
use std::collections::BTreeMap;

/// One commodity: a demand of `demand` (GB/slot) from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commodity {
    /// Caller-chosen id (e.g. the file id).
    pub id: u64,
    /// Source datacenter.
    pub src: DcId,
    /// Destination datacenter.
    pub dst: DcId,
    /// Demanded rate (GB/slot), > 0.
    pub demand: f64,
}

/// A multicommodity rate solution.
#[derive(Debug, Clone, PartialEq)]
pub struct McfSolution {
    /// `(commodity id, from, to) → rate`.
    pub rates: BTreeMap<(u64, usize, usize), f64>,
    /// Objective value: total cost for [`min_cost_multicommodity`], the
    /// routed fraction λ for [`max_concurrent_flow`].
    pub objective: f64,
}

impl McfSolution {
    /// Rate of a commodity on a link.
    pub fn rate(&self, id: u64, from: DcId, to: DcId) -> f64 {
        self.rates.get(&(id, from.0, to.0)).copied().unwrap_or(0.0)
    }
}

/// Adds each commodity's flow-conservation rows, one per datacenter in
/// commodity order: net outflow `demand` at the source, `−demand` at the
/// destination and 0 elsewhere (`±λ · demand` when `lambda` is given).
pub(crate) fn conservation_rows(
    m: &mut Model,
    network: &Network,
    commodities: &[Commodity],
    vars: &BTreeMap<(usize, usize, usize), Variable>,
    lambda: Option<Variable>,
) {
    for (c_idx, c) in commodities.iter().enumerate() {
        for node in network.dcs() {
            let mut expr = LinExpr::new();
            for link in network.links() {
                let v = vars[&(c_idx, link.from.0, link.to.0)];
                if link.from == node {
                    expr.add_term(v, 1.0);
                }
                if link.to == node {
                    expr.add_term(v, -1.0);
                }
            }
            // Net outflow must equal +demand at src, −demand at dst, 0 else.
            let sign = if node == c.src {
                1.0
            } else if node == c.dst {
                -1.0
            } else {
                0.0
            };
            match lambda {
                // postcard-analyze: allow(PA101) — sign is exactly ±1 or 0.
                Some(l) if sign != 0.0 => {
                    expr.add_term(l, -sign * c.demand);
                    m.eq(expr, 0.0);
                }
                _ => {
                    m.eq(expr, sign * c.demand);
                }
            }
        }
    }
}

fn capacity_rows(
    m: &mut Model,
    network: &Network,
    commodities: &[Commodity],
    vars: &BTreeMap<(usize, usize, usize), Variable>,
    mut capacity: impl FnMut(DcId, DcId) -> f64,
) {
    for link in network.links() {
        let mut expr = LinExpr::new();
        for c_idx in 0..commodities.len() {
            expr.add_term(vars[&(c_idx, link.from.0, link.to.0)], 1.0);
        }
        m.leq(expr, capacity(link.from, link.to).max(0.0));
    }
}

/// Adds one nonnegative rate variable per commodity per link, in commodity
/// then link order, keyed by `(commodity index, from, to)`.
pub(crate) fn link_vars(
    m: &mut Model,
    network: &Network,
    commodities: &[Commodity],
) -> BTreeMap<(usize, usize, usize), Variable> {
    let mut vars = BTreeMap::new();
    for (c_idx, c) in commodities.iter().enumerate() {
        for link in network.links() {
            let v = m.add_var(
                format!("f[{}][{}->{}]", c.id, link.from.0, link.to.0),
                0.0,
                f64::INFINITY,
            );
            vars.insert((c_idx, link.from.0, link.to.0), v);
        }
    }
    vars
}

fn extract_rates(
    sol: &postcard_lp::Solution,
    commodities: &[Commodity],
    vars: &BTreeMap<(usize, usize, usize), Variable>,
) -> BTreeMap<(u64, usize, usize), f64> {
    let mut rates = BTreeMap::new();
    for (&(c_idx, i, j), &v) in vars {
        let r = sol.value(v);
        if r > 1e-9 {
            *rates.entry((commodities[c_idx].id, i, j)).or_insert(0.0) += r;
        }
    }
    rates
}

/// Maximum concurrent flow: find the largest fraction `λ` (optionally capped
/// at `lambda_cap`) such that *every* commodity can route `λ · demand`
/// simultaneously within `capacity(link)`.
///
/// Returns the rates at the optimal λ; `objective` is λ itself. An empty
/// commodity list yields λ = `lambda_cap.unwrap_or(0.0)` trivially with no
/// rates.
///
/// # Errors
///
/// Propagates [`postcard_lp::LpError`] from the solver. The problem is
/// always feasible (λ = 0 works).
pub fn max_concurrent_flow(
    network: &Network,
    commodities: &[Commodity],
    capacity: impl FnMut(DcId, DcId) -> f64,
    lambda_cap: Option<f64>,
) -> Result<McfSolution, postcard_lp::LpError> {
    if commodities.is_empty() {
        return Ok(McfSolution { rates: BTreeMap::new(), objective: lambda_cap.unwrap_or(0.0) });
    }
    let mut m = Model::new(Sense::Maximize);
    let lambda = m.add_var("lambda", 0.0, lambda_cap.unwrap_or(f64::INFINITY));
    let vars = link_vars(&mut m, network, commodities);
    m.set_objective(LinExpr::from(lambda));
    conservation_rows(&mut m, network, commodities, &vars, Some(lambda));
    capacity_rows(&mut m, network, commodities, &vars, capacity);
    let sol = m.solve()?;
    debug_assert_eq!(sol.status(), Status::Optimal, "λ = 0 is always feasible");
    Ok(McfSolution { rates: extract_rates(&sol, commodities, &vars), objective: sol.value(lambda) })
}

/// Minimum-cost multicommodity flow: route *all* demands within
/// `capacity(link)` at minimum total cost `Σ a_ij · Σ_c f_ij^c` (prices from
/// the network).
///
/// Returns `Ok(None)` when the demands do not fit (infeasible).
///
/// # Errors
///
/// Propagates [`postcard_lp::LpError`] from the solver.
pub fn min_cost_multicommodity(
    network: &Network,
    commodities: &[Commodity],
    capacity: impl FnMut(DcId, DcId) -> f64,
) -> Result<Option<McfSolution>, postcard_lp::LpError> {
    if commodities.is_empty() {
        return Ok(Some(McfSolution { rates: BTreeMap::new(), objective: 0.0 }));
    }
    let mut m = Model::new(Sense::Minimize);
    let vars = link_vars(&mut m, network, commodities);
    let mut obj = LinExpr::new();
    for link in network.links() {
        for c_idx in 0..commodities.len() {
            obj.add_term(vars[&(c_idx, link.from.0, link.to.0)], link.price);
        }
    }
    m.set_objective(obj);
    conservation_rows(&mut m, network, commodities, &vars, None);
    capacity_rows(&mut m, network, commodities, &vars, capacity);
    let sol = m.solve()?;
    match sol.status() {
        Status::Optimal => Ok(Some(McfSolution {
            rates: extract_rates(&sol, commodities, &vars),
            objective: sol.objective(),
        })),
        Status::Infeasible => Ok(None),
        Status::Unbounded => unreachable!("costs are non-negative"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_net::NetworkBuilder;

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    /// D0 →(1) D1 →(2) D2 and direct D0 →(10) D2, all capacity 5.
    fn triangle() -> Network {
        NetworkBuilder::new(3)
            .link(d(0), d(1), 1.0, 5.0)
            .link(d(1), d(2), 2.0, 5.0)
            .link(d(0), d(2), 10.0, 5.0)
            .build()
    }

    #[test]
    fn mcmf_prefers_cheap_relay() {
        let c = [Commodity { id: 1, src: d(0), dst: d(2), demand: 4.0 }];
        let sol =
            min_cost_multicommodity(&triangle(), &c, |i, j| triangle().capacity(i, j).unwrap())
                .unwrap()
                .unwrap();
        // All 4 via the relay: cost 4·(1+2) = 12.
        assert!((sol.objective - 12.0).abs() < 1e-6, "{}", sol.objective);
        assert!((sol.rate(1, d(0), d(1)) - 4.0).abs() < 1e-6);
        assert!(sol.rate(1, d(0), d(2)) < 1e-6);
    }

    #[test]
    fn mcmf_spills_when_relay_saturates() {
        let c = [Commodity { id: 1, src: d(0), dst: d(2), demand: 8.0 }];
        let sol =
            min_cost_multicommodity(&triangle(), &c, |i, j| triangle().capacity(i, j).unwrap())
                .unwrap()
                .unwrap();
        // 5 via relay (cost 15) + 3 direct (cost 30) = 45.
        assert!((sol.objective - 45.0).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn mcmf_infeasible_when_demand_exceeds_cut() {
        let c = [Commodity { id: 1, src: d(0), dst: d(2), demand: 11.0 }];
        let sol =
            min_cost_multicommodity(&triangle(), &c, |i, j| triangle().capacity(i, j).unwrap())
                .unwrap();
        assert!(sol.is_none());
    }

    #[test]
    fn mcmf_two_commodities_share_capacity() {
        let c = [
            Commodity { id: 1, src: d(0), dst: d(2), demand: 5.0 },
            Commodity { id: 2, src: d(1), dst: d(2), demand: 5.0 },
        ];
        let sol =
            min_cost_multicommodity(&triangle(), &c, |i, j| triangle().capacity(i, j).unwrap())
                .unwrap()
                .unwrap();
        // Commodity 2 fills D1→D2 (cost 10); commodity 1 must go direct
        // (cost 50). Total 60.
        assert!((sol.objective - 60.0).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn concurrent_flow_full_routing() {
        let c = [Commodity { id: 1, src: d(0), dst: d(2), demand: 4.0 }];
        let sol = max_concurrent_flow(
            &triangle(),
            &c,
            |i, j| triangle().capacity(i, j).unwrap(),
            Some(1.0),
        )
        .unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn concurrent_flow_partial_when_tight() {
        // Demand 20 against a 10-capacity cut: λ = 0.5.
        let c = [Commodity { id: 1, src: d(0), dst: d(2), demand: 20.0 }];
        let sol = max_concurrent_flow(
            &triangle(),
            &c,
            |i, j| triangle().capacity(i, j).unwrap(),
            Some(1.0),
        )
        .unwrap();
        assert!((sol.objective - 0.5).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn concurrent_flow_zero_capacity() {
        let c = [Commodity { id: 1, src: d(0), dst: d(2), demand: 1.0 }];
        let sol = max_concurrent_flow(&triangle(), &c, |_, _| 0.0, Some(1.0)).unwrap();
        assert!(sol.objective.abs() < 1e-7);
    }

    #[test]
    fn empty_commodities_trivial() {
        let sol = max_concurrent_flow(&triangle(), &[], |_, _| 1.0, Some(1.0)).unwrap();
        assert_eq!(sol.objective, 1.0);
        let sol = min_cost_multicommodity(&triangle(), &[], |_, _| 1.0).unwrap().unwrap();
        assert_eq!(sol.objective, 0.0);
    }
}
