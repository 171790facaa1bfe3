//! Budget-constrained transfer maximization (paper Sec. VI, second
//! extension).
//!
//! During peak hours more files wait than the provider's traffic budget can
//! carry. The problem: maximize the volume delivered within deadlines while
//! keeping the bill `Σ a_ij · X_ij` at or under a budget — a convex problem
//! in the paper, an LP here thanks to the same `max`-linearization used by
//! the main formulation.

use super::{delivered, delivered_requests, delivery_vars, inject};
use crate::error::PostcardError;
use crate::formulation::{capacity_and_envelope, charged_vars, extract_plan, lay_out, rows};
use crate::PostcardConfig;
use postcard_lp::{Model, Sense, SimplexOptions, Status};
use postcard_net::{FileId, Network, TrafficLedger, TransferPlan, TransferRequest};
use std::collections::BTreeMap;

/// Result of [`solve_budget_constrained`].
#[derive(Debug, Clone)]
pub struct BudgetSolution {
    /// The slotted store-and-forward plan.
    pub plan: TransferPlan,
    /// Delivered volume per file.
    pub delivered: BTreeMap<FileId, f64>,
    /// Total delivered volume (the objective).
    pub total_delivered: f64,
    /// The bill per slot after this plan (≤ the budget).
    pub cost_per_slot: f64,
}

impl BudgetSolution {
    /// The requests rewritten to delivered sizes (see
    /// [`crate::extensions::bulk::BulkSolution::delivered_requests`]).
    pub fn delivered_requests(&self, files: &[TransferRequest]) -> Vec<TransferRequest> {
        delivered_requests(&self.delivered, files)
    }
}

/// Maximizes delivered volume subject to `Σ a_ij · X_ij ≤ budget_per_slot`.
///
/// Note the sunk-cost floor: `X_ij ≥ X_ij(t−1)`, so a budget below the
/// *current* bill makes the problem infeasible — the bill cannot shrink.
///
/// # Errors
///
/// [`PostcardError::Infeasible`] when `budget_per_slot` is below the current
/// bill; [`PostcardError::UnknownDatacenter`] / [`PostcardError::Lp`] as in
/// [`crate::solve_postcard`].
pub fn solve_budget_constrained(
    network: &Network,
    files: &[TransferRequest],
    ledger: &TrafficLedger,
    budget_per_slot: f64,
) -> Result<BudgetSolution, PostcardError> {
    let mut m = Model::new(Sense::Maximize);
    let (graph, mvars) = lay_out(&mut m, network, files, &PostcardConfig::default(), |l, slot| {
        ledger.residual(network, l.from, l.to, slot)
    })?;
    let current_bill = ledger.cost_per_slot(network);
    if budget_per_slot < current_bill - 1e-9 {
        return Err(PostcardError::Infeasible);
    }
    if files.is_empty() {
        return Ok(BudgetSolution {
            plan: TransferPlan::new(),
            delivered: BTreeMap::new(),
            total_delivered: 0.0,
            cost_per_slot: current_bill,
        });
    }
    let (yvars, total) = delivery_vars(&mut m, files);
    m.set_objective(total.clone());
    let (xvars, bill) = charged_vars(&mut m, network, ledger);
    m.leq(bill.clone(), budget_per_slot);
    let envelope = capacity_and_envelope(ledger, &xvars);
    rows(&mut m, network, &graph, files, &mvars, envelope, inject(&yvars))?;

    let max_delivery = m.solve_with(&SimplexOptions::default())?;
    match max_delivery.status() {
        Status::Optimal => {}
        Status::Infeasible => return Err(PostcardError::Infeasible),
        Status::Unbounded => unreachable!("deliveries bounded by file sizes"),
    }
    // Lexicographic second pass: among all maximum-delivery solutions, pick
    // one with the smallest bill (the maximizer itself has no pressure to
    // spread load below the budget).
    let max = max_delivery.objective();
    m.geq(total, max - 1e-9 * (1.0 + max));
    m.set_sense(Sense::Minimize);
    m.set_objective(bill);
    let cheapest = m.solve_with(&SimplexOptions::default())?;
    let sol = if cheapest.status() == Status::Optimal { cheapest } else { max_delivery };
    let plan = extract_plan(&graph, files, &mvars, &sol);
    let delivered = delivered(files, &yvars, &sol);
    // The bill at the optimum: X variables sit at their binding levels, but
    // a maximizer has no pressure to push them down, so recompute the *true*
    // bill from the plan peaks and floors.
    let cost_per_slot = network
        .links()
        .map(|l| {
            let loads = (graph.first_slot()..=graph.last_slot()).map(|slot| {
                ledger.volume(l.from, l.to, slot) + plan.link_slot_total(l.from, l.to, slot)
            });
            l.price * loads.fold(ledger.peak(l.from, l.to), f64::max)
        })
        .sum();
    Ok(BudgetSolution { plan, total_delivered: delivered.values().sum(), delivered, cost_per_slot })
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_net::{DcId, NetworkBuilder};

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    fn pair(price: f64, cap: f64) -> Network {
        NetworkBuilder::new(2).link(d(0), d(1), price, cap).build()
    }

    #[test]
    fn generous_budget_delivers_everything() {
        let net = pair(2.0, 10.0);
        let f = TransferRequest::new(FileId(1), d(0), d(1), 12.0, 3, 0);
        let sol = solve_budget_constrained(&net, &[f], &TrafficLedger::new(2), 1000.0).unwrap();
        assert!((sol.total_delivered - 12.0).abs() < 1e-5);
        // Best bill: 4 GB/slot × $2 = 8.
        assert!((sol.cost_per_slot - 8.0).abs() < 1e-6, "{}", sol.cost_per_slot);
        let served = sol.delivered_requests(&[f]);
        assert!(sol.plan.is_valid(&net, &served, |_, _, _| 0.0));
    }

    #[test]
    fn tight_budget_caps_delivery() {
        let net = pair(2.0, 10.0);
        let f = TransferRequest::new(FileId(1), d(0), d(1), 12.0, 3, 0);
        // Budget 4 ⇒ peak ≤ 2 GB/slot ⇒ at most 6 GB over 3 slots.
        let sol = solve_budget_constrained(&net, &[f], &TrafficLedger::new(2), 4.0).unwrap();
        assert!((sol.total_delivered - 6.0).abs() < 1e-5, "{}", sol.total_delivered);
        assert!(sol.cost_per_slot <= 4.0 + 1e-6);
    }

    #[test]
    fn zero_budget_delivers_nothing_on_fresh_network() {
        let net = pair(2.0, 10.0);
        let f = TransferRequest::new(FileId(1), d(0), d(1), 12.0, 3, 0);
        let sol = solve_budget_constrained(&net, &[f], &TrafficLedger::new(2), 0.0).unwrap();
        assert!(sol.total_delivered.abs() < 1e-9);
    }

    #[test]
    fn budget_below_sunk_bill_is_infeasible() {
        let net = pair(2.0, 10.0);
        let mut ledger = TrafficLedger::new(2);
        ledger.record(d(0), d(1), 5, 5.0); // bill = 10
        let f = TransferRequest::new(FileId(1), d(0), d(1), 1.0, 1, 0);
        assert_eq!(
            solve_budget_constrained(&net, &[f], &ledger, 5.0).unwrap_err(),
            PostcardError::Infeasible
        );
    }

    #[test]
    fn sunk_bill_carries_free_capacity() {
        let net = pair(2.0, 10.0);
        let mut ledger = TrafficLedger::new(2);
        // Paid peak 3 GB/slot in the past: bill 6 is sunk.
        ledger.record(d(0), d(1), 100, 3.0);
        let f = TransferRequest::new(FileId(1), d(0), d(1), 12.0, 3, 0);
        // Budget exactly the sunk bill: only free (under-peak) capacity
        // usable ⇒ 3 GB/slot × 3 slots = 9 GB.
        let sol = solve_budget_constrained(&net, &[f], &ledger, 6.0).unwrap();
        assert!((sol.total_delivered - 9.0).abs() < 1e-5, "{}", sol.total_delivered);
        assert!((sol.cost_per_slot - 6.0).abs() < 1e-6);
    }

    #[test]
    fn budget_spent_on_cheapest_route() {
        // Two links: cheap relay vs expensive direct; budget forces the
        // relay to be preferred.
        let net = NetworkBuilder::new(3)
            .link(d(0), d(1), 1.0, 10.0)
            .link(d(1), d(2), 1.0, 10.0)
            .link(d(0), d(2), 10.0, 10.0)
            .build();
        let f = TransferRequest::new(FileId(1), d(0), d(2), 10.0, 3, 0);
        let sol = solve_budget_constrained(&net, &[f], &TrafficLedger::new(3), 10.0).unwrap();
        // Relay at 5 GB/slot costs 2·5 = 10: exactly in budget, all 10 GB
        // delivered (send 5+5 on hop 1 in slots 0-1, etc.).
        assert!((sol.total_delivered - 10.0).abs() < 1e-5, "{}", sol.total_delivered);
        assert!(sol.cost_per_slot <= 10.0 + 1e-6);
    }
}
