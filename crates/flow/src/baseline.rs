//! The paper's flow-based baseline (Sec. II-B), in two flavours.
//!
//! 1. [`two_phase_baseline`] — the decomposition the paper proposes:
//!    *phase 1* routes the largest common fraction of all desired rates
//!    through capacity that is **already paid for** (the charged volume
//!    `X_ij(t−1)` minus current usage) via a maximum concurrent flow;
//!    *phase 2* routes the remaining demand at minimum additional cost via a
//!    min-cost multicommodity flow.
//! 2. [`unified_flow_lp`] — a single LP in the exact percentile cost model:
//!    the strongest storage-free baseline, used by the figure reproductions
//!    (it can only make the flow-based approach look *better*, so Postcard's
//!    wins against it are conservative).

use crate::assignment::FlowAssignment;
use crate::lp_flows::{
    conservation_rows, link_vars, max_concurrent_flow, min_cost_multicommodity, Commodity,
};
use postcard_lp::{Basis, LinExpr, LpError, Model, Sense, Status};
use postcard_net::{DcId, FileId, Network, TrafficLedger, TransferRequest};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from the flow-based baselines.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// The desired rates do not fit the residual capacities — the flow-based
    /// model cannot serve this batch (store-and-forward might still).
    Infeasible,
    /// The underlying LP solver failed.
    Lp(LpError),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Infeasible => {
                write!(f, "desired rates do not fit the residual link capacities")
            }
            BaselineError::Lp(e) => write!(f, "LP solver failure: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<LpError> for BaselineError {
    fn from(e: LpError) -> Self {
        BaselineError::Lp(e)
    }
}

/// Outcome of [`two_phase_baseline`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowBaselineOutcome {
    /// The combined rate assignment (phase 1 + phase 2).
    pub assignment: FlowAssignment,
    /// Fraction of every demand served from already-paid capacity in
    /// phase 1 (`λ* ∈ [0, 1]`).
    pub lambda_paid: f64,
}

/// Static per-link free capacity over the batch horizon: the minimum over
/// all slots any file is active of the residual capacity.
fn static_residual(
    network: &Network,
    ledger: &TrafficLedger,
    files: &[TransferRequest],
) -> BTreeMap<(usize, usize), f64> {
    let mut out = BTreeMap::new();
    let lo = files.iter().map(|f| f.first_slot()).min().unwrap_or(0);
    let hi = files.iter().map(|f| f.last_slot()).max().unwrap_or(0);
    for link in network.links() {
        let mut cap = link.capacity;
        for slot in lo..=hi {
            cap = cap.min(ledger.residual(network, link.from, link.to, slot));
        }
        out.insert((link.from.0, link.to.0), cap.max(0.0));
    }
    out
}

/// Static per-link *paid* capacity: the minimum over the horizon of
/// `max(0, X_ij − usage_ij(slot))`, additionally clipped by the residual —
/// traffic that fits under the running peak is free under the 100-th
/// percentile scheme.
fn static_paid(
    network: &Network,
    ledger: &TrafficLedger,
    files: &[TransferRequest],
    residual: &BTreeMap<(usize, usize), f64>,
) -> BTreeMap<(usize, usize), f64> {
    let mut out = BTreeMap::new();
    let lo = files.iter().map(|f| f.first_slot()).min().unwrap_or(0);
    let hi = files.iter().map(|f| f.last_slot()).max().unwrap_or(0);
    for link in network.links() {
        let peak = ledger.peak(link.from, link.to);
        let mut paid = f64::INFINITY;
        for slot in lo..=hi {
            let headroom = (peak - ledger.volume(link.from, link.to, slot)).max(0.0);
            paid = paid.min(headroom);
        }
        let free = residual[&(link.from.0, link.to.0)];
        out.insert((link.from.0, link.to.0), paid.min(free));
    }
    out
}

fn commodities_of(files: &[TransferRequest]) -> Vec<Commodity> {
    files
        .iter()
        .map(|f| Commodity { id: f.id.0, src: f.src, dst: f.dst, demand: f.desired_rate() })
        .collect()
}

/// The paper's two-phase flow-based approach.
///
/// # Errors
///
/// [`BaselineError::Infeasible`] when phase 2 cannot route the residual
/// demands; [`BaselineError::Lp`] on solver failure.
pub fn two_phase_baseline(
    network: &Network,
    files: &[TransferRequest],
    ledger: &TrafficLedger,
) -> Result<FlowBaselineOutcome, BaselineError> {
    if files.is_empty() {
        return Ok(FlowBaselineOutcome { assignment: FlowAssignment::new(), lambda_paid: 0.0 });
    }
    let commodities = commodities_of(files);
    let residual = static_residual(network, ledger, files);
    let paid = static_paid(network, ledger, files, &residual);

    // Phase 1: fill already-paid capacity.
    let phase1 = max_concurrent_flow(network, &commodities, |i, j| paid[&(i.0, j.0)], Some(1.0))?;
    let lambda = phase1.objective.clamp(0.0, 1.0);

    let mut assignment = FlowAssignment::new();
    for (&(id, i, j), &r) in &phase1.rates {
        assignment.add_rate(FileId(id), DcId(i), DcId(j), r);
    }

    // Phase 2: route the remainder at minimum extra cost within what is left
    // of the residual capacity after phase 1.
    if lambda < 1.0 - 1e-9 {
        let remainder: Vec<Commodity> = commodities
            .iter()
            .map(|c| Commodity { demand: c.demand * (1.0 - lambda), ..*c })
            .collect();
        let phase2 = min_cost_multicommodity(network, &remainder, |i, j| {
            let used: f64 = commodities
                .iter()
                .map(|c| phase1.rates.get(&(c.id, i.0, j.0)).copied().unwrap_or(0.0))
                .sum();
            (residual[&(i.0, j.0)] - used).max(0.0)
        })?
        .ok_or(BaselineError::Infeasible)?;
        for (&(id, i, j), &r) in &phase2.rates {
            assignment.add_rate(FileId(id), DcId(i), DcId(j), r);
        }
    }
    Ok(FlowBaselineOutcome { assignment, lambda_paid: lambda })
}

/// The storage-free flow LP in the exact percentile cost model.
///
/// Variables: a constant rate `f_ij^k ≥ 0` per file per link, plus the
/// charged volume `X_ij ≥ X_ij(t−1)`. Constraints: instantaneous
/// conservation per file; per-slot capacity `Σ_{k active(n)} f_ij^k ≤
/// c_ij(n)`; and `X_ij ≥ usage_ij(n) + Σ_{k active(n)} f_ij^k` for every
/// horizon slot. Objective: `min Σ a_ij · X_ij`.
///
/// # Errors
///
/// [`BaselineError::Infeasible`] when the desired rates do not fit;
/// [`BaselineError::Lp`] on solver failure.
pub fn unified_flow_lp(
    network: &Network,
    files: &[TransferRequest],
    ledger: &TrafficLedger,
) -> Result<FlowAssignment, BaselineError> {
    unified_flow_lp_warm(network, files, ledger, None).map(|o| o.assignment)
}

/// Outcome of [`unified_flow_lp_warm`]: the assignment plus solver effort and
/// the optimal basis for warm-starting the next same-shaped solve.
#[derive(Debug, Clone)]
pub struct UnifiedFlowOutcome {
    /// The optimal rate assignment.
    pub assignment: FlowAssignment,
    /// Simplex pivots used (0 for an empty batch).
    pub lp_iterations: usize,
    /// How many of those pivots were dual-simplex pivots (non-zero only on
    /// warm solves resuming from a dual-feasible basis).
    pub dual_iterations: usize,
    /// Whether `warm` actually seeded the solve (`false` when none was
    /// supplied or the solver rejected it and ran cold).
    pub warm_started: bool,
    /// The optimal basis, exportable into the next solve's `warm` argument
    /// (`None` for an empty batch).
    pub basis: Option<Basis>,
}

/// [`unified_flow_lp`], warm-started from a previously exported [`Basis`].
///
/// A mismatched or stale basis silently degrades to a cold solve. Either way
/// the optimal cost is the same, but a warm solve may end at another optimal
/// vertex, that is, another assignment.
///
/// # Errors
///
/// Same contract as [`unified_flow_lp`].
pub fn unified_flow_lp_warm(
    network: &Network,
    files: &[TransferRequest],
    ledger: &TrafficLedger,
    warm: Option<&Basis>,
) -> Result<UnifiedFlowOutcome, BaselineError> {
    if files.is_empty() {
        return Ok(UnifiedFlowOutcome {
            assignment: FlowAssignment::new(),
            lp_iterations: 0,
            dual_iterations: 0,
            warm_started: false,
            basis: None,
        });
    }
    let lo = files.iter().map(|f| f.first_slot()).min().unwrap_or(0);
    let hi = files.iter().map(|f| f.last_slot()).max().unwrap_or(lo);

    let mut m = Model::new(Sense::Minimize);
    let commodities = commodities_of(files);
    // Rate variables.
    let fvars = link_vars(&mut m, network, &commodities);
    // Charged-volume variables with their prior floor.
    let mut xvars = BTreeMap::new();
    let mut obj = LinExpr::new();
    for link in network.links() {
        let x = m.add_var(
            format!("X[{}->{}]", link.from.0, link.to.0),
            ledger.peak(link.from, link.to),
            f64::INFINITY,
        );
        xvars.insert((link.from.0, link.to.0), x);
        obj.add_term(x, link.price);
    }
    m.set_objective(obj);

    // Conservation (instantaneous) per file.
    conservation_rows(&mut m, network, &commodities, &fvars, None);

    // Per-slot capacity and charged-volume envelopes.
    for slot in lo..=hi {
        for link in network.links() {
            let active: Vec<usize> = files
                .iter()
                .enumerate()
                .filter(|(_, f)| f.active_in(slot))
                .map(|(k, _)| k)
                .collect();
            let used = ledger.volume(link.from, link.to, slot);
            let mut load = LinExpr::new();
            for &k in &active {
                load.add_term(fvars[&(k, link.from.0, link.to.0)], 1.0);
            }
            // Capacity.
            m.leq(load.clone(), (link.capacity - used).max(0.0));
            // X_ij ≥ used + load.
            let mut env = load;
            env.add_term(xvars[&(link.from.0, link.to.0)], -1.0);
            m.leq(env, -used);
        }
    }

    let sol = m.solve_warm(&postcard_lp::SimplexOptions::default(), warm)?;
    match sol.status() {
        Status::Optimal => {
            let mut a = FlowAssignment::new();
            for (&(k, i, j), &v) in &fvars {
                let r = sol.value(v);
                if r > 1e-9 {
                    a.add_rate(files[k].id, DcId(i), DcId(j), r);
                }
            }
            Ok(UnifiedFlowOutcome {
                assignment: a,
                lp_iterations: sol.iterations(),
                dual_iterations: sol.dual_iterations(),
                warm_started: sol.warm_started(),
                basis: sol.basis().cloned(),
            })
        }
        Status::Infeasible => Err(BaselineError::Infeasible),
        Status::Unbounded => unreachable!("objective bounded below by prior peaks"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_net::NetworkBuilder;

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    /// D0 →(1) D1 →(2) D2 relay plus expensive direct D0 →(10) D2.
    fn triangle(cap: f64) -> Network {
        NetworkBuilder::new(3)
            .link(d(0), d(1), 1.0, cap)
            .link(d(1), d(2), 2.0, cap)
            .link(d(0), d(2), 10.0, cap)
            .build()
    }

    fn file(rate: f64, deadline: usize) -> TransferRequest {
        TransferRequest::new(FileId(1), d(0), d(2), rate * deadline as f64, deadline, 0)
    }

    #[test]
    fn unified_lp_routes_via_cheap_relay() {
        let net = triangle(5.0);
        let ledger = TrafficLedger::new(3);
        let f = file(2.0, 3);
        let a = unified_flow_lp(&net, &[f], &ledger).unwrap();
        assert!(a.is_valid(&net, &[f], |_, _, _| 0.0));
        assert!((a.rate(FileId(1), d(0), d(1)) - 2.0).abs() < 1e-6);
        let mut l = TrafficLedger::new(3);
        a.apply_to_ledger(&[f], &mut l);
        // Cost per slot: 2·1 + 2·2 = 6.
        assert!((l.cost_per_slot(&net) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn unified_lp_respects_prior_peaks_as_free() {
        let net = triangle(5.0);
        let mut ledger = TrafficLedger::new(3);
        // The direct link already charged at 2 GB/slot (peak), currently idle
        // in the file's window: routing up to 2 direct is free.
        ledger.record(d(0), d(2), 1000, 2.0);
        let f = file(2.0, 3);
        let a = unified_flow_lp(&net, &[f], &ledger).unwrap();
        assert!(a.is_valid(&net, &[f], |_, _, _| 0.0));
        let mut l = ledger.clone();
        a.apply_to_ledger(&[f], &mut l);
        // Optimal: send the whole rate over the already-paid direct link;
        // total cost stays at the prior bill 10·2 = 20 (relay would *add*
        // 6 on top of the sunk 20).
        assert!((l.cost_per_slot(&net) - 20.0).abs() < 1e-6, "{}", l.cost_per_slot(&net));
        assert!((a.rate(FileId(1), d(0), d(2)) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn unified_lp_infeasible_when_rates_do_not_fit() {
        let net = triangle(1.0); // total cut 2 GB/slot
        let ledger = TrafficLedger::new(3);
        let f = file(3.0, 2);
        assert_eq!(unified_flow_lp(&net, &[f], &ledger).unwrap_err(), BaselineError::Infeasible);
    }

    #[test]
    fn two_phase_uses_paid_capacity_first() {
        let net = triangle(5.0);
        let mut ledger = TrafficLedger::new(3);
        // Direct link paid up to 2 GB/slot, idle during the window.
        ledger.record(d(0), d(2), 1000, 2.0);
        let f = file(2.0, 3);
        let out = two_phase_baseline(&net, &[f], &ledger).unwrap();
        assert!((out.lambda_paid - 1.0).abs() < 1e-6, "λ = {}", out.lambda_paid);
        assert!(out.assignment.is_valid(&net, &[f], |_, _, _| 0.0));
        assert!((out.assignment.rate(FileId(1), d(0), d(2)) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn two_phase_routes_remainder_cheaply() {
        let net = triangle(5.0);
        let ledger = TrafficLedger::new(3); // nothing paid yet
        let f = file(2.0, 3);
        let out = two_phase_baseline(&net, &[f], &ledger).unwrap();
        assert!(out.lambda_paid.abs() < 1e-6);
        assert!(out.assignment.is_valid(&net, &[f], |_, _, _| 0.0));
        // Phase 2 = plain min-cost MCF ⇒ relay path.
        assert!((out.assignment.rate(FileId(1), d(0), d(1)) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn two_phase_infeasible_when_over_capacity() {
        let net = triangle(1.0);
        let ledger = TrafficLedger::new(3);
        let f = file(3.0, 2);
        assert_eq!(two_phase_baseline(&net, &[f], &ledger).unwrap_err(), BaselineError::Infeasible);
    }

    #[test]
    fn empty_batch_is_trivial() {
        let net = triangle(5.0);
        let ledger = TrafficLedger::new(3);
        assert!(two_phase_baseline(&net, &[], &ledger).unwrap().assignment.is_empty());
        assert!(unified_flow_lp(&net, &[], &ledger).unwrap().is_empty());
    }

    #[test]
    fn unified_warm_restart_matches_cold() {
        let net = triangle(5.0);
        let ledger = TrafficLedger::new(6);
        let f0 = file(4.0, 2);
        let first = unified_flow_lp_warm(&net, &[f0], &ledger, None).unwrap();
        assert!(first.basis.is_some());
        // Commit and solve a same-shaped follow-up batch, warm and cold.
        let mut ledger2 = ledger.clone();
        first.assignment.apply_to_ledger(&[f0], &mut ledger2);
        let f1 = TransferRequest::new(FileId(2), d(0), d(2), 4.0, 2, 2);
        let cold = unified_flow_lp_warm(&net, &[f1], &ledger2, None).unwrap();
        let warm = unified_flow_lp_warm(&net, &[f1], &ledger2, first.basis.as_ref()).unwrap();
        // Alternate optima may differ in the vertex, never in the bill.
        let bill = |a: &FlowAssignment| {
            let mut l = ledger2.clone();
            a.apply_to_ledger(&[f1], &mut l);
            l.cost_per_slot(&net)
        };
        assert!((bill(&warm.assignment) - bill(&cold.assignment)).abs() < 1e-6);
        assert!(warm.assignment.is_valid(&net, &[f1], |i, j, s| ledger2.volume(i, j, s)));
        assert!(warm.warm_started);
    }

    #[test]
    fn unified_never_worse_than_two_phase() {
        // The unified LP optimizes the true objective, so its bill must be
        // ≤ the two-phase decomposition's on any instance where both work.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let n = 4;
            let net = Network::complete_with_prices(n, 50.0, |_, _| rng.gen_range(1.0..10.0));
            let files: Vec<TransferRequest> = (0..3)
                .map(|k| {
                    let src = rng.gen_range(0..n);
                    let mut dst = rng.gen_range(0..n);
                    while dst == src {
                        dst = rng.gen_range(0..n);
                    }
                    TransferRequest::new(
                        FileId(k),
                        d(src),
                        d(dst),
                        rng.gen_range(5.0..30.0),
                        rng.gen_range(1..4),
                        0,
                    )
                })
                .collect();
            let ledger = TrafficLedger::new(n);
            let uni = unified_flow_lp(&net, &files, &ledger).unwrap();
            let two = two_phase_baseline(&net, &files, &ledger).unwrap();
            let mut l1 = ledger.clone();
            uni.apply_to_ledger(&files, &mut l1);
            let mut l2 = ledger.clone();
            two.assignment.apply_to_ledger(&files, &mut l2);
            assert!(
                l1.cost_per_slot(&net) <= l2.cost_per_slot(&net) + 1e-5,
                "unified {} vs two-phase {}",
                l1.cost_per_slot(&net),
                l2.cost_per_slot(&net)
            );
        }
    }
}
