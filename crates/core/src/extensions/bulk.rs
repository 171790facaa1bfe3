//! Bulk transfers over leftover bandwidth (paper Sec. VI, problem 11).
//!
//! NetStitcher-style scenario: backups and migrations should ride bandwidth
//! that costs nothing extra — either capacity under the already-charged peak
//! (`X_ij` headroom), or any residual capacity at all when the operator does
//! not mind the bill. The objective is to maximize the delivered volume
//! within each file's deadline; store-and-forward is what makes night-valley
//! stitching across time zones possible.

use super::{delivered, delivered_requests, delivery_vars, inject};
use crate::error::PostcardError;
use crate::formulation::{extract_plan, lay_out, rows};
use crate::PostcardConfig;
use postcard_lp::{Model, Sense, SimplexOptions, Status};
use postcard_net::{Arc, FileId, Network, TrafficLedger, TransferPlan, TransferRequest};
use std::collections::BTreeMap;

/// Which capacity a bulk transfer may consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkCapacityMode {
    /// Only bandwidth that is simultaneously unused *and* under the link's
    /// already-charged peak — transfers are free under the 100-th percentile
    /// scheme (the paper's "leftover bandwidth ... already paid" setting).
    PaidLeftoverOnly,
    /// Any residual capacity (the operator accepts possible extra charges).
    AnyResidual,
}

/// Result of [`solve_bulk_max_transfer`].
#[derive(Debug, Clone)]
pub struct BulkSolution {
    /// The slotted store-and-forward plan moving the delivered volumes.
    pub plan: TransferPlan,
    /// Delivered volume per file (`0 ≤ delivered ≤ F_k`).
    pub delivered: BTreeMap<FileId, f64>,
    /// Total delivered volume (the objective).
    pub total_delivered: f64,
}

impl BulkSolution {
    /// The file requests rewritten to their delivered sizes (files with
    /// negligible delivery dropped) — pass these to
    /// [`TransferPlan::validate`] to check the plan.
    pub fn delivered_requests(&self, files: &[TransferRequest]) -> Vec<TransferRequest> {
        delivered_requests(&self.delivered, files)
    }
}

/// Maximizes the bulk volume delivered within deadlines using only the
/// allowed capacity (see [`BulkCapacityMode`]).
///
/// # Errors
///
/// [`PostcardError::UnknownDatacenter`] for malformed requests;
/// [`PostcardError::Lp`] on solver failure. The problem is never infeasible
/// (delivering nothing is allowed).
pub fn solve_bulk_max_transfer(
    network: &Network,
    files: &[TransferRequest],
    ledger: &TrafficLedger,
    mode: BulkCapacityMode,
) -> Result<BulkSolution, PostcardError> {
    if files.is_empty() {
        return Ok(BulkSolution {
            plan: TransferPlan::new(),
            delivered: BTreeMap::new(),
            total_delivered: 0.0,
        });
    }
    let mut m = Model::new(Sense::Maximize);
    let (graph, mvars) = lay_out(&mut m, network, files, &PostcardConfig::default(), |l, slot| {
        let residual = ledger.residual(network, l.from, l.to, slot);
        match mode {
            BulkCapacityMode::AnyResidual => residual,
            BulkCapacityMode::PaidLeftoverOnly => {
                let headroom =
                    (ledger.peak(l.from, l.to) - ledger.volume(l.from, l.to, slot)).max(0.0);
                residual.min(headroom)
            }
        }
    })?;
    let (yvars, total) = delivery_vars(&mut m, files);
    m.set_objective(total);
    let capacity = |m: &mut Model, arc: &Arc, load| {
        m.leq(load, arc.capacity);
    };
    rows(&mut m, network, &graph, files, &mvars, capacity, inject(&yvars))?;

    let sol = m.solve_with(&SimplexOptions::default())?;
    match sol.status() {
        Status::Optimal => {
            let delivered = delivered(files, &yvars, &sol);
            Ok(BulkSolution {
                plan: extract_plan(&graph, files, &mvars, &sol),
                total_delivered: delivered.values().sum(),
                delivered,
            })
        }
        Status::Infeasible => unreachable!("delivering nothing is always feasible"),
        Status::Unbounded => unreachable!("deliveries are bounded by file sizes"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_net::{DcId, NetworkBuilder};

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    /// Two-hop chain D0 → D1 → D2, capacity 4 per slot each hop.
    fn chain() -> Network {
        NetworkBuilder::new(3).link(d(0), d(1), 2.0, 4.0).link(d(1), d(2), 2.0, 4.0).build()
    }

    #[test]
    fn delivers_everything_when_capacity_allows() {
        let net = chain();
        let ledger = TrafficLedger::new(3);
        let f = TransferRequest::new(FileId(1), d(0), d(2), 6.0, 3, 0);
        let sol =
            solve_bulk_max_transfer(&net, &[f], &ledger, BulkCapacityMode::AnyResidual).unwrap();
        assert!((sol.total_delivered - 6.0).abs() < 1e-6);
        let served = sol.delivered_requests(&[f]);
        assert!(sol.plan.is_valid(&net, &served, |_, _, _| 0.0));
    }

    #[test]
    fn partial_delivery_when_capacity_tight() {
        let net = chain();
        let ledger = TrafficLedger::new(3);
        // 2 slots × 4 GB bottleneck, but store-and-forward pipelining costs a
        // slot on the second hop: only slot-0 departures can reach D2 by the
        // deadline, so 4 GB arrive.
        let f = TransferRequest::new(FileId(1), d(0), d(2), 20.0, 2, 0);
        let sol =
            solve_bulk_max_transfer(&net, &[f], &ledger, BulkCapacityMode::AnyResidual).unwrap();
        assert!((sol.total_delivered - 4.0).abs() < 1e-6, "{}", sol.total_delivered);
        let served = sol.delivered_requests(&[f]);
        assert!(sol.plan.is_valid(&net, &served, |_, _, _| 0.0));
    }

    #[test]
    fn paid_leftover_mode_moves_nothing_on_unpaid_links() {
        let net = chain();
        let ledger = TrafficLedger::new(3); // nothing charged yet
        let f = TransferRequest::new(FileId(1), d(0), d(2), 6.0, 3, 0);
        let sol = solve_bulk_max_transfer(&net, &[f], &ledger, BulkCapacityMode::PaidLeftoverOnly)
            .unwrap();
        assert!(sol.total_delivered.abs() < 1e-9);
        assert!(sol.plan.is_empty());
    }

    #[test]
    fn paid_leftover_mode_rides_the_paid_valley() {
        let net = chain();
        let mut ledger = TrafficLedger::new(3);
        // Both hops charged at 3 GB/slot by past peak traffic; the file's
        // window is idle.
        ledger.record(d(0), d(1), 100, 3.0);
        ledger.record(d(1), d(2), 100, 3.0);
        let f = TransferRequest::new(FileId(1), d(0), d(2), 20.0, 3, 0);
        let sol = solve_bulk_max_transfer(&net, &[f], &ledger, BulkCapacityMode::PaidLeftoverOnly)
            .unwrap();
        // Hop 1 usable in slots 0–1 (departures reaching D2 by slot 2):
        // 2 × 3 = 6 GB delivered, entirely free.
        assert!((sol.total_delivered - 6.0).abs() < 1e-6, "{}", sol.total_delivered);
        let served = sol.delivered_requests(&[f]);
        assert!(sol.plan.is_valid(&net, &served, |_, _, _| 0.0));
        // Confirm the bill is unchanged after committing.
        let before = ledger.cost_per_slot(&net);
        let mut after = ledger.clone();
        sol.plan.apply_to_ledger(&mut after);
        assert!((after.cost_per_slot(&net) - before).abs() < 1e-9);
    }

    #[test]
    fn multiple_files_share_leftover_fairly_by_volume() {
        let net = chain();
        let mut ledger = TrafficLedger::new(3);
        ledger.record(d(0), d(1), 100, 4.0);
        ledger.record(d(1), d(2), 100, 4.0);
        let f1 = TransferRequest::new(FileId(1), d(0), d(2), 4.0, 3, 0);
        let f2 = TransferRequest::new(FileId(2), d(0), d(2), 4.0, 3, 0);
        let sol =
            solve_bulk_max_transfer(&net, &[f1, f2], &ledger, BulkCapacityMode::PaidLeftoverOnly)
                .unwrap();
        // Hop-1 leftover in slots 0–1 totals 8: both files fit.
        assert!((sol.total_delivered - 8.0).abs() < 1e-6, "{}", sol.total_delivered);
    }

    #[test]
    fn empty_batch_trivial() {
        let net = chain();
        let sol = solve_bulk_max_transfer(
            &net,
            &[],
            &TrafficLedger::new(3),
            BulkCapacityMode::AnyResidual,
        )
        .unwrap();
        assert_eq!(sol.total_delivered, 0.0);
    }
}
