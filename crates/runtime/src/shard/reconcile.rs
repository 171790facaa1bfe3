//! Deterministic merge of per-shard plans into the central ledger view.
//!
//! Shards solve *optimistically*: each worker sees the full residual
//! capacity of every link (a static capacity split would forfeit work
//! conservation even on disjoint workloads). The price of optimism is that
//! two shards can together over-commit a link both plans touch. The
//! reconciler resolves that deterministically:
//!
//! 1. Shards are visited in **fixed index order** (the seeded shard
//!    ordering — shard indices are assigned by the pure partition key, so
//!    the order is a property of the workload, not of thread timing).
//! 2. Each shard's tentative decisions are validated against the
//!    committed ledger, which already holds every earlier shard's merged
//!    traffic (capacity, conservation, delivery — the full Eq. 7–10
//!    check), and booked onto it if they pass.
//! 3. A shard whose tentative plan no longer validates is **re-solved
//!    serially** against that ledger, so it sees exactly what earlier
//!    shards committed. Its re-solve is final: by construction it
//!    validates against the state it solved on.
//!
//! On tenant-disjoint workloads no link is shared, step 2 never fails, and
//! the merge is a pure concatenation — full parallel speedup, and the
//! merged objective matches the unsharded LP (the property tests assert
//! this). Conflict attribution reuses the flow crate's path decomposition:
//! for a rates decision that over-committed `i → j`, the decomposed paths
//! crossing `i → j` name the contending transfers.

use super::pool::{self, ShardSolve, WorkerPool};
use postcard_core::Decision;
use postcard_flow::decompose_flow;
use postcard_flow::FlowViolation;
use postcard_net::{Network, PlanViolation, TrafficLedger, TransferRequest};
use std::sync::Arc;

/// Validates one tentative decision against the ledger merged so far; on failure
/// returns attribution lines naming the over-committed links and the
/// contending transfers.
fn validate_decision(
    network: &Network,
    merged: &TrafficLedger,
    files: &[TransferRequest],
    decision: &Decision,
    shard: usize,
) -> Result<(), Vec<String>> {
    match decision {
        Decision::Plan(plan) => {
            let violations = plan.validate(network, files, |i, j, s| merged.volume(i, j, s));
            if violations.is_empty() {
                return Ok(());
            }
            Err(violations
                .iter()
                .map(|v| match v {
                    PlanViolation::Capacity { from, to, slot, used, available } => format!(
                        "shard {shard}: link {from}->{to} over-committed at slot {slot} \
                         ({used:.3} GB planned, {available:.3} GB available)"
                    ),
                    other => format!("shard {shard}: {other:?}"),
                })
                .collect())
        }
        Decision::Rates(rates) => {
            let violations = rates.validate(network, files, |i, j, s| merged.volume(i, j, s));
            if violations.is_empty() {
                return Ok(());
            }
            let mut lines = Vec::new();
            for v in &violations {
                match v {
                    FlowViolation::Capacity { from, to, slot, used, available } => {
                        lines.push(format!(
                            "shard {shard}: link {from}->{to} over-committed at slot {slot} \
                             ({used:.3} GB/slot of {available:.3} available)"
                        ));
                        // Attribute the hot link to paths: decompose each
                        // file's flow and name the shares crossing it.
                        for f in files {
                            let dec = decompose_flow(rates, f, network.num_dcs());
                            let rate = dec.rate_over(*from, *to);
                            if rate > 0.0 {
                                lines.push(format!(
                                    "shard {shard}:   {} sends {rate:.3} GB/slot over \
                                     {from}->{to}",
                                    f.id
                                ));
                            }
                        }
                    }
                    other => lines.push(format!("shard {shard}: {other:?}")),
                }
            }
            Err(lines)
        }
    }
}

/// Merges tentative shard solves onto the committed `ledger` in fixed
/// shard order, re-solving shards whose optimistic plans over-committed
/// shared links against it. Returns the final per-shard resolutions (same
/// order), whose commits are then booked on `ledger`, each once.
pub fn reconcile(
    network: &Arc<Network>,
    ledger: &mut TrafficLedger,
    solves: Vec<ShardSolve>,
    pool: &mut WorkerPool,
    batches: &[Vec<TransferRequest>],
    directives: &pool::SlotDirectives,
) -> Vec<ShardSolve> {
    let mut resolved = Vec::with_capacity(solves.len());
    for solve in solves {
        if solve.degraded {
            resolved.push(solve);
            continue;
        }
        let mut diagnostics = Vec::new();
        let valid =
            solve.admission.commits.iter().all(|(files, decision)| {
                match validate_decision(network, ledger, files, decision, solve.shard) {
                    Ok(()) => true,
                    Err(mut lines) => {
                        diagnostics.append(&mut lines);
                        false
                    }
                }
            });
        if valid {
            for (files, decision) in &solve.admission.commits {
                decision.apply_to_ledger(files, ledger);
            }
            resolved.push(solve);
            continue;
        }

        // Conflict: this shard's optimism lost. Re-solve it serially against
        // the ledger (which holds every earlier shard's merged traffic); the
        // re-solve is deterministic — same chain on the same long-lived
        // worker, same batch, fixed position in the merge order.
        let shard = solve.shard;
        let resolve = pool.solve_one(shard, network, ledger, &batches[shard], directives);
        debug_assert!(
            resolve.degraded
                || resolve.admission.commits.iter().all(|(files, decision)| validate_decision(
                    network, ledger, files, decision, shard
                )
                .is_ok()),
            "a re-solve against the ledger must validate against it"
        );
        for (files, decision) in &resolve.admission.commits {
            decision.apply_to_ledger(files, ledger);
        }
        resolved.push(ShardSolve {
            conflicted: true,
            diagnostics,
            wall_seconds: solve.wall_seconds + resolve.wall_seconds,
            ..resolve
        });
    }
    resolved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallback::FallbackChain;
    use crate::runtime::RuntimeConfig;
    use postcard_net::{DcId, FileId, NetworkBuilder};

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    fn two_shard_pool() -> WorkerPool {
        let config = RuntimeConfig::default();
        WorkerPool::new(vec![FallbackChain::new(&config), FallbackChain::new(&config)])
    }

    #[test]
    fn disjoint_shards_merge_without_conflicts() {
        let net = Arc::new(
            NetworkBuilder::new(4)
                .link(d(0), d(1), 2.0, 100.0)
                .link(d(2), d(3), 3.0, 100.0)
                .build(),
        );
        let mut ledger = TrafficLedger::new(4);
        let batches = vec![
            vec![TransferRequest::new(FileId(1), d(0), d(1), 6.0, 3, 0)],
            vec![TransferRequest::new(FileId(2), d(2), d(3), 9.0, 3, 0)],
        ];
        let mut pool = two_shard_pool();
        let solves = pool.solve_parallel(&net, &ledger, &batches, &pool::SlotDirectives::plain(0));
        let resolved = reconcile(
            &net,
            &mut ledger,
            solves,
            &mut pool,
            &batches,
            &pool::SlotDirectives::plain(0),
        );
        assert!(resolved.iter().all(|s| !s.conflicted && !s.degraded));
        assert_eq!(resolved[0].admission.accepted().copied().collect::<Vec<_>>(), batches[0]);
        assert_eq!(resolved[1].admission.accepted().copied().collect::<Vec<_>>(), batches[1]);
    }

    #[test]
    fn shared_link_over_commit_is_detected_and_resolved() {
        // One capacity-10 link; each shard alone would claim all of it.
        let net = Arc::new(NetworkBuilder::new(2).link(d(0), d(1), 1.0, 10.0).build());
        let mut ledger = TrafficLedger::new(2);
        let batches = vec![
            vec![TransferRequest::new(FileId(1), d(0), d(1), 10.0, 1, 0)],
            vec![TransferRequest::new(FileId(2), d(0), d(1), 10.0, 1, 0)],
        ];
        let mut pool = two_shard_pool();
        let solves = pool.solve_parallel(&net, &ledger, &batches, &pool::SlotDirectives::plain(0));
        // Both optimistic solves admit their file (each saw an empty link).
        assert_eq!(solves[0].admission.accepted().copied().collect::<Vec<_>>(), batches[0]);
        assert_eq!(solves[1].admission.accepted().copied().collect::<Vec<_>>(), batches[1]);
        let resolved = reconcile(
            &net,
            &mut ledger,
            solves,
            &mut pool,
            &batches,
            &pool::SlotDirectives::plain(0),
        );
        // Shard 0 keeps its plan; shard 1's re-solve finds no room and
        // rejects — the merged view never over-commits the link.
        assert!(!resolved[0].conflicted);
        assert!(resolved[1].conflicted);
        assert_eq!(resolved[0].admission.accepted().copied().collect::<Vec<_>>(), batches[0]);
        assert_eq!(resolved[1].admission.rejected, batches[1]);
        assert!(resolved[1].admission.commits.is_empty());
        assert!(
            resolved[1].diagnostics.iter().any(|l| l.contains("over-committed")),
            "{:?}",
            resolved[1].diagnostics
        );
        // The merged commits are booked on the ledger once each, and
        // capacity is respected.
        let mut replayed = TrafficLedger::new(2);
        for s in &resolved {
            for (files, decision) in &s.admission.commits {
                decision.apply_to_ledger(files, &mut replayed);
            }
        }
        assert_eq!(ledger, replayed);
        assert!(ledger.volume(d(0), d(1), 0) <= 10.0 + 1e-9);
    }

    #[test]
    fn partial_shared_capacity_is_split_across_the_merge_order() {
        // Capacity 10, two 6-GB single-slot files from different shards:
        // shard 0 wins, shard 1's re-solve must reject (only 4 GB left).
        let net = Arc::new(NetworkBuilder::new(2).link(d(0), d(1), 1.0, 10.0).build());
        let mut ledger = TrafficLedger::new(2);
        let batches = vec![
            vec![TransferRequest::new(FileId(1), d(0), d(1), 6.0, 1, 0)],
            vec![TransferRequest::new(FileId(2), d(0), d(1), 6.0, 1, 0)],
        ];
        let mut pool = two_shard_pool();
        let solves = pool.solve_parallel(&net, &ledger, &batches, &pool::SlotDirectives::plain(0));
        let resolved = reconcile(
            &net,
            &mut ledger,
            solves,
            &mut pool,
            &batches,
            &pool::SlotDirectives::plain(0),
        );
        assert_eq!(resolved[0].admission.accepted().copied().collect::<Vec<_>>(), batches[0]);
        assert!(resolved[1].conflicted);
        assert_eq!(resolved[1].admission.rejected, batches[1]);
    }
}
