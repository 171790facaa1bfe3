//! Deterministic merge of per-shard plans into the central ledger view.
//!
//! Shards solve *optimistically*: each shard sees the full residual
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
//! 3. A shard whose tentative plan no longer validates is **re-solved in
//!    place** on that ledger with its own chain, so it sees exactly what
//!    earlier shards committed. The re-solve books its admission there
//!    once, as [`postcard_core::admit`] does, and is final: every decision
//!    it admits was checked against the traffic booked before it.
//!
//! On tenant-disjoint workloads no link is shared, step 2 never fails, and
//! the merge is a pure concatenation — full parallel speedup, and the
//! merged objective matches the unsharded LP (the property tests assert
//! this). Conflict attribution reuses the flow crate's path decomposition:
//! for a rates decision that over-committed `i → j`, the decomposed paths
//! crossing `i → j` name the contending transfers.

use super::pool::{solve_shard, ShardSolve, SlotDirectives};
use crate::fallback::FallbackChain;
use postcard_core::Decision;
use postcard_flow::decompose_flow;
use postcard_flow::FlowViolation;
use postcard_net::{Network, PlanViolation, TrafficLedger, TransferRequest};

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
/// shard order: a shard whose decisions still validate is booked as it
/// stands, and one whose optimistic plan over-committed a shared link is
/// re-solved in place on `ledger` with its chain (`chains[shard]`, batch
/// `batches[shard]`). Returns the final per-shard resolutions (same
/// order), whose commits are then booked on `ledger`, each once.
pub fn reconcile(
    network: &Network,
    ledger: &mut TrafficLedger,
    solves: Vec<ShardSolve>,
    chains: &mut [FallbackChain],
    batches: &[Vec<TransferRequest>],
    directives: &SlotDirectives,
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

        // Conflict: this shard's optimism lost. Re-solve it on the ledger,
        // which holds every earlier shard's merged traffic: the admission
        // books each decision there once, or leaves the ledger as it was on
        // a hard error. The re-solve is deterministic — same chain, same
        // batch, fixed position in the merge order.
        let shard = solve.shard;
        let chain = &mut chains[shard];
        chain.mark_alap_dirty();
        let resolve = solve_shard(chain, shard, network, ledger, &batches[shard], directives);
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
    use crate::runtime::RuntimeConfig;
    use crate::shard::pool::solve_parallel;
    use postcard_net::{DcId, FileId, NetworkBuilder};

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    fn two_chains() -> [FallbackChain; 2] {
        let config = RuntimeConfig::default();
        [FallbackChain::new(&config), FallbackChain::new(&config)]
    }

    #[test]
    fn disjoint_shards_merge_without_conflicts() {
        let net = NetworkBuilder::new(4)
            .link(d(0), d(1), 2.0, 100.0)
            .link(d(2), d(3), 3.0, 100.0)
            .build();
        let mut ledger = TrafficLedger::new(4);
        let batches = vec![
            vec![TransferRequest::new(FileId(1), d(0), d(1), 6.0, 3, 0)],
            vec![TransferRequest::new(FileId(2), d(2), d(3), 9.0, 3, 0)],
        ];
        let mut chains = two_chains();
        let directives = SlotDirectives::plain(0);
        let solves = solve_parallel(&mut chains, &net, &ledger, &batches, &directives);
        let resolved = reconcile(&net, &mut ledger, solves, &mut chains, &batches, &directives);
        assert!(resolved.iter().all(|s| !s.conflicted && !s.degraded));
        assert_eq!(resolved[0].admission.accepted().copied().collect::<Vec<_>>(), batches[0]);
        assert_eq!(resolved[1].admission.accepted().copied().collect::<Vec<_>>(), batches[1]);
    }

    #[test]
    fn shared_link_over_commit_is_detected_and_resolved() {
        // One capacity-10 link; each shard alone would claim all of it.
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 10.0).build();
        let mut ledger = TrafficLedger::new(2);
        let batches = vec![
            vec![TransferRequest::new(FileId(1), d(0), d(1), 10.0, 1, 0)],
            vec![TransferRequest::new(FileId(2), d(0), d(1), 10.0, 1, 0)],
        ];
        let mut chains = two_chains();
        let directives = SlotDirectives::plain(0);
        let solves = solve_parallel(&mut chains, &net, &ledger, &batches, &directives);
        // Both optimistic solves admit their file (each saw an empty link).
        assert_eq!(solves[0].admission.accepted().copied().collect::<Vec<_>>(), batches[0]);
        assert_eq!(solves[1].admission.accepted().copied().collect::<Vec<_>>(), batches[1]);
        let resolved = reconcile(&net, &mut ledger, solves, &mut chains, &batches, &directives);
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
        // Capacity 10: shard 0 wins and books 6 GB, so shard 1's optimistic
        // 9-GB batch conflicts. Its re-solve in place on the ledger admits
        // the 3-GB file alone (4 GB left) and rejects the 6-GB one.
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 10.0).build();
        let mut ledger = TrafficLedger::new(2);
        let batches = vec![
            vec![TransferRequest::new(FileId(1), d(0), d(1), 6.0, 1, 0)],
            vec![
                TransferRequest::new(FileId(2), d(0), d(1), 6.0, 1, 0),
                TransferRequest::new(FileId(3), d(0), d(1), 3.0, 1, 0),
            ],
        ];
        let mut chains = two_chains();
        let directives = SlotDirectives::plain(0);
        let solves = solve_parallel(&mut chains, &net, &ledger, &batches, &directives);
        assert_eq!(solves[1].admission.accepted().count(), 2, "optimism admits both");
        let resolved = reconcile(&net, &mut ledger, solves, &mut chains, &batches, &directives);
        assert_eq!(resolved[0].admission.accepted().copied().collect::<Vec<_>>(), batches[0]);
        assert!(resolved[1].conflicted);
        assert_eq!(resolved[1].admission.rejected, batches[1][..1]);
        assert_eq!(resolved[1].admission.accepted().copied().collect::<Vec<_>>(), batches[1][1..]);
        let mut replayed = TrafficLedger::new(2);
        for s in &resolved {
            for (files, decision) in &s.admission.commits {
                decision.apply_to_ledger(files, &mut replayed);
            }
        }
        assert_eq!(ledger, replayed, "every admitted decision is booked once");
        assert_eq!(ledger.volume(d(0), d(1), 0), 9.0);
    }
}
