//! The one place shard solves run in parallel: [`solve_parallel`] runs a
//! slot's per-shard admissions on scoped threads.
//!
//! Each shard runs the online controller's admission routine
//! ([`postcard_core::admit`]: whole-batch solve, then per-file admission in
//! arrival order on infeasibility) with its own [`FallbackChain`] on its
//! own copy of the central ledger as of the slot start, so it sees only
//! its own tentative commits. The central ledger is never touched from a
//! shard thread; the reconciler merges the tentative results afterwards in
//! fixed shard order, and re-solves a conflicting shard in place on the
//! calling thread with [`solve_shard`].
//!
//! The threads live for one slot: they borrow the chains, the network and
//! the base ledger from the caller and are joined in shard-index order
//! before [`solve_parallel`] returns, so thread *scheduling* affects only
//! wall-clock time, never the merged outcome.

use crate::clock::WallStopwatch;
use crate::fallback::{AttemptRecord, FallbackChain, TierKind};
use postcard_core::{admit, Admission, PostcardProblem};
use postcard_net::{Network, TrafficLedger, TransferRequest};

/// Per-slot solve directives shared by every shard of a slot: which slot
/// is being solved and the fault/re-optimization state that must apply
/// identically to the parallel solves and any conflict re-solve.
#[derive(Debug, Clone, Default)]
pub struct SlotDirectives {
    /// The slot being solved.
    pub slot: u64,
    /// Tiers fault injection forces to time out this slot.
    pub forced: Vec<TierKind>,
    /// Whether the ALAP fast-path rung is skipped (LP re-optimization slot).
    pub skip_alap: bool,
}

impl SlotDirectives {
    /// Directives for an unforced, fast-path-enabled slot.
    pub fn plain(slot: u64) -> Self {
        Self { slot, ..Self::default() }
    }
}

/// One shard's tentative (pre-reconciliation) slot result.
#[derive(Debug, Clone, Default)]
pub struct ShardSolve {
    /// The shard index.
    pub shard: usize,
    /// Size of the shard's batch this slot.
    pub batch_len: usize,
    /// The shard's admission, empty when the shard is degraded.
    pub admission: Admission,
    /// Tier attempts recorded while solving this shard (a conflict
    /// re-solve's attempts replace the optimistic solve's).
    pub records: Vec<AttemptRecord>,
    /// The tier that committed the shard's first decision (`None` when
    /// nothing was committed).
    pub chosen_tier: Option<TierKind>,
    /// The chain hard-failed; the shard committed nothing and its entries
    /// should be requeued.
    pub degraded: bool,
    /// Set by the reconciler when the optimistic solve over-committed a
    /// shared link and the shard was re-solved in place on the committed ledger.
    pub conflicted: bool,
    /// Human-readable conflict attribution (reconciler-filled).
    pub diagnostics: Vec<String>,
    /// Real wall-clock seconds this shard's solve took (non-deterministic;
    /// exported only through the wall-metrics registry).
    pub wall_seconds: f64,
}

/// Starts `chain`'s slot and admits one shard's batch onto `ledger`
/// through [`postcard_core::admit`], which books every admitted decision
/// there.
///
/// A hard scheduler error marks the shard degraded with an empty
/// admission: admission is all-or-nothing, so `ledger` is left as it was
/// and the runtime requeues the whole batch. An empty batch
/// starts the slot (so the chain's records are this slot's) but schedules
/// nothing. `built`, when given, is the Postcard problem already built and
/// checked for `batch` on `network` and `ledger`; it is handed to the chain
/// once the slot has started (see [`FallbackChain::hand_over`]).
pub fn solve_shard(
    chain: &mut FallbackChain,
    shard: usize,
    network: &Network,
    ledger: &mut TrafficLedger,
    batch: &[TransferRequest],
    directives: &SlotDirectives,
    built: Option<PostcardProblem>,
) -> ShardSolve {
    let started = WallStopwatch::start();
    chain.begin_slot(directives.slot, directives.forced.clone());
    chain.set_skip_alap(directives.skip_alap);
    if let Some(problem) = built {
        chain.hand_over(problem);
    }
    let mut solve = ShardSolve { shard, batch_len: batch.len(), ..ShardSolve::default() };
    if batch.is_empty() {
        return solve;
    }
    match admit(chain, network, batch, ledger) {
        Ok(admission) => {
            solve.admission = admission;
            solve.chosen_tier = chain.chosen_tier();
        }
        Err(_) => solve.degraded = true,
    }
    solve.records = chain.records().to_vec();
    solve.wall_seconds = started.elapsed_secs();
    solve
}

/// Solves every shard whose batch is non-empty on its own scoped thread,
/// each admitting onto its own copy of `base` with its own chain
/// (`chains[i]` solves `batches[i]`). The threads are joined in shard
/// order, so the results come back in shard order whatever the thread
/// timing; a shard thread's panic is re-raised here, so a poisoned slot is
/// never merged. An empty batch spawns nothing: its shard's result is empty
/// and its chain's records stay those of an earlier slot.
pub fn solve_parallel(
    chains: &mut [FallbackChain],
    network: &Network,
    base: &TrafficLedger,
    batches: &[Vec<TransferRequest>],
    directives: &SlotDirectives,
) -> Vec<ShardSolve> {
    assert_eq!(chains.len(), batches.len(), "one batch per shard");
    std::thread::scope(|scope| {
        let threads: Vec<_> = chains
            .iter_mut()
            .zip(batches)
            .enumerate()
            .map(|(shard, (chain, batch))| {
                (!batch.is_empty()).then(|| {
                    scope.spawn(move || {
                        // Other shards (and the reconciler) commit to the
                        // central ledger behind this chain's ALAP residual
                        // grid; rebase it from `base` every slot.
                        chain.mark_alap_dirty();
                        let mut overlay = base.clone();
                        solve_shard(chain, shard, network, &mut overlay, batch, directives, None)
                    })
                })
            })
            .collect();
        threads
            .into_iter()
            .enumerate()
            .map(|(shard, thread)| match thread {
                Some(thread) => thread.join().unwrap_or_else(|p| std::panic::resume_unwind(p)),
                None => ShardSolve { shard, ..ShardSolve::default() },
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use postcard_net::{DcId, FileId, NetworkBuilder};

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    /// Two disjoint 2-DC clusters.
    fn net() -> Network {
        NetworkBuilder::new(4).link(d(0), d(1), 2.0, 100.0).link(d(2), d(3), 3.0, 100.0).build()
    }

    fn chain() -> FallbackChain {
        FallbackChain::new(&RuntimeConfig::default())
    }

    #[test]
    fn parallel_solves_match_sequential_solves_bit_for_bit() {
        let net = net();
        let base = TrafficLedger::new(4);
        let batches = vec![
            vec![TransferRequest::new(FileId(1), d(0), d(1), 6.0, 3, 0)],
            vec![TransferRequest::new(FileId(2), d(2), d(3), 9.0, 3, 0)],
        ];
        let mut chains_a = [chain(), chain()];
        let mut chains_b = [chain(), chain()];
        let par = solve_parallel(&mut chains_a, &net, &base, &batches, &SlotDirectives::plain(0));
        let seq: Vec<_> = chains_b
            .iter_mut()
            .zip(&batches)
            .enumerate()
            .map(|(i, (c, b))| {
                solve_shard(c, i, &net, &mut base.clone(), b, &SlotDirectives::plain(0), None)
            })
            .collect();
        assert_eq!(par.len(), 2);
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.admission, s.admission, "decisions must be bit-identical");
        }
        assert_eq!(base, TrafficLedger::new(4), "the base ledger is only read");
    }

    #[test]
    fn consecutive_slots_match_sequential_solves_on_one_chain() {
        // Two slots through the same chain must match two sequential
        // solve_shard calls on one chain.
        let net = net();
        let slot0 = vec![vec![TransferRequest::new(FileId(1), d(0), d(1), 6.0, 3, 0)]];
        let slot1 = vec![vec![TransferRequest::new(FileId(2), d(0), d(1), 4.0, 3, 1)]];
        let mut chains = [chain()];
        let mut c = chain();
        let mut ledger = TrafficLedger::new(4);
        let p0 = solve_parallel(&mut chains, &net, &ledger, &slot0, &SlotDirectives::plain(0));
        let s0 =
            solve_shard(&mut c, 0, &net, &mut ledger, &slot0[0], &SlotDirectives::plain(0), None);
        assert_eq!(p0[0].admission, s0.admission);
        // `ledger` now holds slot 0's booked traffic.
        let p1 = solve_parallel(&mut chains, &net, &ledger, &slot1, &SlotDirectives::plain(1));
        let s1 =
            solve_shard(&mut c, 0, &net, &mut ledger, &slot1[0], &SlotDirectives::plain(1), None);
        assert_eq!(p1[0].admission, s1.admission, "second-slot decisions must be bit-identical");
    }

    #[test]
    fn empty_shard_batches_spawn_nothing() {
        let net = net();
        let base = TrafficLedger::new(4);
        let batches = vec![Vec::new(), Vec::new()];
        let mut chains = [chain(), chain()];
        let solves = solve_parallel(&mut chains, &net, &base, &batches, &SlotDirectives::plain(0));
        assert!(solves.iter().all(|s| s.admission.commits.is_empty() && s.records.is_empty()));
        assert!(solves.iter().all(|s| !s.degraded));
        assert_eq!(solves.iter().map(|s| s.shard).collect::<Vec<_>>(), [0, 1]);
        assert!(chains.iter().all(|c| c.records().is_empty()), "no slot was started");
    }

    #[test]
    fn a_shard_thread_panic_is_re_raised_on_the_caller() {
        // A base ledger over fewer datacenters than the network: reading a
        // link's booked volume off it indexes out of bounds on the shard
        // thread.
        let net = net();
        let base = TrafficLedger::new(1);
        let batches =
            vec![Vec::new(), vec![TransferRequest::new(FileId(2), d(2), d(3), 9.0, 3, 0)]];
        let mut chains = [chain(), chain()];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solve_parallel(&mut chains, &net, &base, &batches, &SlotDirectives::plain(0))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn per_file_admission_rejects_only_the_oversized_file() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let mut ledger = TrafficLedger::new(2);
        let batch = vec![
            TransferRequest::new(FileId(1), d(0), d(1), 10.0, 1, 0), // can never fit
            TransferRequest::new(FileId(2), d(0), d(1), 2.0, 1, 0),
        ];
        let mut c = chain();
        let solve =
            solve_shard(&mut c, 0, &net, &mut ledger, &batch, &SlotDirectives::plain(0), None);
        assert_eq!(solve.admission.rejected, batch[..1]);
        assert_eq!(solve.admission.accepted().copied().collect::<Vec<_>>(), batch[1..]);
        assert!(!solve.degraded);
        assert_eq!(ledger.volume(d(0), d(1), 0), 2.0, "the admitted file is booked");
    }

    #[test]
    fn hard_failure_degrades_the_shard_and_commits_nothing() {
        // Datacenter 7 does not exist: the postcard-only chain hard-fails.
        let net = net();
        let mut ledger = TrafficLedger::new(4);
        let batch = vec![TransferRequest::new(FileId(1), DcId(7), d(1), 1.0, 2, 0)];
        let mut c = FallbackChain::new(&RuntimeConfig {
            tiers: vec![TierKind::Postcard],
            ..Default::default()
        });
        let solve =
            solve_shard(&mut c, 0, &net, &mut ledger, &batch, &SlotDirectives::plain(0), None);
        assert!(solve.degraded);
        assert_eq!(solve.admission, Admission::default());
        assert_eq!(ledger, TrafficLedger::new(4));
        assert_eq!(solve.chosen_tier, None);
    }
}
