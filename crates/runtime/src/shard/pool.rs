//! The `std::thread` worker pool running per-shard solves in parallel.
//!
//! Each shard's worker replays the online controller's step semantics —
//! whole-batch solve, then per-file admission in arrival order on
//! infeasibility — against an *overlay* ledger: a clone of the central
//! ledger that accumulates only this shard's own tentative commits. The
//! central ledger is never touched from a worker thread; the reconciler
//! merges tentative results afterwards in fixed shard order.
//!
//! Workers are **long-lived**: [`WorkerPool::new`] moves each shard's
//! [`FallbackChain`] onto its own thread once, and every slot's work is fed
//! over a per-worker job channel. That keeps each chain, with its
//! schedulers and their allocations, on one thread for the whole run
//! instead of re-lending it through scoped borrows each slot. Results are
//! collected from the per-worker result channels in shard-index order, so
//! thread *scheduling* affects only wall-clock time, never the merged
//! outcome. The reconciler's serial
//! conflict re-solves go through [`WorkerPool::solve_one`], which posts a
//! job to the owning worker and blocks for its answer — same chain, same
//! thread, deterministic position in the merge order.
//!
//! Shutdown is channel-driven: dropping the pool drops every job sender,
//! each worker's receive loop ends, and the threads are joined.

use crate::clock::WallStopwatch;
use crate::fallback::{AttemptRecord, FallbackChain, TierKind};
use postcard_core::{Decision, PostcardError, Scheduler};
use postcard_net::{FileId, Network, TrafficLedger, TransferRequest};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Per-slot solve directives shared by every shard of a slot: which slot
/// is being solved and the fault/re-optimization state that must apply
/// identically to the parallel solves and any serial conflict re-solve.
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
#[derive(Debug, Clone)]
pub struct ShardSolve {
    /// The shard index.
    pub shard: usize,
    /// Size of the shard's batch this slot.
    pub batch_len: usize,
    /// Tentative commits: each decision with the files it serves, in
    /// commit order.
    pub commits: Vec<(Vec<TransferRequest>, Decision)>,
    /// Files admitted, in batch order.
    pub accepted: Vec<FileId>,
    /// Files rejected, in batch order.
    pub rejected: Vec<FileId>,
    /// Admitted volume (GB).
    pub accepted_volume: f64,
    /// Rejected volume (GB).
    pub rejected_volume: f64,
    /// Tier attempts recorded while solving this shard (re-solve attempts
    /// are appended by the reconciler).
    pub records: Vec<AttemptRecord>,
    /// The tier that committed the shard's first decision.
    pub chosen_tier: Option<TierKind>,
    /// The chain hard-failed; the shard committed nothing and its entries
    /// should be requeued.
    pub degraded: bool,
    /// Set by the reconciler when the optimistic solve over-committed a
    /// shared link and the shard was re-solved serially.
    pub conflicted: bool,
    /// Human-readable conflict attribution (reconciler-filled).
    pub diagnostics: Vec<String>,
    /// Real wall-clock seconds this shard's solve took (non-deterministic;
    /// exported only through the wall-metrics registry).
    pub wall_seconds: f64,
}

impl ShardSolve {
    fn empty(shard: usize) -> Self {
        Self {
            shard,
            batch_len: 0,
            commits: Vec::new(),
            accepted: Vec::new(),
            rejected: Vec::new(),
            accepted_volume: 0.0,
            rejected_volume: 0.0,
            records: Vec::new(),
            chosen_tier: None,
            degraded: false,
            conflicted: false,
            diagnostics: Vec::new(),
            wall_seconds: 0.0,
        }
    }
}

/// Applies a tentative decision to the overlay ledger.
fn apply_overlay(decision: &Decision, files: &[TransferRequest], overlay: &mut TrafficLedger) {
    match decision {
        Decision::Plan(plan) => plan.apply_to_ledger(overlay),
        Decision::Rates(rates) => rates.apply_to_ledger(files, overlay),
    }
}

/// Solves one shard's batch against `base`, mirroring
/// [`postcard_core::OnlineController::step`]'s admission semantics on an
/// overlay ledger.
///
/// On a non-infeasible scheduler error the shard is marked degraded and
/// commits nothing — unlike the unsharded step, no partial per-file commits
/// survive, because the overlay is scratch state. The runtime requeues the
/// whole shard batch, exactly as it requeues a degraded unsharded slot.
pub fn solve_shard(
    chain: &mut FallbackChain,
    shard: usize,
    network: &Network,
    base: &TrafficLedger,
    batch: &[TransferRequest],
    directives: &SlotDirectives,
) -> ShardSolve {
    let mut solve = ShardSolve::empty(shard);
    solve.batch_len = batch.len();
    if batch.is_empty() {
        return solve;
    }
    let started = WallStopwatch::start();
    // Other shards (and the reconciler) commit to the central ledger behind
    // this chain's ALAP residual grid; rebase it from `base` every slot.
    chain.mark_alap_dirty();
    chain.begin_slot(directives.slot, directives.forced.clone());
    chain.set_skip_alap(directives.skip_alap);

    let mut overlay = base.clone();
    match chain.schedule(network, batch, &overlay) {
        Ok(decision) => {
            apply_overlay(&decision, batch, &mut overlay);
            solve.accepted.extend(batch.iter().map(|f| f.id));
            solve.accepted_volume = batch.iter().map(|f| f.size_gb).sum();
            solve.commits.push((batch.to_vec(), decision));
        }
        Err(PostcardError::Infeasible) => {
            // Per-file admission in arrival order, each success committed to
            // the overlay before the next attempt — the controller's exact
            // semantics.
            for f in batch {
                let single = [*f];
                match chain.schedule(network, &single, &overlay) {
                    Ok(decision) => {
                        apply_overlay(&decision, &single, &mut overlay);
                        solve.accepted.push(f.id);
                        solve.accepted_volume += f.size_gb;
                        solve.commits.push((single.to_vec(), decision));
                    }
                    Err(PostcardError::Infeasible) => {
                        solve.rejected.push(f.id);
                        solve.rejected_volume += f.size_gb;
                    }
                    Err(_) => {
                        solve.degraded = true;
                        break;
                    }
                }
            }
        }
        Err(_) => solve.degraded = true,
    }
    if solve.degraded {
        // Tentative state is scratch: a degraded shard contributes nothing.
        solve.commits.clear();
        solve.accepted.clear();
        solve.rejected.clear();
        solve.accepted_volume = 0.0;
        solve.rejected_volume = 0.0;
    }
    solve.records = chain.records().to_vec();
    solve.chosen_tier = chain.chosen_tier();
    solve.wall_seconds = started.elapsed_secs();
    solve
}

/// One slot's worth of work for a single shard worker. The network and
/// base ledger are shared across the slot's jobs via [`Arc`]; the worker
/// clones its own overlay from `base` exactly as the scoped version did.
struct Job {
    network: Arc<Network>,
    base: Arc<TrafficLedger>,
    batch: Vec<TransferRequest>,
    directives: SlotDirectives,
}

/// A long-lived shard worker: owns its [`FallbackChain`] on a dedicated
/// thread and answers one [`ShardSolve`] per [`Job`].
#[derive(Debug)]
struct Worker {
    /// `None` only during teardown — dropping the sender ends the worker's
    /// receive loop.
    jobs: Option<mpsc::Sender<Job>>,
    results: mpsc::Receiver<ShardSolve>,
    handle: Option<JoinHandle<()>>,
}

impl Worker {
    fn spawn(shard: usize, mut chain: FallbackChain) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (result_tx, result_rx) = mpsc::channel::<ShardSolve>();
        let handle = std::thread::spawn(move || {
            while let Ok(job) = job_rx.recv() {
                let solve = solve_shard(
                    &mut chain,
                    shard,
                    &job.network,
                    &job.base,
                    &job.batch,
                    &job.directives,
                );
                if result_tx.send(solve).is_err() {
                    // The pool is gone; nothing left to answer to.
                    break;
                }
            }
        });
        Self { jobs: Some(job_tx), results: result_rx, handle: Some(handle) }
    }

    fn post(&self, job: Job) {
        if let Some(jobs) = &self.jobs {
            // A failed send means the worker thread is gone; the paired
            // `take()` surfaces its panic when the result is drained.
            let _ = jobs.send(job);
        }
    }

    fn take(&mut self) -> ShardSolve {
        match self.results.recv() {
            Ok(solve) => solve,
            Err(_) => {
                // The worker died mid-job. Re-raise its panic on the runtime
                // thread — a poisoned slot must not be partially merged.
                if let Some(handle) = self.handle.take() {
                    if let Err(payload) = handle.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
                // postcard-analyze: allow(PA103) — unreachable unless the
                // worker leaked its result channel and exited cleanly; a
                // silent Ok here would merge a slot that was never solved.
                panic!("shard worker exited without a result");
            }
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Hang up the job channel first so the receive loop ends…
        self.jobs = None;
        // …then reap the thread. A panic payload is deliberately swallowed
        // here: either `take()` already re-raised it, or the pool itself is
        // being dropped during unwinding and a double panic would abort.
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The set of long-lived shard workers, one per shard, each owning its
/// shard's [`FallbackChain`] for the lifetime of the run.
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Spawns one persistent worker per chain; `chains[i]` becomes shard
    /// `i`'s solver state and lives on that worker's thread until the pool
    /// is dropped.
    pub fn new(chains: Vec<FallbackChain>) -> Self {
        Self {
            workers: chains
                .into_iter()
                .enumerate()
                .map(|(shard, chain)| Worker::spawn(shard, chain))
                .collect(),
        }
    }

    /// Number of shard workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// `true` when the pool has no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Posts every non-empty shard batch to its worker, then collects the
    /// results in shard-index order. Empty batches never cross a channel:
    /// the slot stays cheap and the shard's records stay empty, exactly as
    /// the old spawn-skip did.
    pub fn solve_parallel(
        &mut self,
        network: &Network,
        base: &TrafficLedger,
        batches: &[Vec<TransferRequest>],
        directives: &SlotDirectives,
    ) -> Vec<ShardSolve> {
        assert_eq!(self.workers.len(), batches.len(), "one batch per shard");
        let network = Arc::new(network.clone());
        let base = Arc::new(base.clone());
        // Fan the whole slot out first so the workers run concurrently…
        let posted: Vec<bool> = batches
            .iter()
            .enumerate()
            .map(|(shard, batch)| {
                if batch.is_empty() {
                    return false;
                }
                self.workers[shard].post(Job {
                    network: Arc::clone(&network),
                    base: Arc::clone(&base),
                    batch: batch.clone(),
                    directives: directives.clone(),
                });
                true
            })
            .collect();
        // …then drain in shard-index order for a deterministic merge.
        posted
            .into_iter()
            .enumerate()
            .map(
                |(shard, sent)| {
                    if sent {
                        self.workers[shard].take()
                    } else {
                        ShardSolve::empty(shard)
                    }
                },
            )
            .collect()
    }

    /// Runs one shard's solve on its own worker and blocks for the result —
    /// the reconciler's serial conflict re-solve path. The job still runs on
    /// the worker thread, so each chain is only ever used on its own thread.
    pub fn solve_one(
        &mut self,
        shard: usize,
        network: &Network,
        base: &TrafficLedger,
        batch: &[TransferRequest],
        directives: &SlotDirectives,
    ) -> ShardSolve {
        self.workers[shard].post(Job {
            network: Arc::new(network.clone()),
            base: Arc::new(base.clone()),
            batch: batch.to_vec(),
            directives: directives.clone(),
        });
        self.workers[shard].take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use postcard_net::{ChargingScheme, DcId, NetworkBuilder};
    use std::time::Duration;

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    /// Two disjoint 2-DC clusters.
    fn net() -> Network {
        NetworkBuilder::new(4).link(d(0), d(1), 2.0, 100.0).link(d(2), d(3), 3.0, 100.0).build()
    }

    fn chain() -> FallbackChain {
        FallbackChain::new(
            &TierKind::default_chain(),
            Duration::from_millis(250),
            Box::new(SimClock::new()),
            ChargingScheme::MaxPerSlot,
        )
    }

    #[test]
    fn parallel_solves_match_sequential_solves_bit_for_bit() {
        let net = net();
        let base = TrafficLedger::new(4);
        let batches = vec![
            vec![TransferRequest::new(FileId(1), d(0), d(1), 6.0, 3, 0)],
            vec![TransferRequest::new(FileId(2), d(2), d(3), 9.0, 3, 0)],
        ];
        let mut pool = WorkerPool::new(vec![chain(), chain()]);
        let mut chains_b = [chain(), chain()];
        let par = pool.solve_parallel(&net, &base, &batches, &SlotDirectives::plain(0));
        let seq: Vec<_> = chains_b
            .iter_mut()
            .zip(&batches)
            .enumerate()
            .map(|(i, (c, b))| solve_shard(c, i, &net, &base, b, &SlotDirectives::plain(0)))
            .collect();
        assert_eq!(par.len(), 2);
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.accepted, s.accepted);
            assert_eq!(p.rejected, s.rejected);
            assert_eq!(p.commits.len(), s.commits.len());
            for ((pf, pd), (sf, sd)) in p.commits.iter().zip(&s.commits) {
                assert_eq!(pf, sf);
                assert_eq!(pd, sd, "decisions must be bit-identical");
            }
        }
    }

    #[test]
    fn workers_persist_chain_state_across_slots() {
        // Two slots through the same pool must match two sequential
        // solve_shard calls on one chain: proof the worker kept its chain
        // alive between slots instead of resetting it.
        let net = net();
        let base = TrafficLedger::new(4);
        let slot0 = vec![vec![TransferRequest::new(FileId(1), d(0), d(1), 6.0, 3, 0)]];
        let slot1 = vec![vec![TransferRequest::new(FileId(2), d(0), d(1), 4.0, 3, 1)]];
        let mut pool = WorkerPool::new(vec![chain()]);
        let p0 = pool.solve_parallel(&net, &base, &slot0, &SlotDirectives::plain(0));
        let mut after = base.clone();
        for (files, decision) in &p0[0].commits {
            apply_overlay(decision, files, &mut after);
        }
        let p1 = pool.solve_parallel(&net, &after, &slot1, &SlotDirectives::plain(1));

        let mut c = chain();
        let s0 = solve_shard(&mut c, 0, &net, &base, &slot0[0], &SlotDirectives::plain(0));
        let s1 = solve_shard(&mut c, 0, &net, &after, &slot1[0], &SlotDirectives::plain(1));
        assert_eq!(p0[0].accepted, s0.accepted);
        assert_eq!(p1[0].accepted, s1.accepted);
        for ((pf, pd), (sf, sd)) in p1[0].commits.iter().zip(&s1.commits) {
            assert_eq!(pf, sf);
            assert_eq!(pd, sd, "second-slot decisions must be bit-identical");
        }
    }

    #[test]
    fn empty_shard_batches_skip_the_workers() {
        let net = net();
        let base = TrafficLedger::new(4);
        let batches = vec![Vec::new(), Vec::new()];
        let mut pool = WorkerPool::new(vec![chain(), chain()]);
        let solves = pool.solve_parallel(&net, &base, &batches, &SlotDirectives::plain(0));
        assert!(solves.iter().all(|s| s.commits.is_empty() && s.records.is_empty()));
        assert!(solves.iter().all(|s| !s.degraded));
    }

    #[test]
    fn solve_one_reuses_the_shard_worker() {
        let net = net();
        let base = TrafficLedger::new(4);
        let batch = vec![TransferRequest::new(FileId(1), d(0), d(1), 6.0, 3, 0)];
        let mut pool = WorkerPool::new(vec![chain(), chain()]);
        let solo = pool.solve_one(0, &net, &base, &batch, &SlotDirectives::plain(0));
        assert_eq!(solo.accepted, vec![FileId(1)]);
        assert!(!solo.degraded);
        // The same worker answers subsequent requests.
        let again = pool.solve_one(0, &net, &base, &batch, &SlotDirectives::plain(1));
        assert_eq!(again.accepted, vec![FileId(1)]);
    }

    #[test]
    fn per_file_admission_rejects_only_the_oversized_file() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let base = TrafficLedger::new(2);
        let batch = vec![
            TransferRequest::new(FileId(1), d(0), d(1), 10.0, 1, 0), // can never fit
            TransferRequest::new(FileId(2), d(0), d(1), 2.0, 1, 0),
        ];
        let mut c = chain();
        let solve = solve_shard(&mut c, 0, &net, &base, &batch, &SlotDirectives::plain(0));
        assert_eq!(solve.rejected, vec![FileId(1)]);
        assert_eq!(solve.accepted, vec![FileId(2)]);
        assert_eq!(solve.accepted_volume, 2.0);
        assert_eq!(solve.rejected_volume, 10.0);
        assert!(!solve.degraded);
    }

    #[test]
    fn hard_failure_degrades_the_shard_and_commits_nothing() {
        // Datacenter 7 does not exist: the postcard-only chain hard-fails.
        let net = net();
        let base = TrafficLedger::new(4);
        let batch = vec![TransferRequest::new(FileId(1), DcId(7), d(1), 1.0, 2, 0)];
        let mut c = FallbackChain::new(
            &[TierKind::Postcard],
            Duration::from_millis(250),
            Box::new(SimClock::new()),
            ChargingScheme::MaxPerSlot,
        );
        let solve = solve_shard(&mut c, 0, &net, &base, &batch, &SlotDirectives::plain(0));
        assert!(solve.degraded);
        assert!(solve.commits.is_empty() && solve.accepted.is_empty());
    }
}
