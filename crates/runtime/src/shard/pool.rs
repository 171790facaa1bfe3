//! The `std::thread` worker pool running per-shard solves in parallel.
//!
//! Each shard's worker runs the online controller's admission routine
//! ([`postcard_core::admit`]: whole-batch solve, then per-file admission in
//! arrival order on infeasibility) on its own copy of the central ledger
//! as of the slot start, so it sees only its own tentative commits. The
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
use postcard_core::{admit, Admission};
use postcard_net::{Network, TrafficLedger, TransferRequest};
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
    /// shared link and the shard was re-solved serially.
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
/// nothing.
pub fn solve_shard(
    chain: &mut FallbackChain,
    shard: usize,
    network: &Network,
    ledger: &mut TrafficLedger,
    batch: &[TransferRequest],
    directives: &SlotDirectives,
) -> ShardSolve {
    let started = WallStopwatch::start();
    chain.begin_slot(directives.slot, directives.forced.clone());
    chain.set_skip_alap(directives.skip_alap);
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

/// One slot's worth of work for a single shard worker. The network is the
/// controller's own shared handle and the base ledger is shared across the
/// slot's jobs, both via [`Arc`]; each worker admits onto its own copy of
/// the base.
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
            while let Ok(Job { network, base, batch, directives }) = job_rx.recv() {
                // Other shards (and the reconciler) commit to the central
                // ledger behind this chain's ALAP residual grid; rebase it
                // from the job's ledger every time.
                chain.mark_alap_dirty();
                let mut overlay = Arc::unwrap_or_clone(base);
                let solve =
                    solve_shard(&mut chain, shard, &network, &mut overlay, &batch, &directives);
                // Let go of the shared network before answering, so a fault
                // the runtime applies next slot edits it in place.
                drop(network);
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
        network: &Arc<Network>,
        base: &TrafficLedger,
        batches: &[Vec<TransferRequest>],
        directives: &SlotDirectives,
    ) -> Vec<ShardSolve> {
        assert_eq!(self.workers.len(), batches.len(), "one batch per shard");
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
                    network: Arc::clone(network),
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
            .map(|(shard, sent)| {
                if sent {
                    self.workers[shard].take()
                } else {
                    ShardSolve { shard, ..ShardSolve::default() }
                }
            })
            .collect()
    }

    /// Runs one shard's solve on its own worker and blocks for the result —
    /// the reconciler's serial conflict re-solve path. The job still runs on
    /// the worker thread, so each chain is only ever used on its own thread.
    pub fn solve_one(
        &mut self,
        shard: usize,
        network: &Arc<Network>,
        base: &TrafficLedger,
        batch: &[TransferRequest],
        directives: &SlotDirectives,
    ) -> ShardSolve {
        self.workers[shard].post(Job {
            network: Arc::clone(network),
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
    use crate::runtime::RuntimeConfig;
    use postcard_net::{DcId, FileId, NetworkBuilder};

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    /// Two disjoint 2-DC clusters.
    fn net() -> Arc<Network> {
        Arc::new(
            NetworkBuilder::new(4)
                .link(d(0), d(1), 2.0, 100.0)
                .link(d(2), d(3), 3.0, 100.0)
                .build(),
        )
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
        let mut pool = WorkerPool::new(vec![chain(), chain()]);
        let mut chains_b = [chain(), chain()];
        let par = pool.solve_parallel(&net, &base, &batches, &SlotDirectives::plain(0));
        let seq: Vec<_> = chains_b
            .iter_mut()
            .zip(&batches)
            .enumerate()
            .map(|(i, (c, b))| {
                solve_shard(c, i, &net, &mut base.clone(), b, &SlotDirectives::plain(0))
            })
            .collect();
        assert_eq!(par.len(), 2);
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.admission, s.admission, "decisions must be bit-identical");
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
        let mut c = chain();
        let mut ledger = base.clone();
        let p0 = pool.solve_parallel(&net, &ledger, &slot0, &SlotDirectives::plain(0));
        let s0 = solve_shard(&mut c, 0, &net, &mut ledger, &slot0[0], &SlotDirectives::plain(0));
        assert_eq!(p0[0].admission, s0.admission);
        // `ledger` now holds slot 0's booked traffic.
        let p1 = pool.solve_parallel(&net, &ledger, &slot1, &SlotDirectives::plain(1));
        let s1 = solve_shard(&mut c, 0, &net, &mut ledger, &slot1[0], &SlotDirectives::plain(1));
        assert_eq!(p1[0].admission, s1.admission, "second-slot decisions must be bit-identical");
    }

    #[test]
    fn empty_shard_batches_skip_the_workers() {
        let net = net();
        let base = TrafficLedger::new(4);
        let batches = vec![Vec::new(), Vec::new()];
        let mut pool = WorkerPool::new(vec![chain(), chain()]);
        let solves = pool.solve_parallel(&net, &base, &batches, &SlotDirectives::plain(0));
        assert!(solves.iter().all(|s| s.admission.commits.is_empty() && s.records.is_empty()));
        assert!(solves.iter().all(|s| !s.degraded));
    }

    #[test]
    fn solve_one_reuses_the_shard_worker() {
        let net = net();
        let base = TrafficLedger::new(4);
        let batch = vec![TransferRequest::new(FileId(1), d(0), d(1), 6.0, 3, 0)];
        let mut pool = WorkerPool::new(vec![chain(), chain()]);
        let solo = pool.solve_one(0, &net, &base, &batch, &SlotDirectives::plain(0));
        assert_eq!(solo.admission.accepted().copied().collect::<Vec<_>>(), batch);
        assert!(!solo.degraded);
        // The same worker answers subsequent requests.
        let again = pool.solve_one(0, &net, &base, &batch, &SlotDirectives::plain(1));
        assert_eq!(again.admission.accepted().copied().collect::<Vec<_>>(), batch);
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
        let solve = solve_shard(&mut c, 0, &net, &mut ledger, &batch, &SlotDirectives::plain(0));
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
        let solve = solve_shard(&mut c, 0, &net, &mut ledger, &batch, &SlotDirectives::plain(0));
        assert!(solve.degraded);
        assert_eq!(solve.admission, Admission::default());
        assert_eq!(ledger, TrafficLedger::new(4));
        assert_eq!(solve.chosen_tier, None);
    }
}
