//! The slot-driven controller service.
//!
//! [`Runtime`] wires everything together: each slot it (1) applies scheduled
//! link degradations (capacity 0 models a full outage), (2) offers the
//! slot's arrivals to the bounded admission queue and drains the backlog
//! that is still within deadline, (3) arms forced solver timeouts and drives
//! the online controller through the fallback chain, (4) records metrics,
//! and (5) checkpoints every `checkpoint_every` slots. A slot is *never*
//! missed: the chain's final tier always commits, and if even that tier
//! hard-fails the slot commits nothing for the failed shard but still
//! records its bill, so the cost history stays slot-aligned (the slot is
//! counted as degraded).
//!
//! There is one step path. Each slot's batch is split into shards; with
//! one shard (the default) that shard is the controller's own fallback
//! chain, which books its admission onto the committed ledger in place,
//! and with more the shards solve in parallel and merge through the
//! reconciler, which books the merged shards onto the committed ledger
//! (see [`crate::shard`]). Either way the slot ends in one requeue, one
//! controller step ([`OnlineController::record_booked`]) and one metrics
//! record.
//!
//! Batches a slot could not schedule — strict analysis rejected them for
//! transient reasons, or the whole chain hard-failed — are *not* thrown
//! away: they go back to the front of the backlog and retry in a later slot
//! (the run horizon extends to give them one), each request at most
//! [`RuntimeConfig::max_requeue_attempts`] times before it counts as lost.
//! Requests whose deadline passes while queued are evicted at the next
//! drain (`backlog_expired`). Carried requests are re-stamped at drain time
//! so their *absolute* deadline is preserved (see
//! [`postcard_net::TransferRequest::carried_to`]).
//!
//! With [`ClockKind::Sim`] the whole service is deterministic, so killing a
//! run at any checkpoint and resuming with [`Runtime::resume`] reproduces
//! the uninterrupted run bit for bit — the property the integration tests
//! assert. Under [`ClockKind::Wall`] budget decisions depend on real solve
//! times and resume is best-effort.

use crate::clock::{ClockKind, WallStopwatch};
use crate::fallback::{AttemptOutcome, AttemptRecord, FallbackChain, TierKind};
use crate::faults::{FaultPlan, LinkDegradation};
use crate::metrics::MetricsRegistry;
use crate::queue::{AdmissionQueue, QueuedRequest};
use crate::shard::pool::{solve_parallel, solve_shard};
use crate::shard::reconcile::reconcile;
use crate::shard::{ShardBy, ShardPlanner, ShardSolve, SlotDirectives};
use crate::snapshot::{RuntimeSnapshot, SNAPSHOT_VERSION};
use postcard_analyze::check_problem;
use postcard_core::{build_postcard_problem, OnlineController, PostcardConfig, StepReport};
use postcard_net::{ChargingScheme, DcId, Network, Trace, TransferRequest};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Configuration of a [`Runtime`] (serialized into snapshots).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Fallback tiers, strongest first.
    pub tiers: Vec<TierKind>,
    /// Per-slot solve budget in microseconds.
    pub slot_budget_us: u64,
    /// Checkpoint every this many slots (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// Where checkpoints are written (required when `checkpoint_every > 0`).
    pub checkpoint_path: Option<String>,
    /// Admission queue capacity: bounds the total *queued* backlog, not
    /// per-slot arrivals — carried-over work eats into the room for new
    /// arrivals.
    pub queue_capacity: usize,
    /// How many times an unscheduled batch entry is requeued before it
    /// counts as lost (0 restores drop-on-failure behavior).
    pub max_requeue_attempts: u32,
    /// Which clock measures the solve budget.
    pub clock: ClockKind,
    /// Run `postcard-analyze`'s structural checks on every slot's problem
    /// before solving; batches whose problem has error-level findings are
    /// dropped (counted in the `analysis_rejections` metric) instead of
    /// being handed to the solver.
    pub strict_analysis: bool,
    /// Put the ALAP fast-path admission rung ahead of the LP tiers:
    /// [`Runtime::new`] prepends [`TierKind::Alap`] to `tiers` (idempotent
    /// if it is already listed). Each request is then admitted or rejected
    /// against the residual grid on its pair's cached cheapest paths, with
    /// no LP solve.
    pub alap: bool,
    /// With the ALAP rung enabled, run the full LP re-optimization pass
    /// every this many slots (the ALAP rung is skipped there and the
    /// residual grid rebased from the LP's committed schedule). 0 disables
    /// periodic re-optimization.
    pub reopt_every: u64,
    /// Number of shards. With 1 (the default) the controller's own chain
    /// is the one shard, solved in place; above 1 each slot's batch is
    /// partitioned by [`Self::shard_by`] and the shards solve in parallel,
    /// merged deterministically by the reconciler (see [`crate::shard`]).
    pub shards: usize,
    /// The partition key for sharded runs (ignored when `shards == 1`).
    pub shard_by: ShardBy,
    /// How the provider is billed. `MaxPerSlot` (the default) reproduces the
    /// paper's running-peak objective bit for bit. A `Percentile` scheme
    /// prices the cost history per billing window and makes [`Runtime::new`]
    /// prepend the [`TierKind::Headroom`] rung, which serves bursts out of
    /// each window's free top-`(100−q)%` slots (CLI: `--charging p95:288`).
    /// Adding this field is a snapshot format break (the vendored serde shim
    /// treats missing fields as errors), hence snapshot v8.
    pub charging: ChargingScheme,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            tiers: TierKind::default_chain(),
            slot_budget_us: 250_000,
            checkpoint_every: 0,
            checkpoint_path: None,
            queue_capacity: 1024,
            max_requeue_attempts: 2,
            clock: ClockKind::Sim,
            strict_analysis: false,
            alap: false,
            reopt_every: 0,
            shards: 1,
            shard_by: ShardBy::Tenant,
            charging: ChargingScheme::MaxPerSlot,
        }
    }
}

impl RuntimeConfig {
    /// The per-slot solve budget as a [`Duration`].
    pub fn slot_budget(&self) -> Duration {
        Duration::from_micros(self.slot_budget_us)
    }

    /// The first *scheduling* tier: the first one that is not the headroom
    /// rung, which only serves bursts out of free slots and declines
    /// otherwise (the first tier if every tier is the headroom rung).
    ///
    /// # Panics
    ///
    /// Panics on an empty tier list, which [`Runtime::new`] rejects.
    pub fn first_scheduling_tier(&self) -> TierKind {
        self.tiers.iter().copied().find(|t| *t != TierKind::Headroom).unwrap_or(self.tiers[0])
    }

    /// Whether `slot` is a scheduled LP re-optimization: the ALAP rung is
    /// the first scheduling tier and `slot` is a nonzero multiple of
    /// [`Self::reopt_every`] (never with `reopt_every == 0`).
    pub fn is_reopt_slot(&self, slot: u64) -> bool {
        self.reopt_every > 0
            && slot > 0
            && slot.is_multiple_of(self.reopt_every)
            && self.first_scheduling_tier() == TierKind::Alap
    }
}

/// Errors a running service can hit.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Snapshot load/save or other I/O failure.
    Snapshot(String),
    /// Inconsistent configuration.
    Config(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Snapshot(m) => write!(f, "snapshot: {m}"),
            RuntimeError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// What one slot of service did.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotOutcome {
    /// The controller's step report.
    pub report: StepReport,
    /// The tier that committed the first non-empty shard's first decision
    /// (`None` for an empty batch or when that shard committed nothing).
    pub chosen_tier: Option<TierKind>,
    /// `true` if the whole chain hard-failed for at least one shard: that
    /// shard committed nothing and its batch went back to the backlog.
    pub degraded: bool,
    /// `true` if a checkpoint was written after this slot.
    pub checkpointed: bool,
}

/// A crash-safe, fault-tolerant controller service over one network, one
/// arrival trace, and one fault plan.
#[derive(Debug)]
pub struct Runtime {
    controller: OnlineController<FallbackChain>,
    config: RuntimeConfig,
    arrivals: Trace,
    faults: FaultPlan,
    queue: AdmissionQueue,
    metrics: MetricsRegistry,
    /// One fallback chain per shard when `config.shards > 1`; empty for an
    /// unsharded run, whose one shard is the controller's own chain.
    shard_chains: Vec<FallbackChain>,
    /// Real wall-clock solve-time histograms. Deliberately a *separate*
    /// registry: wall times differ run to run, and folding them into the
    /// snapshotted metrics would break bit-identical resume.
    wall_metrics: MetricsRegistry,
    /// Capacity restores scheduled by started maintenance windows. The
    /// restore value (the pre-outage capacity) is only known once the
    /// outage starts, so it cannot be derived from the fault plan alone —
    /// it rides in the snapshot (v8) to keep mid-maintenance resume
    /// bit-identical.
    pending_restores: Vec<LinkDegradation>,
    next_slot: u64,
    num_slots: u64,
}

impl Runtime {
    /// Creates a fresh service run over `num_slots` slots (extended to cover
    /// every arrival if the trace runs longer).
    ///
    /// # Errors
    ///
    /// Rejects an empty tier list or checkpointing without a path.
    pub fn new(
        network: Network,
        arrivals: Trace,
        faults: FaultPlan,
        num_slots: u64,
        mut config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        // `--alap` is sugar for "alap leads the tier list". Normalizing here
        // (idempotently) means snapshots store the effective chain and the
        // rest of the runtime can key off `tiers.first()` alone.
        if config.alap && config.tiers.first() != Some(&TierKind::Alap) {
            config.tiers.retain(|t| *t != TierKind::Alap);
            config.tiers.insert(0, TierKind::Alap);
        }
        // Percentile charging implies the headroom rung, ahead of everything
        // (including the ALAP rung: paid-for headroom beats any placement
        // that can still move the bill). Normalized the same idempotent way.
        if config.charging != ChargingScheme::MaxPerSlot
            && config.tiers.first() != Some(&TierKind::Headroom)
        {
            config.tiers.retain(|t| *t != TierKind::Headroom);
            config.tiers.insert(0, TierKind::Headroom);
        }
        Self::validate(&config)?;
        let chain = FallbackChain::new(&config);
        // The horizon must cover every arrival's full deadline *window*, not
        // just its release slot — a late release with a multi-slot window
        // used to get its tail slots only via the requeue extension.
        let num_slots = num_slots.max(arrivals.horizon_slots());
        Ok(Self {
            shard_chains: shard_chains(&config),
            controller: OnlineController::new(network, chain).with_charging(config.charging),
            queue: AdmissionQueue::new(config.queue_capacity),
            config,
            arrivals,
            faults,
            metrics: MetricsRegistry::new(),
            wall_metrics: MetricsRegistry::new(),
            pending_restores: Vec::new(),
            next_slot: 0,
            num_slots,
        })
    }

    fn validate(config: &RuntimeConfig) -> Result<(), RuntimeError> {
        if config.tiers.is_empty() {
            return Err(RuntimeError::Config("tier list must not be empty".into()));
        }
        if config.queue_capacity == 0 {
            return Err(RuntimeError::Config("queue capacity must be at least 1".into()));
        }
        if config.checkpoint_every > 0 && config.checkpoint_path.is_none() {
            return Err(RuntimeError::Config(
                "checkpoint_every > 0 requires a checkpoint path".into(),
            ));
        }
        if config.shards == 0 {
            return Err(RuntimeError::Config("shard count must be at least 1".into()));
        }
        config.charging.validate().map_err(|e| RuntimeError::Config(format!("charging: {e}")))?;
        if config.tiers.contains(&TierKind::Headroom) && config.charging.free_slots() == 0 {
            return Err(RuntimeError::Config(
                "the headroom tier needs a percentile charging scheme with free slots \
                 (e.g. --charging p95:288)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Restores a service from a snapshot file; stepping the result
    /// continues exactly where the snapshotted run left off. A run that
    /// checkpoints keeps checkpointing to `path`, the file it resumed from,
    /// not to the path the snapshot was first written under: the file may
    /// have been copied or moved since.
    ///
    /// # Errors
    ///
    /// Reports unreadable/malformed snapshots or an invalid stored config.
    pub fn resume(path: &Path) -> Result<Self, RuntimeError> {
        let mut snap = RuntimeSnapshot::load(path).map_err(RuntimeError::Snapshot)?;
        if snap.config.checkpoint_path.is_some() {
            snap.config.checkpoint_path = Some(path.to_string_lossy().into_owned());
        }
        Self::from_snapshot(snap)
    }

    /// Rebuilds a service from an in-memory snapshot (see
    /// [`Runtime::resume`] for the file-based entry point).
    ///
    /// # Errors
    ///
    /// Reports an invalid stored config.
    pub fn from_snapshot(snap: RuntimeSnapshot) -> Result<Self, RuntimeError> {
        Self::validate(&snap.config)?;
        let network = snap.rebuild_network();
        // The ALAP residual grid is not snapshotted: a fresh `AlapTier`
        // starts dirty and deterministically rebuilds the grid from the
        // restored ledger on first use, so resumed runs stay bit-identical.
        let chain = FallbackChain::new(&snap.config);
        let mut queue = AdmissionQueue::new(snap.config.queue_capacity);
        queue.restore(snap.queue, snap.queue_dropped);
        let charging = snap.config.charging;
        Ok(Self {
            shard_chains: shard_chains(&snap.config),
            controller: OnlineController::from_state(network, chain, snap.controller)
                .with_charging(charging),
            queue,
            config: snap.config,
            // The serde derive bypasses `Trace::from_requests`; re-sort so
            // `batch` can find a slot's requests whatever the stored order.
            arrivals: Trace::from_requests(snap.arrivals.requests().to_vec()),
            faults: snap.faults,
            metrics: snap.metrics,
            wall_metrics: MetricsRegistry::new(),
            pending_restores: snap.pending_restores,
            next_slot: snap.next_slot,
            num_slots: snap.num_slots,
        })
    }

    /// Snapshots the current state. Snapshots are taken at slot boundaries,
    /// but the backlog can be non-empty there (requeued batches carry over),
    /// so the queue contents are persisted too (snapshot format v4).
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.config.clone(),
            num_dcs: self.controller.network().num_dcs(),
            links: RuntimeSnapshot::links_of(self.controller.network()),
            arrivals: self.arrivals.clone(),
            faults: self.faults.clone(),
            queue: self.queue.entries().to_vec(),
            queue_dropped: self.queue.dropped(),
            controller: self.controller.export_state(),
            metrics: self.metrics.clone(),
            pending_restores: self.pending_restores.clone(),
            next_slot: self.next_slot,
            num_slots: self.num_slots,
        }
    }

    /// Writes a snapshot to `path` (atomic; see [`RuntimeSnapshot::save`]),
    /// one file whatever the shard count.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn checkpoint(&self, path: &Path) -> Result<(), RuntimeError> {
        self.snapshot().save(path).map_err(RuntimeError::Snapshot)
    }

    /// Sends a batch the slot could not schedule back to the backlog:
    /// entries still inside their retry budget go to the front of the queue
    /// with `attempts` bumped, the rest count as lost. `kind` selects the
    /// metric family (`files_requeued_analysis` / `files_lost_analysis` or
    /// the `_degraded` pair). When anything was requeued the run horizon
    /// extends so the carried work gets at least one more slot.
    fn requeue_unscheduled(&mut self, entries: Vec<QueuedRequest>, slot: u64, kind: &str) {
        let mut retry = Vec::new();
        let mut lost = 0u64;
        for mut e in entries {
            if e.attempts < self.config.max_requeue_attempts {
                e.attempts += 1;
                retry.push(e);
            } else {
                lost += 1;
            }
        }
        if lost > 0 {
            self.metrics.inc(&format!("files_lost_{kind}"), lost);
        }
        if !retry.is_empty() {
            self.metrics.inc(&format!("files_requeued_{kind}"), retry.len() as u64);
            self.metrics.inc("requeued_total", retry.len() as u64);
            self.queue.requeue(retry);
            self.num_slots = self.num_slots.max(slot + 2);
        }
    }

    /// Runs one slot; `Ok(None)` once the run is complete.
    ///
    /// # Errors
    ///
    /// Reports checkpoint I/O failures.
    pub fn run_slot(&mut self) -> Result<Option<SlotOutcome>, RuntimeError> {
        if self.next_slot >= self.num_slots {
            return Ok(None);
        }
        let slot = self.next_slot;

        // (1) Faults first, all at the slot boundary, in a fixed order so
        // same-slot events compose deterministically: maintenance *restores*
        // scheduled earlier, then degradations (a degradation at the restore
        // slot wins), then price changes, then maintenance *outages*.
        let mut capacities_changed = false;
        let mut due_restores = Vec::new();
        self.pending_restores.retain(|r| {
            if r.slot == slot {
                due_restores.push(*r);
                false
            } else {
                true
            }
        });
        for r in due_restores {
            self.controller.network_mut().set_capacity(DcId(r.from), DcId(r.to), r.capacity);
            self.metrics.inc("maintenance_restores", 1);
            capacities_changed = true;
        }
        // Capacity 0 is a *valid* full-outage degradation (the formulation
        // simply gets no variables on the dead link); only unknown links and
        // negative/NaN capacities are skipped.
        for d in self.faults.degradations_at(slot).copied().collect::<Vec<_>>() {
            let (from, to) = (DcId(d.from), DcId(d.to));
            if self.controller.network().capacity(from, to).is_some() && d.capacity >= 0.0 {
                self.controller.network_mut().set_capacity(from, to, d.capacity);
                self.metrics.inc("degradations_applied", 1);
                capacities_changed = true;
            } else {
                self.metrics.inc("degradations_skipped", 1);
            }
        }
        let mut prices_changed = false;
        for p in self.faults.price_changes_at(slot).copied().collect::<Vec<_>>() {
            let (from, to) = (DcId(p.from), DcId(p.to));
            if self.controller.network().price(from, to).is_some() && p.price >= 0.0 {
                self.controller.network_mut().set_price(from, to, p.price);
                self.metrics.inc("price_changes_applied", 1);
                prices_changed = true;
            } else {
                self.metrics.inc("price_changes_skipped", 1);
            }
        }
        for m in self.faults.maintenance_starting_at(slot).copied().collect::<Vec<_>>() {
            let (from, to) = (DcId(m.from), DcId(m.to));
            match self.controller.network().capacity(from, to) {
                Some(prev) => {
                    // Remember the pre-outage capacity so the link comes
                    // back at `end` exactly as it went down.
                    self.pending_restores.push(LinkDegradation {
                        slot: m.end,
                        from: m.from,
                        to: m.to,
                        capacity: prev,
                    });
                    self.controller.network_mut().set_capacity(from, to, 0.0);
                    self.metrics.inc("maintenance_outages", 1);
                    capacities_changed = true;
                }
                None => {
                    self.metrics.inc("maintenance_skipped", 1);
                }
            }
        }
        if capacities_changed || prices_changed {
            // The ALAP rung caches link capacities in its residual grid and
            // each pair's cheapest paths, which depend on the prices: rebase
            // it, which re-reads the capacities and drops the paths when a
            // price changed (no-op without an ALAP rung).
            self.controller.scheduler_mut().mark_alap_dirty();
        }

        // (2) Bounded admission, then drain the backlog. Entries whose
        // deadline passed while they waited are evicted here; the rest are
        // re-stamped to this slot (preserving their absolute deadline) so
        // the controller's `release_slot == slot` invariant holds.
        let arrivals = self.arrivals.batch(slot);
        let dropped = self.queue.offer(arrivals);
        if dropped > 0 {
            self.metrics.inc("queue_dropped", dropped as u64);
        }
        self.metrics.observe("queue_depth", self.queue.len() as f64);
        let (mut entries, expired) = self.queue.take_batch(slot);
        if expired > 0 {
            self.metrics.inc("backlog_expired", expired as u64);
        }
        let mut batch: Vec<TransferRequest> =
            entries.iter().filter_map(|e| e.request.carried_to(slot)).collect();

        // (2b) Strict pre-solve analysis: assemble the slot's problem
        // without solving and reject the batch on structural errors
        // (deadline-window violations, malformed graphs, unbounded
        // columns — see crates/analyze/LINTS.md) rather than letting a
        // malformed model reach the simplex.
        if self.config.strict_analysis && !batch.is_empty() {
            let verdict = build_postcard_problem(
                self.controller.network(),
                &batch,
                self.controller.ledger(),
                &PostcardConfig::default(),
            );
            // Analysis findings are *transient* (they depend on the slot's
            // network and ledger state, which change) → the batch retries
            // from the backlog. A construction failure is *permanent* (the
            // same batch fails identically every slot) → the batch is lost.
            let rejected = match verdict {
                Ok(problem) => {
                    let report = check_problem(&problem);
                    report.has_errors().then(|| (report.render_text(), true))
                }
                Err(e) => Some((format!("problem construction failed: {e}\n"), false)),
            };
            if let Some((findings, transient)) = rejected {
                self.metrics.inc("analysis_rejections", 1);
                // Distribution of rejected-batch sizes, so operators can see
                // whether strict mode is dropping single stragglers or whole
                // waves (exported with p50/p95/p99 like the latency series).
                self.metrics.observe("analysis_rejection_batch_size", batch.len() as f64);
                eprintln!(
                    "slot {slot}: strict analysis rejected the batch ({} file(s)):\n{findings}",
                    batch.len()
                );
                batch.clear();
                let unscheduled = std::mem::take(&mut entries);
                if transient {
                    self.requeue_unscheduled(unscheduled, slot, "analysis");
                } else {
                    self.metrics.inc("files_lost_analysis", unscheduled.len() as u64);
                }
            }
        }

        // (3) Solve. With one shard the controller's own chain admits the
        // batch in place against the committed ledger; with more, the
        // shards solve in parallel and merge through the reconciler. On a
        // scheduled re-optimization slot the ALAP rung is skipped, so the
        // full LP re-plans the batch; the residual grid is rebased
        // afterwards.
        let reopt_now = self.config.is_reopt_slot(slot);
        let directives =
            SlotDirectives { slot, forced: self.faults.timeouts_at(slot), skip_alap: reopt_now };
        let planner = ShardPlanner::new(self.config.shard_by, self.config.shards);
        let started = WallStopwatch::start();
        let (chain, network, ledger) = self.controller.scheduler_and_state();
        let solves = if self.shard_chains.is_empty() {
            vec![solve_shard(chain, 0, network, ledger, &batch, &directives)]
        } else {
            let chains = &mut self.shard_chains;
            let batches = planner.partition(&batch);
            let solves = solve_parallel(chains, network, ledger, &batches, &directives);
            reconcile(network, ledger, solves, chains, &batches, &directives)
        };
        let solve_wall = started.elapsed_secs();

        // A degraded shard committed nothing: its entries go back to the
        // backlog, every other shard's result stands.
        let degraded_shards: Vec<usize> =
            solves.iter().filter(|s| s.degraded).map(|s| s.shard).collect();
        let degraded = !degraded_shards.is_empty();
        if degraded {
            let requeue: Vec<QueuedRequest> = entries
                .into_iter()
                .filter(|e| {
                    e.request
                        .carried_to(slot)
                        .is_some_and(|r| degraded_shards.contains(&planner.shard_of(&r)))
                })
                .collect();
            self.requeue_unscheduled(requeue, slot, "degraded");
        }

        // One controller step for the whole slot, so the cost history stays
        // slot-aligned. The admissions are already booked on the ledger: in
        // place by the single shard, in shard order by the reconciler.
        let admitted = solves.iter().filter(|s| !s.degraded).map(|s| &s.admission);
        let report = self.controller.record_booked(slot, admitted);

        // (4) Metrics.
        let chosen_tier = self.record_slot_metrics(slot, &solves, &report, reopt_now, solve_wall);

        // (5) Advance and checkpoint.
        self.next_slot = slot + 1;
        let due = self.config.checkpoint_every > 0
            && self.next_slot.is_multiple_of(self.config.checkpoint_every)
            && !self.is_finished();
        let checkpointed = if due {
            let path = PathBuf::from(
                // postcard-analyze: allow(PA102) — `checkpoint_every > 0`
                // implies a path; Runtime::new rejects the combination.
                self.config.checkpoint_path.as_deref().expect("validated at construction"),
            );
            // Count before saving so the snapshot includes its own write —
            // otherwise a resumed run would undercount checkpoints relative
            // to an uninterrupted one.
            self.metrics.inc("checkpoints_written", 1);
            self.checkpoint(&path)?;
            true
        } else {
            false
        };

        Ok(Some(SlotOutcome { report, chosen_tier, degraded, checkpointed }))
    }

    /// Step (4): records one slot's metrics from its shard solves and its
    /// committed report, and returns the slot's representative tier, the
    /// first non-empty shard's.
    fn record_slot_metrics(
        &mut self,
        slot: u64,
        solves: &[ShardSolve],
        report: &StepReport,
        reopt_now: bool,
        solve_wall: f64,
    ) -> Option<TierKind> {
        let sharded = !self.shard_chains.is_empty();
        let solved: Vec<&ShardSolve> = solves.iter().filter(|s| s.batch_len > 0).collect();
        self.metrics.inc("slots_total", 1);
        let degraded = solves.iter().filter(|s| s.degraded).count() as u64;
        if degraded > 0 {
            self.metrics.inc("degraded_slots", 1);
            if sharded {
                self.metrics.inc("degraded_shards", degraded);
            }
        }
        self.metrics.inc("files_accepted", report.accepted.len() as u64);
        self.metrics.inc("files_rejected", report.rejected.len() as u64);
        self.metrics.set_gauge("bill_per_slot", report.cost_per_slot);
        self.metrics.observe("bill_per_slot_history", report.cost_per_slot);
        let conflicts = solves.iter().filter(|s| s.conflicted).count() as u64;
        if conflicts > 0 {
            self.metrics.inc("shard_conflicts", conflicts);
        }
        if reopt_now && !solved.is_empty() {
            self.metrics.inc("lp_reoptimizations", 1);
        }
        // Empty batches schedule nothing; recording them would drown the
        // tier-choice and latency metrics in no-ops.
        let chosen_tier = solved.first().and_then(|s| s.chosen_tier);
        if let Some(tier) = chosen_tier {
            self.metrics.inc(tier.metric_names().chosen, 1);
            // A scheduled re-optimization deliberately lands on an LP tier,
            // and a headroom decline deliberately hands the slot to the
            // first scheduling tier; both are the design working, not a
            // fallback.
            let declined = solved
                .iter()
                .any(|s| s.records.iter().any(|r| r.outcome == AttemptOutcome::Declined));
            let expected_first =
                if declined { self.config.first_scheduling_tier() } else { self.config.tiers[0] };
            if tier != expected_first && !reopt_now {
                self.metrics.inc("slots_on_fallback_tier", 1);
            }
        }
        if !solved.is_empty() {
            self.wall_metrics.observe("solve_wall_seconds", solve_wall);
        }
        for solve in solved {
            if sharded {
                self.wall_metrics.observe(
                    &format!("solve_wall_seconds_shard{}", solve.shard),
                    solve.wall_seconds,
                );
            }
            for line in &solve.diagnostics {
                eprintln!("slot {slot}: {line}");
            }
            // The ALAP rung's admission verdicts: it decided the shard when
            // it committed or (per-file) rejected, and no other tier
            // committed over its head.
            let alap_decided = solve.records.iter().any(|r| {
                r.tier == TierKind::Alap
                    && matches!(r.outcome, AttemptOutcome::Committed | AttemptOutcome::Infeasible)
            });
            if alap_decided && solve.chosen_tier.is_none_or(|t| t == TierKind::Alap) {
                let admission = &solve.admission;
                let admits = admission.accepted().count();
                if admits > 0 {
                    self.metrics.inc("alap_admits", admits as u64);
                }
                if !admission.rejected.is_empty() {
                    self.metrics.inc("alap_rejects", admission.rejected.len() as u64);
                }
            }
            self.record_attempt_metrics(&solve.records);
        }
        chosen_tier
    }

    /// Folds one shard's tier-attempt records into the metrics registry.
    fn record_attempt_metrics(&mut self, records: &[AttemptRecord]) {
        for rec in records {
            match rec.outcome {
                AttemptOutcome::Committed => {
                    let name = rec.tier.metric_names().solve_latency;
                    self.metrics.observe(name, rec.elapsed.as_secs_f64());
                    self.metrics.observe("lp_iterations", rec.lp_iterations as f64);
                    if rec.tier == TierKind::Alap {
                        self.metrics
                            .observe("admission_latency_seconds", rec.elapsed.as_secs_f64());
                    }
                }
                AttemptOutcome::ForcedTimeout
                | AttemptOutcome::BudgetExceeded
                | AttemptOutcome::Failed => {
                    self.metrics.inc("fallback_activations", 1);
                    self.metrics.inc(rec.tier.metric_names().fallback_from, 1);
                }
                AttemptOutcome::Infeasible => {
                    // Handled by per-file admission; rejections are counted
                    // from the step report (and `alap_rejects` above)
                    // instead.
                    if rec.tier == TierKind::Alap {
                        self.metrics
                            .observe("admission_latency_seconds", rec.elapsed.as_secs_f64());
                    }
                }
                AttemptOutcome::Skipped => {
                    // A scheduled re-optimization skip, not a failure.
                }
                AttemptOutcome::Declined => {
                    // The headroom rung found no burst budget and handed the
                    // batch down — by design, so not a fallback activation.
                    self.metrics.inc("headroom_declined", 1);
                }
            }
        }
    }

    /// Runs every remaining slot.
    ///
    /// # Errors
    ///
    /// Stops at the first [`RuntimeError`]; completed slots stay committed.
    pub fn run_to_end(&mut self) -> Result<Vec<SlotOutcome>, RuntimeError> {
        let mut outcomes = Vec::new();
        while let Some(outcome) = self.run_slot()? {
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// `true` once every slot has run.
    pub fn is_finished(&self) -> bool {
        self.next_slot >= self.num_slots
    }

    /// The next slot to run.
    pub fn next_slot(&self) -> u64 {
        self.next_slot
    }

    /// One past the last slot of the run.
    pub fn num_slots(&self) -> u64 {
        self.num_slots
    }

    /// The underlying online controller.
    pub fn controller(&self) -> &OnlineController<FallbackChain> {
        &self.controller
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Real wall-clock solve-time histograms (`solve_wall_seconds` for the
    /// whole slot, `solve_wall_seconds_shard{i}` per shard). Kept out of
    /// [`Runtime::metrics`] and out of snapshots: wall times vary run to
    /// run, and snapshotting them would break bit-identical resume.
    pub fn wall_metrics(&self) -> &MetricsRegistry {
        &self.wall_metrics
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Bill per slot after every completed slot.
    pub fn cost_history(&self) -> &[f64] {
        self.controller.cost_history()
    }

    /// Bill per slot after the most recent slot (0 before any).
    pub fn final_cost_per_slot(&self) -> f64 {
        self.controller.cost_per_slot()
    }
}

/// One fallback chain per shard; none for an unsharded run, whose one shard
/// is the controller's own chain.
fn shard_chains(config: &RuntimeConfig) -> Vec<FallbackChain> {
    if config.shards > 1 {
        (0..config.shards).map(|_| FallbackChain::new(config)).collect()
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_net::{FileId, NetworkBuilder, TransferRequest};

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    fn net() -> Network {
        NetworkBuilder::new(3)
            .link(d(1), d(2), 10.0, 100.0)
            .link(d(1), d(0), 1.0, 100.0)
            .link(d(0), d(2), 3.0, 100.0)
            .build()
    }

    fn arrivals() -> Trace {
        Trace::from_requests(vec![
            TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0),
            TransferRequest::new(FileId(2), d(1), d(2), 4.0, 2, 2),
        ])
    }

    #[test]
    fn fresh_run_completes_every_slot() {
        let mut rt =
            Runtime::new(net(), arrivals(), FaultPlan::none(), 4, RuntimeConfig::default())
                .unwrap();
        let outcomes = rt.run_to_end().unwrap();
        assert_eq!(outcomes.len(), 4);
        assert!(rt.is_finished());
        assert_eq!(rt.cost_history().len(), 4);
        assert_eq!(rt.metrics().counter("slots_total"), 4);
        assert_eq!(rt.metrics().counter("files_accepted"), 2);
        assert_eq!(rt.metrics().counter("tier_chosen_postcard"), 2);
        assert_eq!(rt.metrics().counter("fallback_activations"), 0);
    }

    #[test]
    fn forced_timeout_records_fallback_activation() {
        let faults = FaultPlan::none().force_timeout(0, TierKind::Postcard);
        let mut rt = Runtime::new(net(), arrivals(), faults, 4, RuntimeConfig::default()).unwrap();
        let outcomes = rt.run_to_end().unwrap();
        assert_eq!(outcomes[0].chosen_tier, Some(TierKind::FlowLp));
        assert_eq!(outcomes[2].chosen_tier, Some(TierKind::Postcard));
        assert_eq!(rt.metrics().counter("fallback_activations"), 1);
        assert_eq!(rt.metrics().counter("fallback_from_postcard"), 1);
        assert_eq!(rt.metrics().counter("slots_on_fallback_tier"), 1);
    }

    #[test]
    fn degradation_shrinks_capacity_at_its_slot() {
        let faults = FaultPlan::none().degrade(1, d(1), d(2), 5.0);
        let mut rt = Runtime::new(net(), arrivals(), faults, 3, RuntimeConfig::default()).unwrap();
        rt.run_slot().unwrap();
        assert_eq!(rt.controller().network().capacity(d(1), d(2)), Some(100.0));
        rt.run_slot().unwrap();
        assert_eq!(rt.controller().network().capacity(d(1), d(2)), Some(5.0));
        assert_eq!(rt.metrics().counter("degradations_applied"), 1);
    }

    #[test]
    fn queue_overflow_drops_and_counts() {
        let mut reqs = Vec::new();
        for i in 0..5 {
            reqs.push(TransferRequest::new(FileId(i), d(1), d(2), 1.0, 2, 0));
        }
        let config = RuntimeConfig { queue_capacity: 3, ..Default::default() };
        let mut rt =
            Runtime::new(net(), Trace::from_requests(reqs), FaultPlan::none(), 2, config).unwrap();
        let outcomes = rt.run_to_end().unwrap();
        assert_eq!(outcomes[0].report.accepted.len(), 3);
        assert_eq!(rt.metrics().counter("queue_dropped"), 2);
        assert_eq!(rt.metrics().counter("files_accepted"), 3);
    }

    #[test]
    fn run_extends_to_cover_all_arrivals() {
        let rt = Runtime::new(net(), arrivals(), FaultPlan::none(), 1, RuntimeConfig::default())
            .unwrap();
        // File 2 releases at slot 2 with a 2-slot deadline window: the
        // horizon covers the *window* (slots 2..=3), not just the release.
        assert_eq!(rt.num_slots(), 4, "deadline window extends the horizon");
    }

    #[test]
    fn horizon_covers_full_deadline_window_of_late_releases() {
        // Regression: the horizon used to come from `num_slots()` (last
        // release + 1), so this request's 5-slot window was truncated to
        // its release slot and only requeue churn could extend the run.
        let reqs = vec![TransferRequest::new(FileId(1), d(1), d(2), 400.0, 5, 3)];
        let mut rt = Runtime::new(
            net(),
            Trace::from_requests(reqs),
            FaultPlan::none(),
            0,
            RuntimeConfig::default(),
        )
        .unwrap();
        assert_eq!(rt.num_slots(), 8, "slots 3..=7 belong to the window");
        // 400 GB over capacity-100 links needs several slots: without the
        // full window the file would be rejected outright.
        rt.run_to_end().unwrap();
        assert_eq!(rt.metrics().counter("files_accepted"), 1);
        assert_eq!(rt.metrics().counter("requeued_total"), 0, "no requeue churn");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad_tiers = RuntimeConfig { tiers: vec![], ..Default::default() };
        assert!(matches!(
            Runtime::new(net(), arrivals(), FaultPlan::none(), 1, bad_tiers),
            Err(RuntimeError::Config(_))
        ));
        let bad_ckpt = RuntimeConfig { checkpoint_every: 5, ..Default::default() };
        assert!(matches!(
            Runtime::new(net(), arrivals(), FaultPlan::none(), 1, bad_ckpt),
            Err(RuntimeError::Config(_))
        ));
    }

    #[test]
    fn strict_analysis_is_silent_on_valid_workloads() {
        let config = RuntimeConfig { strict_analysis: true, ..Default::default() };
        let mut strict = Runtime::new(net(), arrivals(), FaultPlan::none(), 4, config).unwrap();
        let mut plain =
            Runtime::new(net(), arrivals(), FaultPlan::none(), 4, RuntimeConfig::default())
                .unwrap();
        strict.run_to_end().unwrap();
        plain.run_to_end().unwrap();
        assert_eq!(strict.metrics().counter("analysis_rejections"), 0);
        assert_eq!(strict.metrics().counter("files_accepted"), 2);
        // Strict mode must not change the outcome of a clean run.
        for (a, b) in strict.cost_history().iter().zip(plain.cost_history()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn strict_analysis_rejects_unbuildable_batches() {
        // A request naming datacenter 7 in a 3-datacenter network: problem
        // construction fails, so strict mode drops the batch pre-solve
        // instead of letting the slot degrade through the fallback chain.
        let reqs = vec![
            TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0),
            TransferRequest::new(FileId(2), DcId(7), d(2), 4.0, 2, 0),
        ];
        let config = RuntimeConfig { strict_analysis: true, ..Default::default() };
        let mut rt =
            Runtime::new(net(), Trace::from_requests(reqs), FaultPlan::none(), 2, config).unwrap();
        let outcomes = rt.run_to_end().unwrap();
        assert_eq!(rt.metrics().counter("analysis_rejections"), 1);
        // Construction failures are permanent: the batch is lost outright,
        // never requeued (retrying would fail identically every slot).
        assert_eq!(rt.metrics().counter("files_lost_analysis"), 2);
        assert_eq!(rt.metrics().counter("files_requeued_analysis"), 0);
        assert_eq!(rt.metrics().counter("requeued_total"), 0);
        assert_eq!(rt.metrics().counter("files_accepted"), 0);
        // The slot still ran (empty batch) and was not counted as degraded.
        // (Three slots: file 1's deadline window reaches slot 2.)
        assert_eq!(outcomes.len(), 3);
        assert!(!outcomes[0].degraded);
    }

    #[test]
    fn degraded_slot_requeues_batch_until_attempts_exhausted() {
        // A single-tier chain with an out-of-range datacenter and strict
        // mode off: the chain hard-fails deterministically every slot, so
        // the batch is requeued `max_requeue_attempts` times, then lost.
        let reqs = vec![TransferRequest::new(FileId(1), DcId(7), d(2), 4.0, 10, 0)];
        let config = RuntimeConfig { tiers: vec![TierKind::Postcard], ..Default::default() };
        let mut rt =
            Runtime::new(net(), Trace::from_requests(reqs), FaultPlan::none(), 1, config).unwrap();
        let outcomes = rt.run_to_end().unwrap();
        // Slot 0 fails → requeue (attempt 1); slot 1 fails → requeue
        // (attempt 2); slot 2 fails → budget exhausted. The run then idles
        // out the request's 10-slot deadline window (horizon 10).
        assert_eq!(outcomes.len(), 10, "horizon covers the deadline window");
        assert!(outcomes.iter().take(3).all(|o| o.degraded));
        assert!(outcomes.iter().skip(3).all(|o| !o.degraded));
        assert_eq!(rt.metrics().counter("files_requeued_degraded"), 2);
        assert_eq!(rt.metrics().counter("requeued_total"), 2);
        assert_eq!(rt.metrics().counter("files_lost_degraded"), 1);
        assert_eq!(rt.metrics().counter("degraded_slots"), 3);
        assert!(rt.is_finished());
    }

    #[test]
    fn degraded_slots_record_the_same_metrics_on_one_and_two_shards() {
        // The scenario above: the chain hard-fails on the whole batch in
        // three slots. Nothing is committed, so no tier was chosen, and
        // each failure is one fallback activation, whatever the shard count.
        let tiers = [
            TierKind::Headroom,
            TierKind::Alap,
            TierKind::Postcard,
            TierKind::FlowLp,
            TierKind::Greedy,
        ];
        for shards in [1, 2] {
            let reqs = vec![TransferRequest::new(FileId(1), DcId(7), d(2), 4.0, 10, 0)];
            let config =
                RuntimeConfig { tiers: vec![TierKind::Postcard], shards, ..Default::default() };
            let arrivals = Trace::from_requests(reqs);
            let mut rt = Runtime::new(net(), arrivals, FaultPlan::none(), 1, config).unwrap();
            let outcomes = rt.run_to_end().unwrap();
            let m = rt.metrics();
            for tier in tiers {
                assert_eq!(
                    m.counter(&format!("tier_chosen_{}", tier.name())),
                    0,
                    "{shards} shards"
                );
            }
            assert!(outcomes.iter().all(|o| o.chosen_tier.is_none()), "{shards} shards");
            assert_eq!(m.counter("fallback_activations"), 3, "{shards} shards");
            assert_eq!(m.counter("fallback_from_postcard"), 3, "{shards} shards");
            assert_eq!(m.counter("degraded_slots"), 3, "{shards} shards");
        }
    }

    #[test]
    fn requeued_request_expires_from_backlog_past_its_deadline() {
        // Deadline of 1 slot: the request can only run at slot 0. The chain
        // hard-fails there, the entry is requeued, and the next drain evicts
        // it as expired instead of handing the controller a dead request.
        let reqs = vec![TransferRequest::new(FileId(1), DcId(7), d(2), 4.0, 1, 0)];
        let config = RuntimeConfig { tiers: vec![TierKind::Postcard], ..Default::default() };
        let mut rt =
            Runtime::new(net(), Trace::from_requests(reqs), FaultPlan::none(), 1, config).unwrap();
        rt.run_to_end().unwrap();
        assert_eq!(rt.metrics().counter("files_requeued_degraded"), 1);
        assert_eq!(rt.metrics().counter("backlog_expired"), 1);
        assert_eq!(rt.metrics().counter("files_lost_degraded"), 0);
        assert_eq!(rt.metrics().counter("degraded_slots"), 1);
    }

    #[test]
    fn requeued_request_is_rescheduled_with_absolute_deadline() {
        // A *valid* request rides along with one that breaks the chain: both
        // requeue at slot 0, and at slot 1 the backlog (valid request
        // re-stamped to release_slot 1) schedules normally.
        let reqs = vec![
            TransferRequest::new(FileId(1), d(1), d(2), 6.0, 4, 0),
            TransferRequest::new(FileId(2), DcId(7), d(2), 4.0, 2, 0),
        ];
        let config = RuntimeConfig { tiers: vec![TierKind::Postcard], ..Default::default() };
        let mut rt =
            Runtime::new(net(), Trace::from_requests(reqs), FaultPlan::none(), 1, config).unwrap();
        let first = rt.run_slot().unwrap().unwrap();
        assert!(first.degraded);
        assert_eq!(rt.metrics().counter("files_requeued_degraded"), 2);
        let second = rt.run_slot().unwrap().unwrap();
        // Still degraded (the bad request is back too), the valid file keeps
        // retrying until its retry budget runs out — it is never silently
        // dropped while schedulable.
        assert!(second.degraded);
        assert_eq!(rt.metrics().counter("files_requeued_degraded"), 4);
    }

    #[test]
    fn zero_capacity_degradation_is_applied_not_skipped() {
        // A dead link (capacity 0) is a valid full outage; only negative
        // capacities and unknown links are skipped.
        let faults = FaultPlan::none()
            .degrade(0, d(1), d(2), 0.0)
            .degrade(0, d(0), d(2), -5.0)
            .degrade(0, d(2), d(0), 7.0); // link does not exist
        let mut rt = Runtime::new(net(), arrivals(), faults, 3, RuntimeConfig::default()).unwrap();
        rt.run_slot().unwrap();
        assert_eq!(rt.controller().network().capacity(d(1), d(2)), Some(0.0));
        assert_eq!(rt.controller().network().capacity(d(0), d(2)), Some(100.0));
        assert_eq!(rt.metrics().counter("degradations_applied"), 1);
        assert_eq!(rt.metrics().counter("degradations_skipped"), 2);
    }

    #[test]
    fn queue_depth_is_observed_every_slot() {
        let mut rt =
            Runtime::new(net(), arrivals(), FaultPlan::none(), 4, RuntimeConfig::default())
                .unwrap();
        rt.run_to_end().unwrap();
        let depth = rt.metrics().histogram("queue_depth").unwrap();
        assert_eq!(depth.count, 4, "one observation per slot");
        assert_eq!(depth.max, 1.0, "at most one request queued at once");
    }

    #[test]
    fn snapshot_resume_continues_identically() {
        let faults =
            FaultPlan::none().force_timeout(2, TierKind::Postcard).degrade(1, d(0), d(2), 50.0);
        let mut full =
            Runtime::new(net(), arrivals(), faults.clone(), 4, RuntimeConfig::default()).unwrap();
        full.run_to_end().unwrap();

        let mut half =
            Runtime::new(net(), arrivals(), faults, 4, RuntimeConfig::default()).unwrap();
        half.run_slot().unwrap();
        half.run_slot().unwrap();
        let snap = half.snapshot();
        drop(half); // "crash"
        let mut resumed = Runtime::from_snapshot(snap).unwrap();
        resumed.run_to_end().unwrap();

        assert_eq!(resumed.cost_history().len(), full.cost_history().len());
        for (a, b) in resumed.cost_history().iter().zip(full.cost_history()) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-identical continuation");
        }
        assert_eq!(resumed.metrics(), full.metrics());
    }

    #[test]
    fn alap_flag_prepends_the_rung_idempotently() {
        let config = RuntimeConfig { alap: true, ..Default::default() };
        let rt = Runtime::new(net(), arrivals(), FaultPlan::none(), 4, config).unwrap();
        assert_eq!(
            rt.config().tiers,
            vec![TierKind::Alap, TierKind::Postcard, TierKind::FlowLp, TierKind::Greedy]
        );
        // Already-listed rungs are not duplicated, wherever they appear.
        let config = RuntimeConfig {
            alap: true,
            tiers: vec![TierKind::Postcard, TierKind::Alap],
            ..Default::default()
        };
        let rt = Runtime::new(net(), arrivals(), FaultPlan::none(), 4, config).unwrap();
        assert_eq!(rt.config().tiers, vec![TierKind::Alap, TierKind::Postcard]);
    }

    #[test]
    fn alap_rung_admits_every_request_without_an_lp_solve() {
        let config = RuntimeConfig { alap: true, ..Default::default() };
        let mut rt = Runtime::new(net(), arrivals(), FaultPlan::none(), 4, config).unwrap();
        let outcomes = rt.run_to_end().unwrap();
        assert_eq!(rt.metrics().counter("files_accepted"), 2);
        assert_eq!(rt.metrics().counter("alap_admits"), 2);
        assert_eq!(rt.metrics().counter("alap_rejects"), 0);
        assert_eq!(rt.metrics().counter("tier_chosen_alap"), 2);
        assert_eq!(rt.metrics().counter("tier_chosen_postcard"), 0);
        assert_eq!(rt.metrics().counter("slots_on_fallback_tier"), 0);
        // Every non-empty slot was decided by the ALAP rung, LP never ran.
        for o in &outcomes {
            assert!(o.chosen_tier.is_none() || o.chosen_tier == Some(TierKind::Alap));
        }
        let lat = rt.metrics().histogram("admission_latency_seconds").unwrap();
        assert_eq!(lat.count, 2, "one admission decision per file");
    }

    #[test]
    fn alap_rung_rejects_infeasible_requests_instantly() {
        // 500 GB with a 1-slot deadline over capacity-100 links: nothing can
        // place it; a feasible rider shares the batch and still gets in.
        let reqs = vec![
            TransferRequest::new(FileId(1), d(1), d(2), 500.0, 1, 0),
            TransferRequest::new(FileId(2), d(1), d(2), 6.0, 3, 0),
        ];
        let config = RuntimeConfig { alap: true, ..Default::default() };
        let mut rt =
            Runtime::new(net(), Trace::from_requests(reqs), FaultPlan::none(), 0, config).unwrap();
        rt.run_to_end().unwrap();
        assert_eq!(rt.metrics().counter("alap_admits"), 1);
        assert_eq!(rt.metrics().counter("alap_rejects"), 1);
        assert_eq!(rt.metrics().counter("files_rejected"), 1);
        assert_eq!(rt.metrics().counter("files_accepted"), 1);
        // Rejections are final (loss accounting), not requeued.
        assert_eq!(rt.metrics().counter("requeued_total"), 0);
    }

    #[test]
    fn reopt_slots_run_the_lp_and_rebase_the_grid() {
        let config = RuntimeConfig { alap: true, reopt_every: 2, ..Default::default() };
        let mut rt = Runtime::new(net(), arrivals(), FaultPlan::none(), 4, config).unwrap();
        let outcomes = rt.run_to_end().unwrap();
        // Slot 0 (non-empty): ALAP admits. Slot 2 (non-empty, 2 % 2 == 0):
        // the rung is skipped and the Postcard LP re-plans.
        assert_eq!(outcomes[0].chosen_tier, Some(TierKind::Alap));
        assert_eq!(outcomes[2].chosen_tier, Some(TierKind::Postcard));
        assert_eq!(rt.metrics().counter("lp_reoptimizations"), 1);
        assert_eq!(rt.metrics().counter("alap_admits"), 1);
        // A scheduled re-optimization is not a fallback event.
        assert_eq!(rt.metrics().counter("fallback_activations"), 0);
        assert_eq!(rt.metrics().counter("slots_on_fallback_tier"), 0);
        assert_eq!(rt.metrics().counter("files_accepted"), 2);
    }

    #[test]
    fn alap_run_resumes_bit_identically_with_backlog() {
        let faults = FaultPlan::none().degrade(1, d(0), d(2), 50.0);
        let config = RuntimeConfig { alap: true, reopt_every: 2, ..Default::default() };
        let mut full = Runtime::new(net(), arrivals(), faults.clone(), 4, config.clone()).unwrap();
        full.run_to_end().unwrap();

        let mut half = Runtime::new(net(), arrivals(), faults, 4, config).unwrap();
        half.run_slot().unwrap();
        half.run_slot().unwrap();
        let snap = half.snapshot();
        drop(half); // "crash" — the residual grid dies with the process
        let mut resumed = Runtime::from_snapshot(snap).unwrap();
        resumed.run_to_end().unwrap();

        for (a, b) in resumed.cost_history().iter().zip(full.cost_history()) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-identical continuation");
        }
        assert_eq!(resumed.metrics(), full.metrics());
    }

    #[test]
    fn price_change_reprices_the_link_at_its_slot() {
        // The direct 1→2 link is repriced mid-run; unknown links are skipped.
        let faults = FaultPlan::none().reprice(1, d(1), d(2), 2.0).reprice(1, d(2), d(0), 1.0);
        let mut rt = Runtime::new(net(), arrivals(), faults, 3, RuntimeConfig::default()).unwrap();
        rt.run_slot().unwrap();
        assert_eq!(rt.controller().network().price(d(1), d(2)), Some(10.0));
        rt.run_slot().unwrap();
        assert_eq!(rt.controller().network().price(d(1), d(2)), Some(2.0));
        assert_eq!(rt.metrics().counter("price_changes_applied"), 1);
        assert_eq!(rt.metrics().counter("price_changes_skipped"), 1);
    }

    #[test]
    fn maintenance_window_outage_then_exact_restore() {
        // Link 0→2 goes dark for slots 1..3 and must come back at exactly
        // the capacity it went down with — including a degradation that
        // landed before the window opened.
        let faults = FaultPlan::none().degrade(1, d(0), d(2), 40.0).maintain(1, 3, d(0), d(2));
        let mut rt = Runtime::new(net(), arrivals(), faults, 5, RuntimeConfig::default()).unwrap();
        rt.run_slot().unwrap(); // slot 0: untouched
        assert_eq!(rt.controller().network().capacity(d(0), d(2)), Some(100.0));
        rt.run_slot().unwrap(); // slot 1: degrade to 40, then the outage
        assert_eq!(rt.controller().network().capacity(d(0), d(2)), Some(0.0));
        rt.run_slot().unwrap(); // slot 2: still dark
        assert_eq!(rt.controller().network().capacity(d(0), d(2)), Some(0.0));
        rt.run_slot().unwrap(); // slot 3: restored to the pre-outage 40
        assert_eq!(rt.controller().network().capacity(d(0), d(2)), Some(40.0));
        assert_eq!(rt.metrics().counter("maintenance_outages"), 1);
        assert_eq!(rt.metrics().counter("maintenance_restores"), 1);
    }

    #[test]
    fn maintenance_mid_window_snapshot_carries_the_restore() {
        let faults = FaultPlan::none().maintain(1, 3, d(1), d(2));
        let mut full =
            Runtime::new(net(), arrivals(), faults.clone(), 5, RuntimeConfig::default()).unwrap();
        full.run_to_end().unwrap();

        let mut half =
            Runtime::new(net(), arrivals(), faults, 5, RuntimeConfig::default()).unwrap();
        half.run_slot().unwrap();
        half.run_slot().unwrap(); // crash mid-outage: the restore is pending
        let snap = half.snapshot();
        assert_eq!(snap.pending_restores.len(), 1);
        assert_eq!(snap.pending_restores[0].slot, 3);
        let mut resumed = Runtime::from_snapshot(snap).unwrap();
        resumed.run_to_end().unwrap();
        assert_eq!(resumed.controller().network().capacity(d(1), d(2)), Some(100.0));
        for (a, b) in resumed.cost_history().iter().zip(full.cost_history()) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-identical continuation");
        }
        assert_eq!(resumed.metrics(), full.metrics());
    }

    #[test]
    fn percentile_charging_prepends_the_headroom_rung() {
        let config = RuntimeConfig {
            charging: ChargingScheme::Percentile { q: 95.0, window_slots: 20 },
            ..Default::default()
        };
        let rt = Runtime::new(net(), arrivals(), FaultPlan::none(), 4, config).unwrap();
        assert_eq!(rt.config().tiers.first(), Some(&TierKind::Headroom));
        // Slot 0 opens an all-zero billing window: no baseline to hide
        // under, so the rung declines and Postcard takes the batch — which
        // is the design working, not a fallback.
        let mut rt = rt;
        let outcomes = rt.run_to_end().unwrap();
        assert_eq!(outcomes[0].chosen_tier, Some(TierKind::Postcard));
        assert!(rt.metrics().counter("headroom_declined") >= 1);
        assert_eq!(rt.metrics().counter("fallback_activations"), 0);
        assert_eq!(rt.metrics().counter("slots_on_fallback_tier"), 0);
        assert_eq!(rt.metrics().counter("files_accepted"), 2);
    }

    #[test]
    fn out_of_range_charging_schemes_are_rejected() {
        for q in [0.0, 150.0] {
            let config = RuntimeConfig {
                charging: ChargingScheme::Percentile { q, window_slots: 48 },
                ..Default::default()
            };
            assert!(
                matches!(
                    Runtime::new(net(), arrivals(), FaultPlan::none(), 1, config),
                    Err(RuntimeError::Config(_))
                ),
                "q = {q}"
            );
        }
        let no_window = RuntimeConfig {
            charging: ChargingScheme::Percentile { q: 95.0, window_slots: 0 },
            ..Default::default()
        };
        assert!(matches!(
            Runtime::new(net(), arrivals(), FaultPlan::none(), 1, no_window),
            Err(RuntimeError::Config(_))
        ));
        // A checkpoint carrying a bad scheme is refused the same way.
        let mut snap =
            Runtime::new(net(), arrivals(), FaultPlan::none(), 1, RuntimeConfig::default())
                .unwrap()
                .snapshot();
        snap.config.charging = ChargingScheme::Percentile { q: 0.0, window_slots: 48 };
        assert!(matches!(Runtime::from_snapshot(snap), Err(RuntimeError::Config(_))));
    }

    #[test]
    fn resume_re_sorts_arrivals_stored_out_of_order() {
        // Slot 1's files must cross the 100 GB direct link within the slot,
        // so they do not fit together: they are admitted one at a time in
        // id order, and only the first (80 GB) fits. A snapshot storing the arrivals in another
        // order (the serde derive skips `Trace::from_requests`) must resume
        // into the same admissions.
        let reqs = vec![
            TransferRequest::new(FileId(1), d(1), d(2), 6.0, 1, 0),
            TransferRequest::new(FileId(3), d(1), d(2), 80.0, 1, 1),
            TransferRequest::new(FileId(4), d(1), d(2), 70.0, 1, 1),
            TransferRequest::new(FileId(5), d(1), d(2), 60.0, 1, 1),
        ];
        let start = || {
            let arrivals = Trace::from_requests(reqs.clone());
            Runtime::new(net(), arrivals, FaultPlan::none(), 2, RuntimeConfig::default()).unwrap()
        };
        let mut full = start();
        full.run_to_end().unwrap();
        assert_eq!(full.controller().admission_volumes(), (86.0, 130.0));

        let mut victim = start();
        victim.run_slot().unwrap();
        let mut snap = victim.snapshot();
        let reversed: Vec<TransferRequest> = reqs.iter().rev().copied().collect();
        let json = format!("{{\"requests\": {}}}", serde::json::to_string(&reversed));
        snap.arrivals = serde::json::from_str(&json).unwrap();
        assert_eq!(snap.arrivals.requests()[0].id, FileId(5), "stored out of order");
        let mut resumed = Runtime::from_snapshot(snap).unwrap();
        resumed.run_to_end().unwrap();
        assert_eq!(resumed.controller().export_state(), full.controller().export_state());
        assert_eq!(resumed.metrics(), full.metrics());
        assert_eq!(resumed.snapshot().arrivals, full.snapshot().arrivals);
    }

    #[test]
    fn headroom_tier_without_free_slots_is_rejected() {
        let config = RuntimeConfig {
            tiers: vec![TierKind::Headroom, TierKind::Postcard],
            ..Default::default()
        };
        assert!(matches!(
            Runtime::new(net(), arrivals(), FaultPlan::none(), 1, config),
            Err(RuntimeError::Config(_))
        ));
    }
}
