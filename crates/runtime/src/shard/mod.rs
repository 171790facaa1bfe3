//! The sharded multi-tenant runtime: parallel per-shard solves, one central
//! ledger.
//!
//! A production inter-datacenter controller serves many tenants whose
//! transfers share link capacity but decompose almost cleanly by owner.
//! This module exploits that structure: each slot's admitted batch is
//! partitioned by tenant or source region ([`ShardPlanner`]), every shard's
//! subproblem runs the full solver fallback chain on its own worker thread
//! against a snapshot of the central ledger ([`pool`]), and a deterministic
//! [`reconcile`] pass merges the shard plans back into the single
//! percentile-billing ledger — validating each shard's decisions against
//! the traffic already merged ahead of it and re-solving any shard whose
//! optimistic plan over-committed a shared link.
//!
//! Determinism is the design constraint that shapes everything here: shard
//! results are collected in shard-index order, the merge order is fixed,
//! and conflict re-solves run serially in that same order, so an N-shard
//! run produces byte-identical ledgers, metrics, and snapshots on every
//! execution regardless of thread scheduling. Wall-clock solve times are
//! the one unavoidably non-deterministic observable; they are exported
//! through a separate, never-snapshotted metrics registry (see
//! [`crate::Runtime::wall_metrics`]).
//!
//! Checkpointing is a manifest plus per-shard snapshot files
//! ([`manifest`]): the manifest carries the full global state verbatim (so
//! resume is bit-identical by construction), shard files carry each shard's
//! billing-attribution state and rewrite only when the shard committed
//! something since the last checkpoint.

pub mod manifest;
pub mod planner;
pub mod pool;
pub mod reconcile;

pub use manifest::{ShardRef, ShardSnapshot, ShardState};
pub use planner::ShardPlanner;
pub use pool::{ShardSolve, SlotDirectives, WorkerPool};

use crate::fallback::FallbackChain;
use crate::runtime::RuntimeConfig;
use postcard_net::{Network, TrafficLedger, TransferRequest};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How a batch is partitioned into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardBy {
    /// By the owning tenant encoded in the high bits of each
    /// [`postcard_net::FileId`] (see [`postcard_net::FileId::for_tenant`]).
    Tenant,
    /// By the source datacenter (region) of each request.
    Region,
}

impl ShardBy {
    /// Stable name used in CLI flags and snapshots.
    pub fn name(&self) -> &'static str {
        match self {
            ShardBy::Tenant => "tenant",
            ShardBy::Region => "region",
        }
    }
}

impl std::fmt::Display for ShardBy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ShardBy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tenant" => Ok(ShardBy::Tenant),
            "region" => Ok(ShardBy::Region),
            other => Err(format!("unknown shard key `{other}` (expected tenant|region)")),
        }
    }
}

/// Owns the long-lived shard worker pool (each worker holding its shard's
/// fallback chain) and the billing-attribution states, and orchestrates one
/// partitioned slot: parallel solve → reconcile → attribution.
#[derive(Debug)]
pub struct ShardEngine {
    pool: WorkerPool,
    states: Vec<ShardState>,
    /// Per-shard stamp of the last checkpointed state, used to skip
    /// rewriting unchanged shard snapshot files.
    saved_stamps: Vec<Option<u64>>,
}

impl ShardEngine {
    /// Builds an engine with fresh (zeroed) shard states from a validated
    /// sharded config.
    pub fn new(config: &RuntimeConfig, num_dcs: usize) -> Self {
        let states = (0..config.shards).map(|_| ShardState::new(num_dcs)).collect();
        Self::with_states(config, states)
    }

    /// Builds an engine over restored shard states (resume path).
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != config.shards` — the manifest loader
    /// checks this before calling.
    pub fn with_states(config: &RuntimeConfig, states: Vec<ShardState>) -> Self {
        assert_eq!(states.len(), config.shards, "one state per shard");
        let chains = (0..config.shards).map(|_| FallbackChain::new(config)).collect();
        Self { pool: WorkerPool::new(chains), states, saved_stamps: vec![None; config.shards] }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.pool.len()
    }

    /// Per-shard billing-attribution states (index = shard).
    pub fn states(&self) -> &[ShardState] {
        &self.states
    }

    /// Per-shard saved-stamp bookkeeping for checkpoint writes (index =
    /// shard; `None` forces a rewrite at the next checkpoint).
    pub fn saved_stamps_mut(&mut self) -> &mut Vec<Option<u64>> {
        &mut self.saved_stamps
    }

    /// Runs one slot over pre-partitioned batches: parallel optimistic
    /// solves, then the deterministic ordered merge with serial conflict
    /// re-solves, then shard-state (billing attribution) updates. Returns
    /// the per-shard resolutions (index = shard).
    ///
    /// `ledger` is the central committed ledger. Every worker admits onto
    /// its own copy of it as of the slot start; the merge then books the
    /// admissions of the non-degraded shards onto it, in shard order, and
    /// the caller records them with
    /// [`postcard_core::OnlineController::record_booked`].
    pub fn run_slot(
        &mut self,
        network: &Arc<Network>,
        ledger: &mut TrafficLedger,
        batches: &[Vec<TransferRequest>],
        directives: &SlotDirectives,
    ) -> Vec<ShardSolve> {
        let solves = self.pool.solve_parallel(network, ledger, batches, directives);
        let resolutions =
            reconcile::reconcile(network, ledger, solves, &mut self.pool, batches, directives);
        for solve in resolutions.iter().filter(|s| !s.degraded) {
            self.states[solve.shard].record(&solve.admission, directives.slot);
        }
        resolutions
    }
}
