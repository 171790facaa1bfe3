//! The sharded multi-tenant runtime: parallel per-shard solves, one central
//! ledger.
//!
//! A production inter-datacenter controller serves many tenants whose
//! transfers share link capacity but decompose almost cleanly by owner.
//! This module exploits that structure: each slot's admitted batch is
//! partitioned by tenant or source region ([`ShardPlanner`]), every shard's
//! subproblem runs its own solver fallback chain on a scoped thread against
//! a copy of the central ledger as of the slot start ([`pool`]), and a
//! deterministic [`reconcile`] pass merges the shard plans back into the
//! single percentile-billing ledger — validating each shard's decisions
//! against the traffic already merged ahead of it and re-solving any shard
//! whose optimistic plan over-committed a shared link in place on it.
//!
//! Determinism is the design constraint that shapes everything here: shard
//! threads are joined in shard-index order, the merge order is fixed, and
//! conflict re-solves run on the calling thread in that same order, so an N-shard
//! run produces byte-identical ledgers, metrics, and snapshots on every
//! execution regardless of thread scheduling. Wall-clock solve times are
//! the one unavoidably non-deterministic observable; they are exported
//! through a separate, never-snapshotted metrics registry (see
//! [`crate::Runtime::wall_metrics`]).
//!
//! Checkpointing needs nothing from this module: the merged admissions
//! live on the central ledger, so a sharded checkpoint is the same single
//! [`crate::RuntimeSnapshot`] file an unsharded run writes.

pub mod planner;
pub mod pool;
pub mod reconcile;

pub use planner::ShardPlanner;
pub use pool::{ShardSolve, SlotDirectives};

use serde::{Deserialize, Serialize};

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
