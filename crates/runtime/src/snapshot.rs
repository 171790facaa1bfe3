//! Versioned, self-contained runtime snapshots.
//!
//! A snapshot carries *everything* a continuation needs — topology (with any
//! degradations already applied), remaining arrivals, fault plan, controller
//! state, metrics, and position — so `postcard resume` works from the file
//! alone. Snapshots are JSON: the vendored serializer prints `f64`s with
//! Rust's shortest-round-trip formatting, which is what makes a resumed run
//! *bit-identical* to the uninterrupted one rather than merely close.
//!
//! Writes are atomic (temp file + rename) so a crash during checkpointing
//! leaves the previous snapshot intact — the whole point of checkpointing a
//! crash-safe service.

use crate::faults::FaultPlan;
use crate::metrics::MetricsRegistry;
use crate::queue::QueuedRequest;
use crate::runtime::RuntimeConfig;
use postcard_core::ControllerState;
use postcard_net::{DcId, Network, NetworkBuilder, Trace};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current snapshot format version.
///
/// History: v1 — initial format; v2 — `RuntimeConfig` gained
/// `strict_analysis` (the vendored serde shim treats missing fields as
/// errors, so the addition is a format break); v3 — `RuntimeConfig` gained
/// `warm_start` and `HistogramSummary` gained percentile buckets; v4 — the
/// snapshot carries the admission-queue backlog (requests plus requeue
/// counts) and `RuntimeConfig` gained `max_requeue_attempts`, so a run
/// killed with a non-empty backlog resumes bit-identically; v5 — the
/// snapshot carries the queue's dropped-at-the-door counter (previously
/// lost on resume) and `RuntimeConfig` gained `alap` and `reopt_every`;
/// v6 — sharded checkpoints: the snapshot doubles as the manifest over
/// per-shard snapshot files (`shard_refs`) and `RuntimeConfig` gained
/// `shards` and `shard_by`; v7 — `RuntimeConfig` gained `incremental`
/// (standing slot-over-slot formulation + dual simplex re-solve); v8 —
/// billing windows: `RuntimeConfig` gained `charging`, `FaultPlan` gained
/// `price_changes` and `maintenance`, and the snapshot carries
/// `pending_restores` (capacities to put back when maintenance windows
/// end — the restore value is only known once the outage starts, so a run
/// killed mid-maintenance needs it to resume bit-identically). Later,
/// `RuntimeConfig` lost `warm_start` and `incremental`, and the snapshot
/// lost `shard_refs` (a sharded checkpoint is now this one file), all
/// without a version bump: fields are looked up by name and extra keys are
/// ignored, so v8 checkpoints that still carry them load. The
/// `<stem>.shard<i>-<stamp>.json` files older sharded checkpoints wrote
/// next to the snapshot are no longer read and can be deleted by hand.
pub const SNAPSHOT_VERSION: u32 = 8;

/// One directed link, flattened for serialization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkRecord {
    /// Source datacenter id.
    pub from: usize,
    /// Destination datacenter id.
    pub to: usize,
    /// Price per GB of the billed peak.
    pub price: f64,
    /// Capacity in GB per slot.
    pub capacity: f64,
}

/// The complete persisted state of a [`crate::Runtime`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The runtime configuration (tiers, budget, clock, …).
    pub config: RuntimeConfig,
    /// Number of datacenters (kept explicitly: links alone cannot represent
    /// trailing isolated datacenters).
    pub num_dcs: usize,
    /// Current links — capacities reflect degradations applied so far.
    pub links: Vec<LinkRecord>,
    /// The full arrival trace (past and future slots).
    pub arrivals: Trace,
    /// The fault plan (past and future slots).
    pub faults: FaultPlan,
    /// The admission-queue backlog at the snapshot boundary, oldest first
    /// (requests keep their original release slots; re-stamping happens at
    /// drain time).
    pub queue: Vec<QueuedRequest>,
    /// Total requests dropped at the admission-queue door so far. Restored
    /// on resume so overload accounting matches the uninterrupted run.
    pub queue_dropped: u64,
    /// The online controller's mutable state.
    pub controller: ControllerState,
    /// Metrics accumulated so far.
    pub metrics: MetricsRegistry,
    /// Maintenance restores still owed: the capacity each link returns to
    /// (and when) for outages in progress at the snapshot boundary.
    pub pending_restores: Vec<crate::faults::LinkDegradation>,
    /// The first slot the continuation must run.
    pub next_slot: u64,
    /// One past the last slot of the run.
    pub num_slots: u64,
}

impl RuntimeSnapshot {
    /// Flattens a network into link records (paired with
    /// [`RuntimeSnapshot::rebuild_network`]).
    pub fn links_of(network: &Network) -> Vec<LinkRecord> {
        network
            .links()
            .map(|l| LinkRecord {
                from: l.from.0,
                to: l.to.0,
                price: l.price,
                capacity: l.capacity,
            })
            .collect()
    }

    /// Rebuilds the network from the snapshot's topology fields.
    pub fn rebuild_network(&self) -> Network {
        let mut b = NetworkBuilder::new(self.num_dcs);
        for l in &self.links {
            b = b.link(DcId(l.from), DcId(l.to), l.price, l.capacity);
        }
        b.build()
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses and version-checks a snapshot.
    ///
    /// The version is probed from the raw JSON *before* the typed decode:
    /// older formats are missing fields the current struct requires, and a
    /// "missing field" error would hide the real problem. This is what makes
    /// the documented "unsupported version" error reachable for v1–v3 files.
    ///
    /// # Errors
    ///
    /// Reports malformed JSON or an unsupported version.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = serde::json::parse(text).map_err(|e| format!("malformed snapshot: {e}"))?;
        let map = value.as_map().ok_or("malformed snapshot: not a JSON object")?;
        let version_value =
            serde::field(map, "version", "RuntimeSnapshot").map_err(|e| format!("{e}"))?;
        let version =
            u32::deserialize(version_value).map_err(|e| format!("malformed snapshot: {e}"))?;
        if version != SNAPSHOT_VERSION {
            return Err(format!(
                "snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})"
            ));
        }
        let snap: RuntimeSnapshot =
            RuntimeSnapshot::deserialize(&value).map_err(|e| format!("malformed snapshot: {e}"))?;
        Ok(snap)
    }

    /// Writes the snapshot atomically: a sibling temp file is written,
    /// flushed, then renamed over `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the previous snapshot, if any, survives).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("renaming {} -> {}: {e}", tmp.display(), path.display()))
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    ///
    /// Reports I/O failures, malformed JSON, or an unsupported version.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_net::TrafficLedger;

    fn sample() -> RuntimeSnapshot {
        let network = NetworkBuilder::new(3)
            .link(DcId(1), DcId(2), 10.0, 100.0)
            .link(DcId(1), DcId(0), 1.0, f64::INFINITY)
            .build();
        RuntimeSnapshot {
            version: SNAPSHOT_VERSION,
            config: RuntimeConfig::default(),
            num_dcs: network.num_dcs(),
            links: RuntimeSnapshot::links_of(&network),
            arrivals: Trace::default(),
            faults: FaultPlan::none(),
            queue: vec![QueuedRequest {
                request: postcard_net::TransferRequest::new(
                    postcard_net::FileId(9),
                    DcId(1),
                    DcId(2),
                    4.5,
                    3,
                    1,
                ),
                attempts: 1,
            }],
            queue_dropped: 3,
            controller: ControllerState {
                ledger: TrafficLedger::new(3),
                cost_history: vec![0.1 + 0.2, 1.0 / 3.0],
                total_accepted: 2,
                total_rejected: 1,
                accepted_volume: 15.5,
                rejected_volume: 100.0,
            },
            metrics: MetricsRegistry::new(),
            pending_restores: vec![crate::faults::LinkDegradation {
                slot: 5,
                from: 1,
                to: 2,
                capacity: 100.0,
            }],
            next_slot: 2,
            num_slots: 10,
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample();
        let back = RuntimeSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // Bit-exactness of the awkward floats, explicitly.
        assert_eq!(back.controller.cost_history[0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(back.controller.cost_history[1].to_bits(), (1.0f64 / 3.0).to_bits());
    }

    #[test]
    fn network_rebuild_preserves_links_and_infinite_capacity() {
        let snap = sample();
        let net = snap.rebuild_network();
        assert_eq!(net.num_dcs(), 3);
        assert_eq!(net.capacity(DcId(1), DcId(0)), Some(f64::INFINITY));
        assert_eq!(net.price(DcId(1), DcId(2)), Some(10.0));
        assert_eq!(net.capacity(DcId(0), DcId(2)), None);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut snap = sample();
        snap.version = 99;
        let err = RuntimeSnapshot::from_json(&snap.to_json()).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
    }

    #[test]
    fn old_versions_fail_with_version_error_not_missing_field() {
        // A v5 file lacks `pending_restores` (and `shards`, `shard_by` and
        // `charging` in the config). The version must be probed *before*
        // the typed decode, so the user sees the real problem, not a
        // decoding artifact.
        for old in [3, 4, 5, 7] {
            let err = RuntimeSnapshot::from_json(&format!(r#"{{"version": {old}}}"#)).unwrap_err();
            assert!(err.contains(&format!("snapshot version {old} unsupported")), "{err}");
            assert!(!err.contains("missing field"), "{err}");
        }
        // Non-object and version-less documents still report clearly.
        let err = RuntimeSnapshot::from_json("[1, 2]").unwrap_err();
        assert!(err.contains("not a JSON object"), "{err}");
        let err = RuntimeSnapshot::from_json("{}").unwrap_err();
        assert!(err.contains("missing field `version`"), "{err}");
    }

    #[test]
    fn save_and_load_round_trip() {
        let snap = sample();
        let dir = std::env::temp_dir();
        let path = dir.join("postcard_runtime_snapshot_test.json");
        snap.save(&path).unwrap();
        let back = RuntimeSnapshot::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, snap);
    }
}
