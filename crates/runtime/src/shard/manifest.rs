//! Per-shard snapshot files and the checkpoint manifest protocol.
//!
//! A sharded checkpoint is one manifest (the ordinary
//! [`RuntimeSnapshot`], which still carries the *full* global state — so
//! resume correctness never depends on the shard files) plus one snapshot
//! file per shard holding that shard's billing-attribution state. Shard
//! files are content-stamped: the file name embeds the stamp of the state
//! it holds, and a shard whose state did not change since the last
//! checkpoint is not rewritten.
//!
//! The write protocol is crash-safe at every kill point:
//!
//! 1. Changed shard files are written first, each atomically (temp +
//!    rename) under a *new* stamped name — the files the current manifest
//!    references are never touched.
//! 2. The manifest is renamed into place, atomically switching the
//!    checkpoint to the new shard-file set.
//! 3. Orphaned shard files (stamped names no manifest references any more)
//!    are deleted. A crash before this step leaves garbage, never
//!    corruption: the manifest only ever references files that were
//!    durable before it was.

use crate::snapshot::{RuntimeSnapshot, SNAPSHOT_VERSION};
use postcard_core::Admission;
use postcard_net::TrafficLedger;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One shard's slice of the runtime state: its attributed share of the
/// traffic ledger and its admission tallies.
///
/// The central controller remains the single source of billing truth; the
/// per-shard ledger attributes that traffic to the shard that committed
/// it, which is what a per-tenant bill needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardState {
    /// Traffic committed by this shard, on the full network grid.
    pub ledger: TrafficLedger,
    /// Files this shard admitted.
    pub accepted: u64,
    /// Files this shard rejected.
    pub rejected: u64,
    /// Volume admitted (GB).
    pub accepted_volume: f64,
    /// Volume rejected (GB).
    pub rejected_volume: f64,
    /// `1 + slot` of the last change, `0` while pristine. Embedded in the
    /// shard snapshot's file name so unchanged shards skip the rewrite.
    pub stamp: u64,
}

impl ShardState {
    /// A pristine state over `num_dcs` datacenters.
    pub fn new(num_dcs: usize) -> Self {
        Self {
            ledger: TrafficLedger::new(num_dcs),
            accepted: 0,
            rejected: 0,
            accepted_volume: 0.0,
            rejected_volume: 0.0,
            stamp: 0,
        }
    }

    /// Attributes one slot's committed admission to this shard: its traffic
    /// and its admission tallies. A slot in which the shard saw no files
    /// leaves the state (and its stamp) untouched.
    pub fn record(&mut self, admission: &Admission, slot: u64) {
        if admission.accepted().next().is_none() && admission.rejected.is_empty() {
            return;
        }
        for (files, decision) in &admission.commits {
            decision.apply_to_ledger(files, &mut self.ledger);
        }
        self.accepted += admission.accepted().count() as u64;
        self.rejected += admission.rejected.len() as u64;
        self.accepted_volume += admission.accepted().map(|f| f.size_gb).sum::<f64>();
        self.rejected_volume += admission.rejected.iter().map(|f| f.size_gb).sum::<f64>();
        self.stamp = slot + 1;
    }
}

/// The on-disk form of one shard's state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Format version — moves in lockstep with [`SNAPSHOT_VERSION`].
    pub version: u32,
    /// The shard index.
    pub shard: usize,
    /// The state's stamp, duplicated from [`ShardState::stamp`] so a
    /// misnamed or swapped file is detected against the manifest.
    pub stamp: u64,
    /// The shard's state.
    pub state: ShardState,
}

impl ShardSnapshot {
    /// Serializes to pretty JSON (same bit-exact float round-tripping as
    /// the manifest).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses and version-checks a shard snapshot (version probed before
    /// the typed decode, as for [`RuntimeSnapshot::from_json`]).
    ///
    /// # Errors
    ///
    /// Reports malformed JSON or an unsupported version.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value =
            serde::json::parse(text).map_err(|e| format!("malformed shard snapshot: {e}"))?;
        let map = value.as_map().ok_or("malformed shard snapshot: not a JSON object")?;
        let version_value =
            serde::field(map, "version", "ShardSnapshot").map_err(|e| format!("{e}"))?;
        let version = u32::deserialize(version_value)
            .map_err(|e| format!("malformed shard snapshot: {e}"))?;
        if version != SNAPSHOT_VERSION {
            return Err(format!(
                "shard snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})"
            ));
        }
        ShardSnapshot::deserialize(&value).map_err(|e| format!("malformed shard snapshot: {e}"))
    }

    /// Writes the shard snapshot atomically (temp + rename).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("renaming {} -> {}: {e}", tmp.display(), path.display()))
    }

    /// Reads and parses a shard snapshot file.
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

/// A manifest entry pointing at one shard's snapshot file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRef {
    /// The shard index.
    pub shard: usize,
    /// Snapshot file name, relative to the manifest's directory.
    pub file: String,
    /// Stamp the referenced file must carry.
    pub stamp: u64,
}

/// The stamped file name for shard `shard` of manifest stem `stem`.
fn shard_file_name(stem: &str, shard: usize, stamp: u64) -> String {
    format!("{stem}.shard{shard}-{stamp}.json")
}

/// Whether `name` is a shard snapshot file belonging to manifest `stem`
/// (any shard, any stamp).
fn is_shard_file_of(stem: &str, name: &str) -> bool {
    let Some(rest) = name.strip_prefix(stem).and_then(|r| r.strip_prefix(".shard")) else {
        return false;
    };
    let Some(body) = rest.strip_suffix(".json") else {
        return false;
    };
    match body.split_once('-') {
        Some((shard, stamp)) => {
            !shard.is_empty()
                && !stamp.is_empty()
                && shard.bytes().all(|b| b.is_ascii_digit())
                && stamp.bytes().all(|b| b.is_ascii_digit())
        }
        None => false,
    }
}

/// Writes a sharded checkpoint: changed shard files, then the manifest,
/// then orphan cleanup (see the module docs for the crash-safety
/// argument).
///
/// `saved_stamps[i]` is the stamp of shard `i`'s last durably written
/// file (`None` forces a write); it is updated in place as files land.
///
/// # Errors
///
/// Propagates I/O failures; the previously checkpointed manifest and the
/// files it references survive any failure.
pub fn save_sharded(
    path: &Path,
    mut snap: RuntimeSnapshot,
    states: &[ShardState],
    saved_stamps: &mut [Option<u64>],
) -> Result<(), String> {
    assert_eq!(states.len(), saved_stamps.len(), "one saved stamp per shard");
    let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
    let stem = path
        .file_stem()
        .ok_or_else(|| format!("checkpoint path {} has no file name", path.display()))?
        .to_string_lossy()
        .into_owned();

    let mut refs = Vec::with_capacity(states.len());
    for (shard, state) in states.iter().enumerate() {
        let name = shard_file_name(&stem, shard, state.stamp);
        let file_path = dir.join(&name);
        if saved_stamps[shard] != Some(state.stamp) || !file_path.exists() {
            ShardSnapshot {
                version: SNAPSHOT_VERSION,
                shard,
                stamp: state.stamp,
                state: state.clone(),
            }
            .save(&file_path)?;
            saved_stamps[shard] = Some(state.stamp);
        }
        refs.push(ShardRef { shard, file: name, stamp: state.stamp });
    }

    snap.shard_refs = refs.clone();
    snap.save(path)?;

    // Step 3: sweep stamped names no longer referenced. Best-effort — a
    // failure here leaves garbage the next sweep retries, never a broken
    // checkpoint.
    let keep: Vec<&str> = refs.iter().map(|r| r.file.as_str()).collect();
    if let Ok(entries) =
        std::fs::read_dir(if dir.as_os_str().is_empty() { Path::new(".") } else { &dir })
    {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if is_shard_file_of(&stem, &name) && !keep.contains(&name.as_ref()) {
                std::fs::remove_file(entry.path()).ok();
            }
        }
    }
    Ok(())
}

/// Loads the shard states a manifest references, in shard order.
///
/// # Errors
///
/// Reports missing or unreadable files, version mismatches, out-of-order
/// or incomplete manifests, and files whose embedded shard/stamp disagree
/// with the manifest (a swapped or stale file).
pub fn load_shard_states(
    manifest_path: &Path,
    refs: &[ShardRef],
    expected_shards: usize,
) -> Result<Vec<ShardState>, String> {
    if refs.len() != expected_shards {
        return Err(format!(
            "manifest references {} shard snapshots but the config declares {} shards",
            refs.len(),
            expected_shards
        ));
    }
    let dir = manifest_path.parent().map(Path::to_path_buf).unwrap_or_default();
    let mut states = Vec::with_capacity(refs.len());
    for (i, r) in refs.iter().enumerate() {
        if r.shard != i {
            return Err(format!(
                "manifest shard refs out of order: position {i} references shard {}",
                r.shard
            ));
        }
        let snap = ShardSnapshot::load(&dir.join(&r.file))?;
        if snap.shard != r.shard || snap.stamp != r.stamp {
            return Err(format!(
                "shard snapshot {} does not match its manifest entry \
                 (file is shard {} stamp {}, manifest expects shard {} stamp {})",
                r.file, snap.shard, snap.stamp, r.shard, r.stamp
            ));
        }
        states.push(snap.state);
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalSchedule;
    use crate::faults::FaultPlan;
    use crate::metrics::MetricsRegistry;
    use crate::runtime::RuntimeConfig;
    use postcard_core::{ControllerState, Decision};
    use postcard_net::{DcId, FileId, NetworkBuilder, TransferPlan, TransferRequest};
    use std::path::PathBuf;

    fn manifest_sample(num_dcs: usize) -> RuntimeSnapshot {
        let network = NetworkBuilder::new(num_dcs).link(DcId(0), DcId(1), 1.0, 100.0).build();
        RuntimeSnapshot {
            version: SNAPSHOT_VERSION,
            config: RuntimeConfig::default(),
            num_dcs,
            links: RuntimeSnapshot::links_of(&network),
            arrivals: ArrivalSchedule::default(),
            faults: FaultPlan::none(),
            queue: Vec::new(),
            queue_dropped: 0,
            controller: ControllerState {
                ledger: TrafficLedger::new(num_dcs),
                cost_history: vec![0.1 + 0.2],
                total_accepted: 0,
                total_rejected: 0,
                accepted_volume: 0.0,
                rejected_volume: 0.0,
            },
            metrics: MetricsRegistry::new(),
            pending_restores: Vec::new(),
            shard_refs: Vec::new(),
            next_slot: 0,
            num_slots: 4,
        }
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("postcard_manifest_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn stamped_state(num_dcs: usize, slot: u64) -> ShardState {
        let mut s = ShardState::new(num_dcs);
        let f = TransferRequest::new(FileId(1), DcId(0), DcId(1), 3.0, 2, slot);
        let mut plan = TransferPlan::new();
        plan.add(FileId(1), slot, DcId(0), DcId(1), 3.0);
        let admission =
            Admission { commits: vec![(vec![f], Decision::Plan(plan))], rejected: Vec::new() };
        s.record(&admission, slot);
        s
    }

    #[test]
    fn state_stamps_only_on_change() {
        let mut s = ShardState::new(2);
        assert_eq!(s.stamp, 0);
        s.record(&Admission::default(), 7);
        assert_eq!(s.stamp, 0, "an idle slot must not dirty the state");
        let file = |id, size| TransferRequest::new(FileId(id), DcId(0), DcId(1), size, 2, 0);
        let admission = Admission {
            commits: vec![(vec![file(1, 2.0), file(2, 3.0)], Decision::Plan(TransferPlan::new()))],
            rejected: vec![file(3, 1.0)],
        };
        s.record(&admission, 0);
        assert_eq!(s.stamp, 1, "slot 0 activity must be distinguishable from pristine");
        assert_eq!((s.accepted, s.rejected), (2, 1));
    }

    #[test]
    fn shard_snapshot_round_trips_bit_exactly() {
        let state = stamped_state(2, 3);
        let snap = ShardSnapshot { version: SNAPSHOT_VERSION, shard: 1, stamp: state.stamp, state };
        let back = ShardSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn shard_snapshot_version_is_probed_first() {
        let err = ShardSnapshot::from_json(r#"{"version": 5}"#).unwrap_err();
        assert!(err.contains("shard snapshot version 5 unsupported"), "{err}");
        assert!(!err.contains("missing field"), "{err}");
    }

    #[test]
    fn save_writes_manifest_and_shard_files_and_resume_round_trips() {
        let dir = scratch_dir("round_trip");
        let path = dir.join("ckpt.json");
        let states = vec![stamped_state(2, 0), ShardState::new(2)];
        let mut stamps = vec![None, None];
        save_sharded(&path, manifest_sample(2), &states, &mut stamps).unwrap();

        let manifest = RuntimeSnapshot::load(&path).unwrap();
        assert_eq!(manifest.shard_refs.len(), 2);
        assert_eq!(manifest.shard_refs[0].file, "ckpt.shard0-1.json");
        assert_eq!(manifest.shard_refs[1].file, "ckpt.shard1-0.json");
        let back = load_shard_states(&path, &manifest.shard_refs, 2).unwrap();
        assert_eq!(back, states);
        assert_eq!(stamps, vec![Some(1), Some(0)]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unchanged_shard_files_are_not_rewritten() {
        let dir = scratch_dir("skip_rewrite");
        let path = dir.join("ckpt.json");
        let states = vec![stamped_state(2, 0)];
        let mut stamps = vec![None];
        save_sharded(&path, manifest_sample(2), &states, &mut stamps).unwrap();
        // Scribble on the shard file; a second checkpoint with the same
        // stamp must leave it alone.
        let shard_file = dir.join("ckpt.shard0-1.json");
        std::fs::write(&shard_file, "scribble").unwrap();
        save_sharded(&path, manifest_sample(2), &states, &mut stamps).unwrap();
        assert_eq!(std::fs::read_to_string(&shard_file).unwrap(), "scribble");
        // But a `None` stamp (fresh resume) forces the rewrite.
        let mut stamps = vec![None];
        save_sharded(&path, manifest_sample(2), &states, &mut stamps).unwrap();
        assert_ne!(std::fs::read_to_string(&shard_file).unwrap(), "scribble");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_stamped_files_are_swept() {
        let dir = scratch_dir("orphans");
        let path = dir.join("ckpt.json");
        let orphan = dir.join("ckpt.shard0-9.json");
        std::fs::write(&orphan, "old").unwrap();
        let unrelated = dir.join("other.shard0-9.json");
        std::fs::write(&unrelated, "keep").unwrap();
        let states = vec![stamped_state(2, 0)];
        let mut stamps = vec![None];
        save_sharded(&path, manifest_sample(2), &states, &mut stamps).unwrap();
        assert!(!orphan.exists(), "stale stamped file must be swept");
        assert!(unrelated.exists(), "files of other manifests are untouched");
        assert!(dir.join("ckpt.shard0-1.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_shard_file_is_rejected() {
        let dir = scratch_dir("mismatch");
        let path = dir.join("ckpt.json");
        let states = vec![stamped_state(2, 0), stamped_state(2, 1)];
        let mut stamps = vec![None, None];
        save_sharded(&path, manifest_sample(2), &states, &mut stamps).unwrap();
        let manifest = RuntimeSnapshot::load(&path).unwrap();
        // Swap the two shard files behind the manifest's back.
        let a = dir.join(&manifest.shard_refs[0].file);
        let b = dir.join(&manifest.shard_refs[1].file);
        let tmp = dir.join("swap.tmp");
        std::fs::rename(&a, &tmp).unwrap();
        std::fs::rename(&b, &a).unwrap();
        std::fs::rename(&tmp, &b).unwrap();
        let err = load_shard_states(&path, &manifest.shard_refs, 2).unwrap_err();
        assert!(err.contains("does not match its manifest entry"), "{err}");
        // Wrong shard count is caught before any file is touched.
        let err = load_shard_states(&path, &manifest.shard_refs, 3).unwrap_err();
        assert!(err.contains("declares 3 shards"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_file_name_matching_is_strict() {
        assert!(is_shard_file_of("ckpt", "ckpt.shard0-1.json"));
        assert!(is_shard_file_of("ckpt", "ckpt.shard12-40.json"));
        assert!(!is_shard_file_of("ckpt", "ckpt.json"));
        assert!(!is_shard_file_of("ckpt", "other.shard0-1.json"));
        assert!(!is_shard_file_of("ckpt", "ckpt.shard0-1.tmp"));
        assert!(!is_shard_file_of("ckpt", "ckpt.shardx-1.json"));
        assert!(!is_shard_file_of("ckpt", "ckpt.shard0.json"));
    }
}
