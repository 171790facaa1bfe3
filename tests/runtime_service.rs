//! End-to-end acceptance tests of the crash-safe controller service.
//!
//! The two headline properties of `postcard-runtime`:
//!
//! 1. **Crash-safety** — killing a run at an arbitrary slot and resuming
//!    from the latest checkpoint reproduces the uninterrupted run *bit for
//!    bit* (final bill, full cost history, metrics).
//! 2. **Fault-tolerance** — with the Postcard LP forced to time out, the
//!    fallback chain still commits a valid decision every slot, no file is
//!    lost to the fault, and every activation is visible in the metrics.
//!
//! Validity of every committed decision (capacity, ledger residuals, and
//! delivery-by-deadline) is enforced by the controller's debug assertions,
//! which are active in these test builds: any committed plan that missed a
//! deadline would abort the test.
//!
//! Since snapshot v4 the crash-safety property also covers the admission
//! backlog: a run killed while carrying requeued work resumes bit-identically
//! because the queue contents (and requeue counts) travel in the checkpoint.
//! Snapshot v5 extends that to the queue's overflow accounting
//! (`queue_dropped`) and to runs with the ALAP fast-path rung enabled.
//! Snapshot v6 adds the `shards` / `shard_by` config fields, and v8 the
//! billing-window state, so v7 and older snapshots are rejected by the
//! version probe. A sharded checkpoint is the same one snapshot file;
//! sharded crash/resume is exercised in `tests/shard.rs`.

use postcard::net::{
    ChargingScheme, DcId, FileId, Network, NetworkBuilder, Trace, TransferRequest,
};
use postcard::runtime::{FaultPlan, Runtime, RuntimeConfig, RuntimeSnapshot, TierKind};
use postcard::sim::{UniformWorkload, WorkloadConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A complete network with ample capacity (feasible for every tier) and
/// seed-determined prices, plus a small multi-slot arrival schedule.
fn instance(seed: u64, num_slots: u64) -> (Network, Trace) {
    let mut rng = StdRng::seed_from_u64(seed);
    let network = Network::complete_with_prices(4, 500.0, |_, _| rng.gen_range(1.0..=10.0));
    let mut workload = UniformWorkload::new(
        WorkloadConfig {
            num_dcs: 4,
            files_per_slot: (1, 3),
            size_gb: (5.0, 20.0),
            deadline_slots: (1, 3),
        },
        seed ^ 0x00C0_FFEE,
    );
    (network, Trace::generate(&mut workload, num_slots))
}

fn ckpt_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("postcard-runtime-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn kill_at_any_slot_and_resume_matches_uninterrupted_run() {
    const SLOTS: u64 = 8;
    let faults = FaultPlan::none().force_timeout(3, TierKind::Postcard);
    let (network, arrivals) = instance(11, SLOTS);

    let mut full = Runtime::new(
        network.clone(),
        arrivals.clone(),
        faults.clone(),
        SLOTS,
        RuntimeConfig::default(),
    )
    .unwrap();
    full.run_to_end().unwrap();
    // The horizon extends past `SLOTS` so files released near the end keep
    // their full deadline windows.
    assert!(full.cost_history().len() as u64 >= SLOTS);

    for kill_at in [1, 3, 5, 7] {
        let path = ckpt_path(&format!("kill_at_{kill_at}.json"));
        let config = RuntimeConfig {
            checkpoint_every: 1,
            checkpoint_path: Some(path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let mut victim =
            Runtime::new(network.clone(), arrivals.clone(), faults.clone(), SLOTS, config).unwrap();
        for _ in 0..kill_at {
            victim.run_slot().unwrap().expect("slot within the run");
        }
        drop(victim); // the crash: no graceful shutdown, no final checkpoint

        let mut resumed = Runtime::resume(&path).unwrap();
        assert_eq!(resumed.next_slot(), kill_at);
        resumed.run_to_end().unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(
            resumed.cost_history().len(),
            full.cost_history().len(),
            "kill at {kill_at}: missing slots"
        );
        for (slot, (a, b)) in resumed.cost_history().iter().zip(full.cost_history()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "kill at {kill_at}: cost diverged at slot {slot} ({a} vs {b})"
            );
        }
        assert_eq!(
            resumed.final_cost_per_slot().to_bits(),
            full.final_cost_per_slot().to_bits(),
            "kill at {kill_at}: final bill diverged"
        );
        assert_eq!(
            resumed.controller().export_state(),
            full.controller().export_state(),
            "kill at {kill_at}: controller state diverged"
        );
    }
}

#[test]
fn strict_kill_at_any_slot_resumes_byte_for_byte() {
    // Under strict analysis the runtime hands the checked Postcard problem
    // to the chain's Postcard tier. That problem is not in the snapshot,
    // so a resumed run must end in exactly the snapshot an uninterrupted
    // one does. Tight capacities
    // make whole batches fail and fall back to per-file admission, and a
    // forced timeout at slot 2 leaves that slot's handed-over problem
    // unused.
    const SLOTS: u64 = 8;
    let mut rng = StdRng::seed_from_u64(41);
    let network = Network::complete_with_prices(4, 30.0, |_, _| rng.gen_range(1.0..=10.0));
    let mut workload = UniformWorkload::new(
        WorkloadConfig {
            num_dcs: 4,
            files_per_slot: (2, 5),
            size_gb: (10.0, 45.0),
            deadline_slots: (1, 3),
        },
        41,
    );
    let arrivals = Trace::generate(&mut workload, SLOTS);
    let faults = FaultPlan::none().force_timeout(2, TierKind::Postcard);
    let path = ckpt_path("strict_kill.json");
    let config = RuntimeConfig {
        strict_analysis: true,
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..Default::default()
    };
    let run = || {
        Runtime::new(network.clone(), arrivals.clone(), faults.clone(), SLOTS, config.clone())
            .unwrap()
    };

    let mut full = run();
    full.run_to_end().unwrap();
    std::fs::remove_file(&path).ok();
    let want = full.snapshot().to_json();
    assert!(full.metrics().counter("files_rejected") > 0, "per-file admission must run");
    assert_eq!(full.metrics().counter("fallback_from_postcard"), 1);

    for kill_at in [1, 2, 3, 5, 7] {
        let mut victim = run();
        for _ in 0..kill_at {
            victim.run_slot().unwrap().expect("slot within the run");
        }
        drop(victim); // the crash: no final checkpoint

        let mut resumed = Runtime::resume(&path).unwrap();
        assert_eq!(resumed.next_slot(), kill_at);
        resumed.run_to_end().unwrap();
        std::fs::remove_file(&path).ok();
        assert!(resumed.snapshot().to_json() == want, "kill at {kill_at}: snapshots differ");
        assert_eq!(resumed.metrics(), full.metrics(), "kill at {kill_at}");
    }
}

#[test]
fn kill_with_non_empty_backlog_resumes_bit_identically() {
    // A request naming an out-of-range datacenter makes the single-tier
    // chain hard-fail at slot 1 (problem construction errors, which is not
    // a per-file infeasibility), so the whole slot-1 batch is requeued and
    // the backlog is non-empty at the very boundary where the checkpoint is
    // written. Resume must carry that backlog — snapshot v4 — to stay
    // bit-identical to the uninterrupted run.
    const SLOTS: u64 = 6;
    let (network, arrivals) = instance(31, SLOTS);
    let mut requests = arrivals.requests().to_vec();
    requests.push(TransferRequest::new(FileId(9_999), DcId(7), DcId(0), 4.0, 4, 1));
    let arrivals = Trace::from_requests(requests);
    let tiers = vec![TierKind::Postcard];

    // Reference run checkpoints on the same cadence (to its own file) so
    // every metric, `checkpoints_written` included, is comparable.
    let full_path = ckpt_path("backlog_full.json");
    let full_config = RuntimeConfig {
        tiers: tiers.clone(),
        checkpoint_every: 1,
        checkpoint_path: Some(full_path.to_string_lossy().into_owned()),
        ..Default::default()
    };
    let mut full =
        Runtime::new(network.clone(), arrivals.clone(), FaultPlan::none(), SLOTS, full_config)
            .unwrap();
    full.run_to_end().unwrap();
    std::fs::remove_file(&full_path).ok();
    assert!(
        full.metrics().counter("requeued_total") > 0,
        "the scenario must actually exercise the backlog"
    );

    let path = ckpt_path("backlog_kill.json");
    let config = RuntimeConfig {
        tiers,
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..Default::default()
    };
    let mut victim = Runtime::new(network, arrivals, FaultPlan::none(), SLOTS, config).unwrap();
    for _ in 0..2 {
        victim.run_slot().unwrap().expect("slot within the run");
    }
    drop(victim); // crash right after the degraded slot requeued its batch

    let snap = RuntimeSnapshot::load(&path).unwrap();
    assert!(!snap.queue.is_empty(), "killed with a non-empty backlog");
    assert!(snap.queue.iter().any(|e| e.attempts > 0), "requeue counts travel in the snapshot");

    let mut resumed = Runtime::resume(&path).unwrap();
    assert_eq!(resumed.next_slot(), 2);
    resumed.run_to_end().unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(resumed.cost_history().len(), full.cost_history().len());
    for (slot, (a, b)) in resumed.cost_history().iter().zip(full.cost_history()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "cost diverged at slot {slot} ({a} vs {b})");
    }
    assert_eq!(resumed.controller().export_state(), full.controller().export_state());
    assert_eq!(resumed.metrics(), full.metrics());
}

#[test]
fn kill_with_alap_and_backlog_resumes_bit_identically_including_drops() {
    // The v5 acceptance scenario: ALAP fast-path admission enabled, a
    // non-empty requeue backlog at the kill boundary, *and* overflow drops
    // at the admission-queue door before the kill. Resume must reproduce
    // the uninterrupted run bit for bit — the restored `dropped` counter
    // included, which only the snapshot (not the metrics export) carries
    // into the continuation's own later checkpoints.
    const SLOTS: u64 = 6;
    let (network, arrivals) = instance(31, SLOTS);
    let mut requests = arrivals.requests().to_vec();
    // Overflow the admission queue at slot 0: more arrivals than capacity.
    for i in 0..10 {
        requests.push(TransferRequest::new(FileId(9_000 + i), DcId(0), DcId(3), 5.0, 3, 0));
    }
    // A request naming an out-of-range datacenter. With the ALAP rung
    // force-timed-out at slot 1, the LP tier hard-fails on it (problem
    // construction, not per-file infeasibility) and the whole slot-1 batch
    // is requeued — a non-empty backlog at the checkpoint boundary.
    requests.push(TransferRequest::new(FileId(9_999), DcId(7), DcId(0), 4.0, 4, 1));
    let arrivals = Trace::from_requests(requests);
    let faults = FaultPlan::none().force_timeout(1, TierKind::Alap);
    let config = |path: &std::path::Path| RuntimeConfig {
        tiers: vec![TierKind::Postcard],
        alap: true,
        reopt_every: 2,
        queue_capacity: 6,
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..Default::default()
    };

    let full_path = ckpt_path("alap_backlog_full.json");
    let mut full =
        Runtime::new(network.clone(), arrivals.clone(), faults.clone(), SLOTS, config(&full_path))
            .unwrap();
    full.run_to_end().unwrap();
    std::fs::remove_file(&full_path).ok();
    assert!(full.metrics().counter("alap_admits") > 0, "ALAP must admit in this scenario");
    assert!(full.metrics().counter("requeued_total") > 0, "the backlog must be exercised");
    assert!(full.metrics().counter("queue_dropped") > 0, "overflow drops must occur");

    let path = ckpt_path("alap_backlog_kill.json");
    let mut victim = Runtime::new(network, arrivals, faults, SLOTS, config(&path)).unwrap();
    for _ in 0..2 {
        victim.run_slot().unwrap().expect("slot within the run");
    }
    drop(victim); // crash right after the degraded slot requeued its batch

    let snap = RuntimeSnapshot::load(&path).unwrap();
    assert_eq!(snap.config.tiers.first(), Some(&TierKind::Alap), "--alap normalized into tiers");
    assert!(!snap.queue.is_empty(), "killed with a non-empty backlog");
    assert!(snap.queue_dropped > 0, "overflow drops happened before the kill");

    let mut resumed = Runtime::resume(&path).unwrap();
    assert_eq!(resumed.next_slot(), 2);
    resumed.run_to_end().unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(resumed.cost_history().len(), full.cost_history().len());
    for (slot, (a, b)) in resumed.cost_history().iter().zip(full.cost_history()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "cost diverged at slot {slot} ({a} vs {b})");
    }
    assert_eq!(resumed.controller().export_state(), full.controller().export_state());
    assert_eq!(resumed.metrics(), full.metrics());
    // The restored dropped counter flows into the continuation's own
    // snapshots — the exact divergence the v5 `restore` fix closes.
    let (a, b) = (resumed.snapshot(), full.snapshot());
    assert!(a.queue_dropped > 0, "dropped counter restored across the kill");
    assert_eq!(a.queue_dropped, b.queue_dropped);
}

#[test]
fn alap_follows_a_mid_run_reprice_and_resumes_across_it() {
    // D1 → D2 direct at price 1 beats the D1 → D0 → D2 relay at 2 + 2 until
    // slot 3 reprices the direct link to 10. D1 → D0 is down over [6, 8).
    // One 10 GB D1 → D2 file per slot with a 2-slot window: ALAP lands it
    // on the direct link in its last slot, or rides the relay across both.
    const SLOTS: u64 = 10;
    const REPRICE: u64 = 3;
    let (d0, d1, d2) = (DcId(0), DcId(1), DcId(2));
    let network = NetworkBuilder::new(3)
        .link(d1, d2, 1.0, 100.0)
        .link(d1, d0, 2.0, 100.0)
        .link(d0, d2, 2.0, 100.0)
        .build();
    let arrivals = Trace::from_requests(
        (0..SLOTS).map(|s| TransferRequest::new(FileId(s), d1, d2, 10.0, 2, s)).collect(),
    );
    let faults = FaultPlan::none().reprice(REPRICE, d1, d2, 10.0).maintain(6, 8, d1, d0);
    let config = |path: &std::path::Path| RuntimeConfig {
        tiers: vec![TierKind::Postcard],
        alap: true,
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..Default::default()
    };

    let full_path = ckpt_path("alap_reprice_full.json");
    let mut full =
        Runtime::new(network.clone(), arrivals.clone(), faults.clone(), SLOTS, config(&full_path))
            .unwrap();
    full.run_to_end().unwrap();
    std::fs::remove_file(&full_path).ok();
    assert_eq!(full.metrics().counter("alap_admits"), SLOTS);
    assert_eq!(full.metrics().counter("price_changes_applied"), 1);
    assert_eq!(full.metrics().counter("maintenance_outages"), 1);
    let ledger = full.controller().ledger();
    for s in 0..SLOTS {
        let direct = ledger.volume(d1, d2, s + 1);
        let relay = ledger.volume(d1, d0, s);
        let on_relay = s >= REPRICE && !(6..8).contains(&s);
        let (want_direct, want_relay) = if on_relay { (0.0, 10.0) } else { (10.0, 0.0) };
        assert_eq!(direct.to_bits(), f64::to_bits(want_direct), "file {s}: direct {direct}");
        assert_eq!(relay.to_bits(), f64::to_bits(want_relay), "file {s}: relay {relay}");
    }

    // Kill before, at and after the reprice (and inside the outage).
    for kill_at in [2, 3, 4, 7] {
        let path = ckpt_path(&format!("alap_reprice_kill_{kill_at}.json"));
        let mut victim =
            Runtime::new(network.clone(), arrivals.clone(), faults.clone(), SLOTS, config(&path))
                .unwrap();
        for _ in 0..kill_at {
            victim.run_slot().unwrap().expect("slot within the run");
        }
        drop(victim);
        let mut resumed = Runtime::resume(&path).unwrap();
        assert_eq!(resumed.next_slot(), kill_at);
        resumed.run_to_end().unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(resumed.cost_history().len(), full.cost_history().len());
        for (slot, (a, b)) in resumed.cost_history().iter().zip(full.cost_history()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "kill at {kill_at}: cost diverged at {slot}");
        }
        assert_eq!(resumed.controller().export_state(), full.controller().export_state());
        assert_eq!(resumed.metrics(), full.metrics(), "kill at {kill_at}");
    }
}

#[test]
fn zero_capacity_outage_removes_link_from_the_slot_schedule() {
    const SLOTS: u64 = 6;
    const OUTAGE_SLOT: u64 = 2;
    let (network, arrivals) = instance(17, SLOTS);
    let (from, to) = (DcId(0), DcId(1));

    // Baseline without the fault: the link carries traffic at or after the
    // outage slot (otherwise the scenario would prove nothing).
    let mut baseline = Runtime::new(
        network.clone(),
        arrivals.clone(),
        FaultPlan::none(),
        SLOTS,
        RuntimeConfig::default(),
    )
    .unwrap();
    baseline.run_to_end().unwrap();
    let baseline_used: f64 =
        (OUTAGE_SLOT..SLOTS).map(|s| baseline.controller().ledger().volume(from, to, s)).sum();
    assert!(baseline_used > 0.0, "pick a seed where the link matters after slot {OUTAGE_SLOT}");

    let faults = FaultPlan::none().degrade(OUTAGE_SLOT, from, to, 0.0);
    let mut rt = Runtime::new(network, arrivals, faults, SLOTS, RuntimeConfig::default()).unwrap();
    rt.run_to_end().unwrap();

    assert_eq!(rt.metrics().counter("degradations_applied"), 1);
    assert_eq!(rt.metrics().counter("degradations_skipped"), 0);
    assert_eq!(rt.controller().network().capacity(from, to), Some(0.0));
    // The dead link carries exactly zero traffic from the outage slot on.
    for slot in OUTAGE_SLOT..SLOTS {
        let volume = rt.controller().ledger().volume(from, to, slot);
        assert_eq!(volume.to_bits(), 0.0f64.to_bits(), "dead link used at slot {slot}: {volume}");
    }
}

#[test]
fn committed_v7_snapshot_fixture_fails_with_version_error() {
    // v7 predates the billing-window work: its config has no `charging`, its
    // fault plan no `price_changes` / `maintenance`, and the snapshot no
    // `pending_restores`. Generated by the actual v7 binary (a real mid-run
    // checkpoint, not hand-written JSON). Only the `version` field matters:
    // the probe must reject it *before* the typed decode, with the
    // documented error, instead of a confusing missing-field message about
    // fields that format never had.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("snapshot_v7.json");
    let err = RuntimeSnapshot::load(&path).unwrap_err();
    assert!(err.contains("snapshot version 7 unsupported (expected 8)"), "{err}");
    assert!(!err.contains("missing field"), "{err}");
    // The operator-facing entry point surfaces the same diagnosis.
    let err = Runtime::resume(&path).unwrap_err();
    assert!(err.to_string().contains("snapshot version 7 unsupported"), "{err}");
}

#[test]
fn v8_checkpoint_with_removed_solver_keys_resumes() {
    // Checkpoints written while `RuntimeConfig` still had `warm_start` and
    // `incremental` carry both keys. Fields are decoded by name, so the
    // stale keys are ignored: such a checkpoint resumes and finishes
    // exactly like the uninterrupted run.
    const SLOTS: u64 = 6;
    let (network, arrivals) = instance(11, SLOTS);
    let mut full = Runtime::new(
        network.clone(),
        arrivals.clone(),
        FaultPlan::none(),
        SLOTS,
        RuntimeConfig::default(),
    )
    .unwrap();
    full.run_to_end().unwrap();

    let mut victim =
        Runtime::new(network, arrivals, FaultPlan::none(), SLOTS, RuntimeConfig::default())
            .unwrap();
    for _ in 0..3 {
        victim.run_slot().unwrap();
    }
    let json = victim.snapshot().to_json();
    let old = json.replacen(
        "\"strict_analysis\": false,",
        "\"strict_analysis\": false,\n    \"warm_start\": true,\n    \"incremental\": true,",
        1,
    );
    assert_ne!(old, json, "the config must carry the removed keys");
    let path = ckpt_path("v8_removed_keys.json");
    std::fs::write(&path, old).unwrap();
    let mut resumed = Runtime::resume(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(resumed.next_slot(), 3);
    resumed.run_to_end().unwrap();

    assert_eq!(resumed.controller().export_state(), full.controller().export_state());
    assert_eq!(resumed.metrics(), full.metrics());
    assert_eq!(resumed.cost_history().len(), full.cost_history().len());
    for (a, b) in resumed.cost_history().iter().zip(full.cost_history()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn sparse_checkpoints_replay_the_gap_identically() {
    // Checkpoint every 3 slots, crash mid-interval: resume rewinds to the
    // last checkpoint and deterministically re-executes the lost slots.
    const SLOTS: u64 = 8;
    let (network, arrivals) = instance(23, SLOTS);
    // The reference run checkpoints on the same cadence (to its own file) so
    // even the `checkpoints_written` counter is comparable at the end.
    let full_path = ckpt_path("sparse_full.json");
    let full_config = RuntimeConfig {
        checkpoint_every: 3,
        checkpoint_path: Some(full_path.to_string_lossy().into_owned()),
        ..Default::default()
    };
    let mut full =
        Runtime::new(network.clone(), arrivals.clone(), FaultPlan::none(), SLOTS, full_config)
            .unwrap();
    full.run_to_end().unwrap();
    std::fs::remove_file(&full_path).ok();

    let path = ckpt_path("sparse.json");
    let config = RuntimeConfig {
        checkpoint_every: 3,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..Default::default()
    };
    let mut victim = Runtime::new(network, arrivals, FaultPlan::none(), SLOTS, config).unwrap();
    for _ in 0..5 {
        victim.run_slot().unwrap();
    }
    drop(victim); // crash at slot 5; the last checkpoint covered slots 0..3

    let mut resumed = Runtime::resume(&path).unwrap();
    assert_eq!(resumed.next_slot(), 3, "resume rewinds to the checkpoint");
    resumed.run_to_end().unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(resumed.cost_history().len(), full.cost_history().len());
    for (a, b) in resumed.cost_history().iter().zip(full.cost_history()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(resumed.metrics(), full.metrics());
}

#[test]
fn resumed_run_checkpoints_to_the_file_it_resumed_from() {
    // A checkpoint copied elsewhere after its original directory is gone:
    // the resumed run must keep checkpointing to the copy, not to the path
    // the snapshot was first written under.
    const SLOTS: u64 = 8;
    let (network, arrivals) = instance(29, SLOTS);
    let dir = ckpt_path("moved_checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    let (origin, moved) = (dir.join("origin"), dir.join("moved"));
    std::fs::create_dir_all(&origin).unwrap();
    std::fs::create_dir_all(&moved).unwrap();
    let config = |path: &std::path::Path| RuntimeConfig {
        checkpoint_every: 2,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..Default::default()
    };
    let mut full = Runtime::new(
        network.clone(),
        arrivals.clone(),
        FaultPlan::none(),
        SLOTS,
        config(&dir.join("full.json")),
    )
    .unwrap();
    full.run_to_end().unwrap();

    let written = origin.join("ck.json");
    let mut victim =
        Runtime::new(network, arrivals, FaultPlan::none(), SLOTS, config(&written)).unwrap();
    for _ in 0..5 {
        victim.run_slot().unwrap();
    }
    drop(victim); // crash at slot 5; the last checkpoint covered slots 0..4
    let copy = moved.join("ck.json");
    std::fs::copy(&written, &copy).unwrap();
    std::fs::remove_dir_all(&origin).unwrap();

    let mut resumed = Runtime::resume(&copy).unwrap();
    assert_eq!(resumed.next_slot(), 4);
    resumed.run_to_end().unwrap();
    assert_eq!(resumed.cost_history().len(), full.cost_history().len());
    for (a, b) in resumed.cost_history().iter().zip(full.cost_history()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(resumed.metrics(), full.metrics());
    assert!(!origin.exists(), "nothing is written under the original path");
    let rewritten = RuntimeSnapshot::load(&copy).unwrap();
    assert!(rewritten.next_slot > 4, "the resumed run rewrote the file it resumed from");
    assert_eq!(rewritten.config.checkpoint_path, Some(copy.to_string_lossy().into_owned()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forced_timeouts_never_miss_a_slot_and_are_all_recorded() {
    const SLOTS: u64 = 6;
    let (network, arrivals) = instance(7, SLOTS);
    assert!(
        (0..SLOTS).all(|s| !arrivals.batch(s).is_empty()),
        "the workload must release files every slot for this test"
    );
    let faults =
        FaultPlan::none().force_timeout(2, TierKind::Postcard).force_timeout(4, TierKind::Postcard);
    let mut rt = Runtime::new(network, arrivals, faults, SLOTS, RuntimeConfig::default()).unwrap();
    let outcomes = rt.run_to_end().unwrap();

    // Every slot committed a decision (validated by debug assertions,
    // including delivery by deadline), nothing was rejected or lost. The
    // horizon may extend past `SLOTS` to cover late deadline windows.
    assert!(outcomes.len() as u64 >= SLOTS);
    assert!(outcomes.iter().all(|o| !o.degraded));
    let (_, rejected) = rt.controller().admission_counts();
    assert_eq!(rejected, 0, "ample capacity: the fault must not cost admissions");
    assert_eq!(rt.metrics().counter("files_lost_degraded"), 0);

    // The faulted slots ran on the fallback tier, the rest on Postcard.
    assert_eq!(outcomes[2].chosen_tier, Some(TierKind::FlowLp));
    assert_eq!(outcomes[4].chosen_tier, Some(TierKind::FlowLp));
    assert_eq!(outcomes[0].chosen_tier, Some(TierKind::Postcard));

    // Each activation is individually visible in the metrics export.
    assert_eq!(rt.metrics().counter("fallback_activations"), 2);
    assert_eq!(rt.metrics().counter("fallback_from_postcard"), 2);
    assert_eq!(rt.metrics().counter("tier_chosen_flow-lp"), 2);
    assert_eq!(rt.metrics().counter("slots_on_fallback_tier"), 2);
    let csv = rt.metrics().to_csv();
    assert!(csv.contains("counter,fallback_activations,0,2"), "{csv}");
    // Fallback solve latency was observed under its own tier label.
    assert!(rt.metrics().histogram("solve_latency_seconds_flow-lp").is_some());
}

/// A 4-DC network with 60 GB links and bursts of up to 12 files per slot,
/// served with the ALAP rung behind the headroom rung of a p80 tariff: the
/// two tiers book onto the same ledger within one slot.
fn alap_under_percentile() -> (Network, Trace, RuntimeConfig) {
    let mut rng = StdRng::seed_from_u64(1);
    let network = Network::complete_with_prices(4, 60.0, |_, _| rng.gen_range(1.0..=10.0));
    let mut workload = UniformWorkload::new(
        WorkloadConfig {
            num_dcs: 4,
            files_per_slot: (1, 12),
            size_gb: (10.0, 60.0),
            deadline_slots: (1, 4),
        },
        1,
    );
    let config = RuntimeConfig {
        alap: true,
        charging: ChargingScheme::Percentile { q: 80.0, window_slots: 20 },
        ..Default::default()
    };
    (network, Trace::generate(&mut workload, 60), config)
}

#[test]
fn alap_behind_headroom_never_books_past_a_link_capacity() {
    // Regression: the ALAP rung's residual grid learned of other tiers'
    // bookings only at the end of a slot whose first commit was not its
    // own, so a headroom commit between two ALAP admissions of one slot
    // was invisible to the second, which overbooked the link.
    let (network, arrivals, config) = alap_under_percentile();
    let mut rt = Runtime::new(network.clone(), arrivals, FaultPlan::none(), 60, config).unwrap();
    rt.run_to_end().unwrap();
    assert!(rt.metrics().counter("alap_admits") > 0, "the ALAP rung must admit");
    assert!(rt.metrics().counter("tier_chosen_headroom") > 0, "the headroom rung must commit too");
    let ledger = rt.controller().ledger();
    for link in network.links() {
        for slot in 0..ledger.horizon() {
            let booked = ledger.volume(link.from, link.to, slot);
            assert!(
                booked <= link.capacity + 1e-6,
                "link {}->{} slot {slot}: {booked} GB booked on {} GB",
                link.from,
                link.to,
                link.capacity
            );
        }
    }
}

#[test]
fn alap_behind_headroom_resumes_bit_identically() {
    const SLOTS: u64 = 60;
    let (network, arrivals, config) = alap_under_percentile();
    let with_checkpoints = |path: &std::path::Path| RuntimeConfig {
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..config.clone()
    };
    let full_path = ckpt_path("alap_headroom_full.json");
    let mut full = Runtime::new(
        network.clone(),
        arrivals.clone(),
        FaultPlan::none(),
        SLOTS,
        with_checkpoints(&full_path),
    )
    .unwrap();
    full.run_to_end().unwrap();
    std::fs::remove_file(&full_path).ok();

    let path = ckpt_path("alap_headroom_kill.json");
    let mut victim =
        Runtime::new(network, arrivals, FaultPlan::none(), SLOTS, with_checkpoints(&path)).unwrap();
    for _ in 0..30 {
        victim.run_slot().unwrap().expect("slot within the run");
    }
    drop(victim);

    let mut resumed = Runtime::resume(&path).unwrap();
    assert_eq!(resumed.next_slot(), 30);
    resumed.run_to_end().unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(resumed.cost_history().len(), full.cost_history().len());
    for (slot, (a, b)) in resumed.cost_history().iter().zip(full.cost_history()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "cost diverged at slot {slot} ({a} vs {b})");
    }
    assert_eq!(resumed.controller().export_state(), full.controller().export_state());
    assert_eq!(resumed.metrics(), full.metrics());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Snapshot → JSON → restore is lossless at any slot boundary: the
    /// restored service is indistinguishable from the one that never
    /// stopped, for arbitrary seeds and kill points.
    #[test]
    fn checkpoint_round_trip_restores_exact_state(seed in 0u64..1000, kill_at in 1u64..6) {
        const SLOTS: u64 = 6;
        let faults = FaultPlan::none().force_timeout(1, TierKind::Postcard);
        let (network, arrivals) = instance(seed, SLOTS);
        let mut original = Runtime::new(
            network,
            arrivals,
            faults,
            SLOTS,
            RuntimeConfig::default(),
        )
        .unwrap();
        for _ in 0..kill_at {
            original.run_slot().unwrap();
        }

        // Round-trip through the serialized form, not just Clone.
        let snap = RuntimeSnapshot::from_json(&original.snapshot().to_json()).unwrap();
        let mut restored = Runtime::from_snapshot(snap).unwrap();
        prop_assert_eq!(restored.next_slot(), kill_at);
        prop_assert_eq!(
            restored.controller().export_state(),
            original.controller().export_state()
        );

        original.run_to_end().unwrap();
        restored.run_to_end().unwrap();
        prop_assert_eq!(restored.controller().export_state(), original.controller().export_state());
        prop_assert_eq!(restored.metrics(), original.metrics());
        let a = restored.cost_history();
        let b = original.cost_history();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
