//! Acceptance tests of the sharded multi-tenant runtime.
//!
//! Three headline properties of `postcard serve --shards N`:
//!
//! 1. **Equivalence** — on tenant-disjoint (block-diagonal) workloads the
//!    sharded runtime admits exactly the same requests as the unsharded
//!    one and reconciliation finds zero conflicts, so the percentile bill
//!    matches the unsharded objective.
//! 2. **Safety** — when shards *do* contend for a shared link, the
//!    reconciler's fixed-order validation plus serial re-solve never lets
//!    the merged ledger exceed any link capacity in any slot.
//! 3. **Crash-safety** — killing a 4-shard run mid-stream and resuming
//!    from its checkpoint (one snapshot file, as for an unsharded run)
//!    reproduces the uninterrupted run bit for bit.
//!
//! Determinism of the parallel solve (same instance → same bits,
//! regardless of worker scheduling) is exercised both directly and as a
//! byproduct of the bit-exact comparisons in the other tests.

use postcard::net::{DcId, FileId, NetworkBuilder, Trace, TransferRequest};
use postcard::runtime::{FaultPlan, Runtime, RuntimeConfig, ShardBy};
use postcard::sim::TenantScenario;
use proptest::prelude::*;

fn ckpt_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("postcard-shard-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A quad-tenant instance (4 disjoint clusters of 3 DCs) and the shard
/// count that matches its tenant count.
fn quad_instance(seed: u64) -> (postcard::net::Network, Trace, usize) {
    let scenario = TenantScenario::quad();
    let network = scenario.network(seed);
    let arrivals = scenario.trace(seed ^ 0x00C0_FFEE);
    (network, arrivals, scenario.tenants)
}

fn run_runtime(
    network: postcard::net::Network,
    arrivals: Trace,
    num_slots: u64,
    config: RuntimeConfig,
) -> Runtime {
    let mut rt = Runtime::new(network, arrivals, FaultPlan::none(), num_slots, config).unwrap();
    rt.run_to_end().unwrap();
    rt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On tenant-disjoint workloads the sharded run reproduces the
    /// unsharded admissions exactly and its bill matches the unsharded
    /// objective (per-shard LPs decompose the block-diagonal instance).
    #[test]
    fn sharded_matches_unsharded_on_tenant_disjoint_workloads(seed in 0u64..1_000) {
        let num_slots = TenantScenario::quad().num_slots;
        let (network, arrivals, tenants) = quad_instance(seed);

        let unsharded = run_runtime(
            network.clone(),
            arrivals.clone(),
            num_slots,
            RuntimeConfig::default(),
        );
        let sharded = run_runtime(
            network,
            arrivals,
            num_slots,
            RuntimeConfig {
                shards: tenants,
                shard_by: ShardBy::Tenant,
                ..Default::default()
            },
        );

        prop_assert_eq!(sharded.metrics().counter("shard_conflicts"), 0);
        prop_assert_eq!(
            sharded.controller().admission_counts(),
            unsharded.controller().admission_counts()
        );
        let (acc_s, rej_s) = sharded.controller().admission_volumes();
        let (acc_u, rej_u) = unsharded.controller().admission_volumes();
        prop_assert!((acc_s - acc_u).abs() <= 1e-6 * acc_u.max(1.0));
        prop_assert!((rej_s - rej_u).abs() <= 1e-6 * rej_u.max(1.0));

        let bill_s = sharded.final_cost_per_slot();
        let bill_u = unsharded.final_cost_per_slot();
        prop_assert!(
            (bill_s - bill_u).abs() <= 1e-6 * bill_u.abs().max(1.0),
            "sharded bill {} vs unsharded {}", bill_s, bill_u
        );
    }

    /// Same sharded instance solved twice gives bit-identical results:
    /// shard threads race, but the fixed shard-order reconciliation makes
    /// the merge — and therefore every downstream number — deterministic.
    #[test]
    fn repeated_sharded_runs_are_bit_identical(seed in 0u64..1_000) {
        let num_slots = TenantScenario::quad().num_slots;
        let config = RuntimeConfig {
            shards: 4,
            shard_by: ShardBy::Tenant,
            ..Default::default()
        };
        let (network, arrivals, _) = quad_instance(seed);
        let a = run_runtime(network.clone(), arrivals.clone(), num_slots, config.clone());
        let b = run_runtime(network, arrivals, num_slots, config);

        prop_assert_eq!(a.cost_history().len(), b.cost_history().len());
        for (x, y) in a.cost_history().iter().zip(b.cost_history()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        prop_assert_eq!(a.controller().export_state(), b.controller().export_state());
        prop_assert_eq!(a.metrics().to_json(), b.metrics().to_json());
    }
}

#[test]
fn reconciliation_never_overcommits_shared_links() {
    // Two tenants, one shared 30 GB/slot link. Each wants 40 GB across a
    // 2-slot window, so each shard's optimistic solo plan is feasible, but
    // the two plans cannot both fit: total demand (80) exceeds the window
    // capacity (60). Validation in shard order must flag the collision and
    // the serial re-solve must reject the loser rather than overbook.
    let network = NetworkBuilder::new(2).link(DcId(0), DcId(1), 2.0, 30.0).build();
    let arrivals = Trace::from_requests(vec![
        TransferRequest::new(FileId::for_tenant(0, 0), DcId(0), DcId(1), 40.0, 2, 0),
        TransferRequest::new(FileId::for_tenant(1, 0), DcId(0), DcId(1), 40.0, 2, 0),
    ]);

    let rt = run_runtime(
        network.clone(),
        arrivals,
        2,
        RuntimeConfig { shards: 2, shard_by: ShardBy::Tenant, ..Default::default() },
    );

    assert!(
        rt.metrics().counter("shard_conflicts") > 0,
        "identical optimistic plans on one 30 GB link must collide"
    );
    let (accepted, rejected) = rt.controller().admission_counts();
    assert_eq!((accepted, rejected), (1, 1), "only one 40 GB file fits the shared window");

    let ledger = rt.controller().ledger();
    for link in network.links() {
        for slot in 0..ledger.horizon() {
            let volume = ledger.volume(link.from, link.to, slot);
            assert!(
                volume <= link.capacity + 1e-6,
                "link {}->{} overbooked at slot {slot}: {volume} > {}",
                link.from.0,
                link.to.0,
                link.capacity
            );
        }
    }
}

#[test]
fn four_shard_kill_and_resume_matches_uninterrupted_run() {
    let num_slots = TenantScenario::quad().num_slots;
    let (network, arrivals, tenants) = quad_instance(23);
    assert_eq!(tenants, 4);
    // The reference run checkpoints too, so bookkeeping counters like
    // `checkpoints_written` agree with the victims' in the comparison.
    let config = |path: &std::path::Path| RuntimeConfig {
        shards: 4,
        shard_by: ShardBy::Tenant,
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..Default::default()
    };

    let full_path = ckpt_path("kill4_full.json");
    let full = run_runtime(network.clone(), arrivals.clone(), num_slots, config(&full_path));

    for kill_at in [1, 3, 5] {
        let path = ckpt_path(&format!("kill4_{kill_at}.json"));
        let mut victim = Runtime::new(
            network.clone(),
            arrivals.clone(),
            FaultPlan::none(),
            num_slots,
            config(&path),
        )
        .unwrap();
        for _ in 0..kill_at {
            victim.run_slot().unwrap().expect("slot within the run");
        }
        drop(victim); // the crash: no graceful shutdown, no final checkpoint

        // The kill point left exactly one checkpoint file: no per-shard
        // files next to it.
        assert_eq!(
            files_of(&path),
            vec![path.clone()],
            "kill at {kill_at}: a sharded checkpoint is one file"
        );

        let mut resumed = Runtime::resume(&path).unwrap();
        assert_eq!(resumed.next_slot(), kill_at);
        resumed.run_to_end().unwrap();

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
            resumed.controller().export_state(),
            full.controller().export_state(),
            "kill at {kill_at}: controller state diverged"
        );
        assert_eq!(
            resumed.metrics().to_json(),
            full.metrics().to_json(),
            "kill at {kill_at}: metrics diverged"
        );

        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_file(&full_path).ok();
}

/// The files next to checkpoint `path` whose names start with its stem and
/// a dot (the checkpoint itself and anything written beside it), sorted.
fn files_of(path: &std::path::Path) -> Vec<std::path::PathBuf> {
    let dir = path.parent().unwrap();
    let stem = format!("{}.", path.file_stem().unwrap().to_string_lossy());
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&stem))
        .map(|e| e.path())
        .collect();
    files.sort();
    files
}

#[test]
fn sharded_checkpoint_with_stale_shard_refs_resumes_without_its_shard_files() {
    // Sharded checkpoints used to name per-shard files under a `shard_refs`
    // key. Such a file still loads: the key is ignored, the per-shard files
    // it names are never read, and the run finishes exactly like the
    // uninterrupted one.
    let num_slots = TenantScenario::quad().num_slots;
    let (network, arrivals, _) = quad_instance(23);
    let config = RuntimeConfig { shards: 4, shard_by: ShardBy::Tenant, ..Default::default() };
    let full = run_runtime(network.clone(), arrivals.clone(), num_slots, config.clone());

    let mut victim = Runtime::new(network, arrivals, FaultPlan::none(), num_slots, config).unwrap();
    for _ in 0..3 {
        victim.run_slot().unwrap().expect("slot within the run");
    }
    let json = victim.snapshot().to_json();
    drop(victim);
    let refs: Vec<String> = (0..4)
        .map(|i| format!(r#"{{"shard": {i}, "file": "stale_refs.shard{i}-3.json", "stamp": 3}}"#))
        .collect();
    // The manifest writer put the key right before `next_slot`; whatever
    // the current writer emits for it (nothing) gives way to four refs.
    let old = json
        .lines()
        .filter(|l| !l.contains("\"shard_refs\""))
        .collect::<Vec<_>>()
        .join("\n")
        .replacen(
            "\"next_slot\":",
            &format!("\"shard_refs\": [{}],\n  \"next_slot\":", refs.join(", ")),
            1,
        );
    assert_ne!(old, json, "the checkpoint must carry the stale key");
    let path = ckpt_path("stale_refs.json");
    std::fs::write(&path, old).unwrap();
    // The shard files the refs name are gone.
    assert_eq!(files_of(&path), vec![path.clone()]);

    let mut resumed = Runtime::resume(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(resumed.next_slot(), 3);
    resumed.run_to_end().unwrap();

    assert_eq!(resumed.controller().export_state(), full.controller().export_state());
    assert_eq!(resumed.metrics().to_json(), full.metrics().to_json());
    assert_eq!(resumed.cost_history().len(), full.cost_history().len());
    for (a, b) in resumed.cost_history().iter().zip(full.cost_history()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn wall_metrics_stay_out_of_snapshots() {
    // Per-shard and aggregate solve-wall histograms land in the separate
    // wall registry; snapshots (and thus resume determinism) never see
    // machine-dependent timings.
    let num_slots = TenantScenario::quad().num_slots;
    let (network, arrivals, tenants) = quad_instance(7);
    let rt = run_runtime(
        network,
        arrivals,
        num_slots,
        RuntimeConfig { shards: tenants, shard_by: ShardBy::Tenant, ..Default::default() },
    );

    assert!(rt.wall_metrics().histogram("solve_wall_seconds").is_some());
    for shard in 0..tenants {
        assert!(
            rt.wall_metrics().histogram(&format!("solve_wall_seconds_shard{shard}")).is_some(),
            "missing per-shard wall histogram for shard {shard}"
        );
    }
    assert!(!rt.snapshot().to_json().contains("solve_wall_seconds"));
}
