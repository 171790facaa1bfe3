//! Property tests for the ALAP fast-path admission rung.
//!
//! Three invariants, checked over randomized networks and request streams:
//!
//! 1. **Feasibility** — every plan the ALAP scheduler admits replays
//!    cleanly through [`postcard::net::TransferPlan::validate`] against the
//!    traffic already committed to the ledger, and after committing it the
//!    ledger never exceeds any link's capacity. ALAP admission is a promise
//!    the network can keep.
//! 2. **LP consistency** — ALAP never admits a request that the full
//!    Postcard LP would prove infeasible on the same residual state. The
//!    fast path is allowed to be *conservative* (reject what the LP could
//!    place), never *optimistic*.
//! 3. **Cache transparency** — a long-lived scheduler, which keeps each
//!    pair's cheapest paths across rebases, decides exactly as a fresh
//!    scheduler built from the committed ledger for every request.
//!
//! One seeded replay also pins the admit/reject counts of two large
//! single-slot bursts.

use postcard::core::{PostcardScheduler, Scheduler};
use postcard::flow::{AlapRejection, AlapScheduler};
use postcard::net::{
    DcId, FileId, Network, TrafficLedger, TransferPlan, TransferRequest, VOLUME_TOL,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NUM_DCS: usize = 4;

/// A tight complete network: capacities small enough that admissions
/// actually compete for residual bandwidth, prices seed-determined.
fn network(rng: &mut StdRng) -> Network {
    let capacity = rng.gen_range(20.0..=60.0);
    let mut price_rng = StdRng::seed_from_u64(rng.gen());
    Network::complete_with_prices(NUM_DCS, capacity, |_, _| price_rng.gen_range(1.0..=10.0))
}

/// A randomized request; sizes range up to well above a single link-slot so
/// both multi-slot placements and rejections occur.
fn request(rng: &mut StdRng, id: u64) -> TransferRequest {
    let src = rng.gen_range(0..NUM_DCS);
    let dst = (src + rng.gen_range(1..NUM_DCS)) % NUM_DCS;
    TransferRequest::new(
        FileId(id),
        DcId(src),
        DcId(dst),
        rng.gen_range(1.0..=80.0),
        rng.gen_range(1..=4),
        rng.gen_range(0..4),
    )
}

/// A random directed link of the complete `NUM_DCS` network.
fn link(rng: &mut StdRng) -> (DcId, DcId) {
    let from = rng.gen_range(0..NUM_DCS);
    (DcId(from), DcId((from + rng.gen_range(1..NUM_DCS)) % NUM_DCS))
}

/// A decision's exact bits: every plan entry with its volume's bit
/// pattern, or the rejection.
type Bits = Result<Vec<(FileId, u64, DcId, DcId, u64)>, AlapRejection>;

fn bits(decision: &Result<TransferPlan, AlapRejection>) -> Bits {
    decision.as_ref().map_err(|r| *r).map(|plan| {
        plan.iter().map(|e| (e.file, e.slot, e.from, e.to, e.volume.to_bits())).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every ALAP-admitted plan validates against the committed ledger and
    /// never pushes any link past capacity; and on the exact residual state
    /// where ALAP said yes, the full Postcard LP also finds a placement.
    #[test]
    fn admitted_plans_are_feasible_and_lp_agrees(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = network(&mut rng);
        let mut alap = AlapScheduler::new(&net);
        let mut ledger = TrafficLedger::new(NUM_DCS);
        let mut admits = 0u32;

        for id in 0..12 {
            let f = request(&mut rng, id);
            // Snapshot the residual state *before* the admission decision:
            // the LP-consistency check must run against exactly this ledger.
            let before = ledger.clone();
            let Ok(plan) = alap.admit(&net, &f) else { continue };
            admits += 1;

            // (1) The plan is valid on top of everything committed so far:
            // capacity, per-slot conservation at relays, release/deadline
            // windows, and full delivery.
            let violations =
                plan.validate(&net, &[f], |from, to, slot| before.volume(from, to, slot));
            prop_assert!(
                violations.is_empty(),
                "seed {seed}, file {id}: ALAP plan invalid: {violations:?}"
            );

            // (2) The LP can also place this file on the same residuals —
            // ALAP admission implies LP feasibility.
            let mut lp = PostcardScheduler::new();
            let lp_result = lp.schedule(&net, &[f], &before);
            prop_assert!(
                lp_result.is_ok(),
                "seed {seed}, file {id}: ALAP admitted a request the LP proves infeasible: {:?}",
                lp_result.err()
            );

            plan.apply_to_ledger(&mut ledger);
        }

        // The committed ledger never exceeds capacity on any link at any
        // slot the stream could have touched.
        for l in net.links() {
            for slot in 0..16 {
                let used = ledger.volume(l.from, l.to, slot);
                prop_assert!(
                    used <= l.capacity + VOLUME_TOL,
                    "seed {seed}: link {:?}->{:?} over capacity at slot {slot}: {used} > {}",
                    l.from, l.to, l.capacity
                );
            }
        }

        // The generator must actually exercise admissions (not vacuous).
        prop_assert!(admits > 0, "seed {seed}: no admissions — scenario too tight");
    }

    /// Batch admission is exactly as feasible as its parts: an admitted
    /// batch replays through the ledger without exceeding capacity, and a
    /// rejected batch leaves the residual grid byte-identical (rollback).
    #[test]
    fn admitted_batches_replay_within_capacity(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = network(&mut rng);
        let mut alap = AlapScheduler::new(&net);
        let mut ledger = TrafficLedger::new(NUM_DCS);

        for batch_no in 0..4u64 {
            let batch: Vec<TransferRequest> =
                (0..3).map(|i| request(&mut rng, batch_no * 3 + i)).collect();
            let grid_before = alap.grid().clone();
            match alap.admit_batch(&net, &batch) {
                Ok(plan) => {
                    let violations = plan.validate(&net, &batch, |from, to, slot| {
                        ledger.volume(from, to, slot)
                    });
                    prop_assert!(
                        violations.is_empty(),
                        "seed {seed}, batch {batch_no}: invalid batch plan: {violations:?}"
                    );
                    plan.apply_to_ledger(&mut ledger);
                }
                Err(_) => {
                    prop_assert!(
                        *alap.grid() == grid_before,
                        "seed {seed}, batch {batch_no}: rejection must roll back the grid"
                    );
                }
            }
        }

        for l in net.links() {
            for slot in 0..16 {
                let used = ledger.volume(l.from, l.to, slot);
                prop_assert!(
                    used <= l.capacity + VOLUME_TOL,
                    "seed {seed}: link {:?}->{:?} over capacity at slot {slot}: {used} > {}",
                    l.from, l.to, l.capacity
                );
            }
        }
    }

    /// A long-lived scheduler, rebased after every reprice, capacity change
    /// or ledger edit, decides every request bit for bit as a scheduler
    /// built fresh from the committed ledger, which finds its paths anew.
    /// Sizes and capacities are whole GB, so the grid's running sums and
    /// the ledger's equal each other exactly whatever order they add in.
    #[test]
    fn long_lived_scheduler_decides_as_a_fresh_one(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let capacity = rng.gen_range(20..=60) as f64;
        let mut net =
            Network::complete_with_prices(NUM_DCS, capacity, |_, _| rng.gen_range(1.0..=10.0));
        let mut alap = AlapScheduler::new(&net);
        let mut ledger = TrafficLedger::new(NUM_DCS);

        for id in 0..24u64 {
            match rng.gen_range(0..6) {
                0 => {
                    let (from, to) = link(&mut rng);
                    net.set_price(from, to, rng.gen_range(1.0..=10.0));
                    alap.rebase(&net, &ledger);
                }
                1 => {
                    let (from, to) = link(&mut rng);
                    net.set_capacity(from, to, rng.gen_range(0..=60) as f64);
                    alap.rebase(&net, &ledger);
                }
                _ => {}
            }
            if id == 12 {
                // Traffic booked behind the scheduler's back (an LP
                // re-plan), no price change: the rebase keeps the paths.
                let (from, to) = link(&mut rng);
                ledger.record(from, to, rng.gen_range(0..8), rng.gen_range(1..=20) as f64);
                alap.rebase(&net, &ledger);
            }

            let mut f = request(&mut rng, id);
            f.size_gb = f.size_gb.round();
            let mut fresh = AlapScheduler::default();
            fresh.rebase(&net, &ledger);
            let (got, want) = (alap.admit(&net, &f), fresh.admit(&net, &f));
            prop_assert_eq!(bits(&got), bits(&want), "seed {}, request {}", seed, id);
            prop_assert!(*alap.grid() == *fresh.grid(), "seed {seed}, request {id}: grids differ");
            if let Ok(plan) = got {
                plan.apply_to_ledger(&mut ledger);
            }
        }
    }
}

/// Single-slot bursts of 10³ and 10⁴ requests on a 5-DC complete network
/// with capacities sized so that some requests are rejected. Replayed
/// request by request through one scheduler, the admit/reject counts are
/// pinned, which also keeps both bursts discriminating (neither count is
/// zero).
#[test]
fn seeded_bursts_admit_and_reject_pinned_counts() {
    const DCS: usize = 5;
    for (seed, requests, capacity, want) in
        [(103u64, 1_000u64, 100.0, (872, 128)), (104, 10_000, 1_000.0, (9_875, 125))]
    {
        let mut price_rng = StdRng::seed_from_u64(seed ^ 0xA1A9);
        let net =
            Network::complete_with_prices(DCS, capacity, |_, _| price_rng.gen_range(1.0..=10.0));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut alap = AlapScheduler::new(&net);
        let (mut admits, mut rejects) = (0u64, 0u64);
        for id in 0..requests {
            let src = rng.gen_range(0..DCS);
            let dst = (src + rng.gen_range(1..DCS)) % DCS;
            let f = TransferRequest::new(
                FileId(id),
                DcId(src),
                DcId(dst),
                rng.gen_range(1.0..=10.0),
                rng.gen_range(1..=4),
                0,
            );
            match alap.admit(&net, &f) {
                Ok(_) => admits += 1,
                Err(_) => rejects += 1,
            }
        }
        assert_eq!((admits, rejects), want, "seed {seed}, {requests} requests");
    }
}
