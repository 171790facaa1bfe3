//! Cross-scheduler invariants on randomized workloads.
//!
//! Every scheduler must produce decisions that pass the independent
//! validators in `postcard-net` / `postcard-flow`, and the optimizers must
//! respect their dominance relations: Postcard's feasible set contains
//! every plan without relay storage, which in turn contains every direct
//! plan, and the unified flow LP optimizes over a superset of every other
//! flow baseline's solutions.

use postcard::core::{
    solve_postcard, Decision, DirectScheduler, FlowLpScheduler, GreedyScheduler, PostcardConfig,
    PostcardScheduler, Scheduler, TwoPhaseScheduler,
};
use postcard::net::{DcId, FileId, Network, TrafficLedger, TransferRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_instance(
    seed: u64,
    num_dcs: usize,
    num_files: usize,
    capacity: f64,
) -> (Network, Vec<TransferRequest>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let network =
        Network::complete_with_prices(num_dcs, capacity, |_, _| rng.gen_range(1.0..=10.0));
    let files = (0..num_files)
        .map(|k| {
            let src = rng.gen_range(0..num_dcs);
            let mut dst = rng.gen_range(0..num_dcs);
            while dst == src {
                dst = rng.gen_range(0..num_dcs);
            }
            TransferRequest::new(
                FileId(k as u64),
                DcId(src),
                DcId(dst),
                rng.gen_range(10.0..=100.0),
                rng.gen_range(1..=4),
                0,
            )
        })
        .collect();
    (network, files)
}

/// Commits a decision to a fresh ledger and returns the resulting bill.
fn bill_of(network: &Network, files: &[TransferRequest], decision: &Decision) -> f64 {
    let mut ledger = TrafficLedger::new(network.num_dcs());
    match decision {
        Decision::Plan(p) => {
            assert!(p.is_valid(network, files, |_, _, _| 0.0), "invalid plan from a scheduler");
            p.apply_to_ledger(&mut ledger);
        }
        Decision::Rates(r) => {
            assert!(r.is_valid(network, files, |_, _, _| 0.0), "invalid rates from a scheduler");
            r.apply_to_ledger(files, &mut ledger);
        }
    }
    ledger.cost_per_slot(network)
}

#[test]
fn every_scheduler_produces_validated_decisions() {
    for seed in 0..8u64 {
        let (network, files) = random_instance(seed, 5, 4, 150.0);
        let ledger = TrafficLedger::new(5);
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(PostcardScheduler::new()),
            Box::new(FlowLpScheduler::new()),
            Box::new(TwoPhaseScheduler),
            Box::new(GreedyScheduler),
            Box::new(DirectScheduler),
        ];
        for s in schedulers.iter_mut() {
            match s.schedule(&network, &files, &ledger) {
                Ok(decision) => {
                    let bill = bill_of(&network, &files, &decision);
                    assert!(bill.is_finite() && bill >= 0.0, "{}: bill {bill}", s.name());
                }
                Err(e) => panic!("{} failed on ample capacity: {e}", s.name()),
            }
        }
    }
}

#[test]
fn postcard_never_costs_more_than_direct() {
    // Postcard ≤ no-relay ≤ direct: forbidding relay storage shrinks
    // Postcard's feasible set, and direct plans (no relays at all) are
    // still in it.
    let mut no_relay = PostcardScheduler::with_config(PostcardConfig {
        allow_relay_storage: false,
        ..Default::default()
    });
    assert_eq!(no_relay.name(), "postcard-no-relay-storage");
    for seed in 100..110u64 {
        let (network, files) = random_instance(seed, 5, 3, 200.0);
        let ledger = TrafficLedger::new(5);
        let postcard = solve_postcard(&network, &files, &ledger).unwrap().cost_per_slot;
        let no_relay = no_relay
            .schedule(&network, &files, &ledger)
            .map(|d| bill_of(&network, &files, &d))
            .unwrap();
        let direct = DirectScheduler
            .schedule(&network, &files, &ledger)
            .map(|d| bill_of(&network, &files, &d))
            .unwrap();
        assert!(
            postcard <= no_relay + 1e-5,
            "seed {seed}: postcard {postcard} > no-relay {no_relay}"
        );
        assert!(no_relay <= direct + 1e-5, "seed {seed}: no-relay {no_relay} > direct {direct}");
    }
}

#[test]
fn unified_flow_lp_dominates_other_flow_baselines() {
    for seed in 200..208u64 {
        let (network, files) = random_instance(seed, 5, 3, 200.0);
        let ledger = TrafficLedger::new(5);
        let mut flow_lp = FlowLpScheduler::new();
        let lp_bill = flow_lp
            .schedule(&network, &files, &ledger)
            .map(|d| bill_of(&network, &files, &d))
            .unwrap();
        for other in [Box::new(TwoPhaseScheduler) as Box<dyn Scheduler>, Box::new(GreedyScheduler)]
        {
            let mut other = other;
            if let Ok(d) = other.schedule(&network, &files, &ledger) {
                let bill = bill_of(&network, &files, &d);
                assert!(
                    lp_bill <= bill + 1e-4,
                    "seed {seed}: flow-lp {lp_bill} > {} {bill}",
                    other.name()
                );
            }
        }
    }
}

#[test]
fn postcard_cost_is_monotone_in_deadline() {
    // Relaxing every deadline can only help (the feasible set grows).
    for seed in 300..306u64 {
        let (network, files) = random_instance(seed, 4, 3, 100.0);
        let ledger = TrafficLedger::new(4);
        let tight = solve_postcard(&network, &files, &ledger).unwrap().cost_per_slot;
        let relaxed_files: Vec<TransferRequest> = files
            .iter()
            .map(|f| {
                TransferRequest::new(
                    f.id,
                    f.src,
                    f.dst,
                    f.size_gb,
                    f.deadline_slots + 2,
                    f.release_slot,
                )
            })
            .collect();
        let relaxed = solve_postcard(&network, &relaxed_files, &ledger).unwrap().cost_per_slot;
        assert!(relaxed <= tight + 1e-5, "seed {seed}: relaxed {relaxed} > tight {tight}");
    }
}

#[test]
fn postcard_benefits_from_prior_paid_volume() {
    // Pre-paying peaks can only lower the *additional* bill: the total bill
    // with a prior peak P on every link is at most (bill without prior) +
    // (cost of the floors).
    let mut checked = 0usize;
    for seed in 400..420u64 {
        let (network, files) = random_instance(seed, 4, 3, 100.0);
        let empty = TrafficLedger::new(4);
        // Random draws can be genuinely infeasible (a file larger than its
        // deadline's capacity envelope); the invariant only concerns
        // solvable instances, so skip the rest.
        let Ok(sol) = solve_postcard(&network, &files, &empty) else {
            continue;
        };
        checked += 1;
        let fresh = sol.cost_per_slot;
        let mut paid = TrafficLedger::new(4);
        for l in network.links() {
            paid.record(l.from, l.to, 1000, 20.0);
        }
        let floors: f64 = network.links().map(|l| l.price * 20.0).sum();
        let with_prior = solve_postcard(&network, &files, &paid).unwrap().cost_per_slot;
        assert!(
            with_prior <= fresh + floors + 1e-5,
            "seed {seed}: {with_prior} > {fresh} + {floors}"
        );
        // And the prior volume is genuinely useful: the increment over the
        // floor is no larger than the fresh bill.
        assert!(with_prior - floors <= fresh + 1e-5);
    }
    assert!(checked >= 3, "too few feasible instances: {checked}");
}

#[test]
fn plans_respect_residual_capacity_left_by_earlier_batches() {
    // Schedule two consecutive batches; the second must fit around the
    // first's committed (future) traffic. Random draws can be infeasible
    // (alone or after batch 0's commitments), so scan a seed window and
    // require a minimum number of solvable pairs.
    let mut checked = 0usize;
    for seed in 0..40u64 {
        let (network, batch0) = random_instance(seed, 4, 3, 60.0);
        let mut ledger = TrafficLedger::new(4);
        let Ok(sol0) = solve_postcard(&network, &batch0, &ledger) else {
            continue;
        };
        sol0.plan.apply_to_ledger(&mut ledger);
        let batch1: Vec<TransferRequest> = random_instance(seed + 1000, 4, 3, 60.0)
            .1
            .into_iter()
            .map(|f| {
                TransferRequest::new(
                    FileId(f.id.0 + 100),
                    f.src,
                    f.dst,
                    f.size_gb,
                    f.deadline_slots,
                    1,
                )
            })
            .collect();
        let Ok(sol1) = solve_postcard(&network, &batch1, &ledger) else {
            continue;
        };
        // Validate against capacity minus batch-0 usage.
        let violations = sol1.plan.validate(&network, &batch1, |i, j, s| ledger.volume(i, j, s));
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        checked += 1;
    }
    assert!(checked >= 3, "too few feasible batch pairs: {checked}");
}
