//! Property-based tests of the Postcard optimizer on randomized instances.
//!
//! The optimizer's arithmetic is never trusted: every produced plan is
//! re-validated against the paper's constraints by `postcard-net`'s
//! independent checker, and cost claims are verified against recomputed
//! ledgers and dominance relations.

use postcard_core::{solve_postcard, solve_postcard_with, PostcardConfig, PostcardError};
use postcard_net::{DcId, FileId, Network, TrafficLedger, TransferRequest};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random complete network + batch with generous capacity (always
/// feasible: every file can trickle over its direct link).
fn instance(seed: u64, num_dcs: usize, num_files: usize) -> (Network, Vec<TransferRequest>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let network = Network::complete_with_prices(num_dcs, 500.0, |_, _| rng.gen_range(1.0..=10.0));
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
                rng.gen_range(5.0..=80.0),
                rng.gen_range(1..=4),
                0,
            )
        })
        .collect();
    (network, files)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every optimal plan satisfies all of Eqs. (7)–(10).
    #[test]
    fn plans_are_always_valid(seed in 0u64..5000, nf in 1usize..5, nd in 3usize..6) {
        let (network, files) = instance(seed, nd, nf);
        let ledger = TrafficLedger::new(nd);
        let sol = solve_postcard(&network, &files, &ledger).expect("generous capacity");
        let violations = sol.plan.validate(&network, &files, |_, _, _| 0.0);
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// The claimed objective equals the recomputed bill after committing.
    #[test]
    fn claimed_cost_matches_committed_ledger(seed in 0u64..5000, nf in 1usize..4) {
        let (network, files) = instance(seed, 4, nf);
        let ledger = TrafficLedger::new(4);
        let sol = solve_postcard(&network, &files, &ledger).expect("generous capacity");
        let mut after = ledger.clone();
        sol.plan.apply_to_ledger(&mut after);
        let bill = after.cost_per_slot(&network);
        prop_assert!(
            (bill - sol.cost_per_slot).abs() < 1e-5 * (1.0 + bill),
            "claimed {} vs recomputed {}",
            sol.cost_per_slot,
            bill
        );
    }

    /// Adding a file never lowers the bill (monotonicity in load).
    #[test]
    fn cost_is_monotone_in_files(seed in 0u64..5000) {
        let (network, files) = instance(seed, 4, 3);
        let ledger = TrafficLedger::new(4);
        let all = solve_postcard(&network, &files, &ledger).expect("feasible").cost_per_slot;
        let fewer =
            solve_postcard(&network, &files[..2], &ledger).expect("feasible").cost_per_slot;
        prop_assert!(fewer <= all + 1e-6, "fewer files cost more: {fewer} vs {all}");
    }

    /// Scaling all file sizes by λ ∈ (0, 1] scales the optimal bill by
    /// exactly λ (the LP is homogeneous when starting from an empty ledger).
    #[test]
    fn cost_scales_linearly_with_sizes(seed in 0u64..5000, lambda in 0.1f64..1.0) {
        let (network, files) = instance(seed, 4, 2);
        let ledger = TrafficLedger::new(4);
        let base = solve_postcard(&network, &files, &ledger).expect("feasible").cost_per_slot;
        let scaled_files: Vec<TransferRequest> = files
            .iter()
            .map(|f| TransferRequest::new(f.id, f.src, f.dst, f.size_gb * lambda, f.deadline_slots, f.release_slot))
            .collect();
        let scaled =
            solve_postcard(&network, &scaled_files, &ledger).expect("feasible").cost_per_slot;
        prop_assert!(
            (scaled - lambda * base).abs() < 1e-4 * (1.0 + base),
            "λ = {lambda}: {scaled} vs {}",
            lambda * base
        );
    }

    /// Relay storage can only help: the ablated solver is never cheaper.
    #[test]
    fn relay_storage_never_hurts(seed in 0u64..5000, nf in 1usize..4) {
        let (network, files) = instance(seed, 4, nf);
        let ledger = TrafficLedger::new(4);
        let full = solve_postcard(&network, &files, &ledger).expect("feasible").cost_per_slot;
        let cfg = PostcardConfig { allow_relay_storage: false, ..Default::default() };
        let ablated = solve_postcard_with(&network, &files, &ledger, &cfg)
            .expect("direct trickle remains feasible")
            .cost_per_slot;
        prop_assert!(full <= ablated + 1e-6, "full {full} > ablated {ablated}");
    }

    /// Uniform price scaling scales the optimum and preserves the plan's
    /// feasibility.
    #[test]
    fn price_scaling_invariance(seed in 0u64..5000, mu in 0.5f64..4.0) {
        let (network, files) = instance(seed, 4, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let scaled_net = Network::complete_with_prices(4, 500.0, |_, _| {
            mu * rng.gen_range(1.0..=10.0)
        });
        let ledger = TrafficLedger::new(4);
        let base = solve_postcard(&network, &files, &ledger).expect("feasible").cost_per_slot;
        let scaled =
            solve_postcard(&scaled_net, &files, &ledger).expect("feasible").cost_per_slot;
        prop_assert!(
            (scaled - mu * base).abs() < 1e-4 * (1.0 + scaled.abs()),
            "μ = {mu}: {scaled} vs {}",
            mu * base
        );
    }
}

/// An infeasible instance (deadline 1, capacity below size, no alternative
/// route wide enough) errors rather than returning a bogus plan.
#[test]
fn structurally_infeasible_instances_error() {
    let network = Network::complete(2, 1.0, 5.0);
    let file = TransferRequest::new(FileId(0), DcId(0), DcId(1), 50.0, 1, 0);
    let ledger = TrafficLedger::new(2);
    assert_eq!(solve_postcard(&network, &[file], &ledger).unwrap_err(), PostcardError::Infeasible);
}
