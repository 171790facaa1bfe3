//! End-to-end behaviour of the Sec. VI extension problems.

use postcard::core::extensions::{
    solve_budget_constrained, solve_bulk_max_transfer, BulkCapacityMode,
};
use postcard::core::{solve_postcard, PostcardError};
use postcard::net::{DcId, FileId, Network, TrafficLedger, TransferRequest};
use postcard::sim::{Scenario, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn instance(seed: u64) -> (Network, Vec<TransferRequest>, TrafficLedger) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 5;
    let network = Network::complete_with_prices(n, 40.0, |_, _| rng.gen_range(1.0..=10.0));
    let files: Vec<TransferRequest> = (0..5)
        .map(|k| {
            let src = rng.gen_range(0..n);
            let mut dst = rng.gen_range(0..n);
            while dst == src {
                dst = rng.gen_range(0..n);
            }
            TransferRequest::new(
                FileId(k),
                DcId(src),
                DcId(dst),
                rng.gen_range(20.0..=60.0),
                rng.gen_range(2..=4),
                0,
            )
        })
        .collect();
    let mut ledger = TrafficLedger::new(n);
    // Some links carry historical peaks (sunk cost, free headroom).
    for l in network.links() {
        if rng.gen_bool(0.4) {
            ledger.record(l.from, l.to, 1000, rng.gen_range(5.0..20.0));
        }
    }
    (network, files, ledger)
}

#[test]
fn budget_delivery_is_monotone_in_budget() {
    for seed in 0..4u64 {
        let (network, files, ledger) = instance(seed);
        let base = ledger.cost_per_slot(&network);
        let mut prev = -1.0;
        for step in 0..6 {
            let budget = base + 60.0 * step as f64;
            let sol = solve_budget_constrained(&network, &files, &ledger, budget).unwrap();
            assert!(
                sol.total_delivered >= prev - 1e-6,
                "seed {seed}: delivery dropped ({} after {prev}) at budget {budget}",
                sol.total_delivered
            );
            assert!(sol.cost_per_slot <= budget + 1e-6);
            prev = sol.total_delivered;
        }
    }
}

#[test]
fn budget_plans_validate_at_delivered_sizes() {
    let (network, files, ledger) = instance(9);
    let budget = ledger.cost_per_slot(&network) + 150.0;
    let sol = solve_budget_constrained(&network, &files, &ledger, budget).unwrap();
    let served = sol.delivered_requests(&files);
    let violations = sol.plan.validate(&network, &served, |i, j, s| ledger.volume(i, j, s));
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn unlimited_budget_matches_full_delivery() {
    let (network, files, ledger) = instance(3);
    let total: f64 = files.iter().map(|f| f.size_gb).sum();
    let sol = solve_budget_constrained(&network, &files, &ledger, 1e9).unwrap();
    assert!((sol.total_delivered - total).abs() < 1e-4, "{}", sol.total_delivered);
}

#[test]
fn bulk_any_residual_dominates_paid_leftover() {
    for seed in 20..24u64 {
        let (network, files, ledger) = instance(seed);
        let paid =
            solve_bulk_max_transfer(&network, &files, &ledger, BulkCapacityMode::PaidLeftoverOnly)
                .unwrap();
        let any = solve_bulk_max_transfer(&network, &files, &ledger, BulkCapacityMode::AnyResidual)
            .unwrap();
        assert!(
            any.total_delivered >= paid.total_delivered - 1e-6,
            "seed {seed}: {} < {}",
            any.total_delivered,
            paid.total_delivered
        );
    }
}

#[test]
fn bulk_paid_leftover_is_free() {
    for seed in 30..34u64 {
        let (network, files, ledger) = instance(seed);
        let before = ledger.cost_per_slot(&network);
        let sol =
            solve_bulk_max_transfer(&network, &files, &ledger, BulkCapacityMode::PaidLeftoverOnly)
                .unwrap();
        let mut after = ledger.clone();
        sol.plan.apply_to_ledger(&mut after);
        assert!(
            (after.cost_per_slot(&network) - before).abs() < 1e-6,
            "seed {seed}: paid-leftover transfer changed the bill"
        );
        let served = sol.delivered_requests(&files);
        assert!(sol.plan.validate(&network, &served, |i, j, s| ledger.volume(i, j, s)).is_empty());
    }
}

#[test]
fn bulk_delivery_bounded_by_request_total() {
    let (network, files, ledger) = instance(40);
    let total: f64 = files.iter().map(|f| f.size_gb).sum();
    let sol =
        solve_bulk_max_transfer(&network, &files, &ledger, BulkCapacityMode::AnyResidual).unwrap();
    assert!(sol.total_delivered <= total + 1e-6);
    for f in &files {
        let y = sol.delivered[&f.id];
        assert!((0.0..=f.size_gb + 1e-9).contains(&y));
    }
}

#[test]
fn budget_with_generous_cap_beats_bulk_paid_only() {
    // Spending money can only increase what is deliverable relative to
    // free-only transfers on the same instance.
    let (network, files, ledger) = instance(50);
    let free =
        solve_bulk_max_transfer(&network, &files, &ledger, BulkCapacityMode::PaidLeftoverOnly)
            .unwrap();
    let spend = solve_budget_constrained(&network, &files, &ledger, 1e9).unwrap();
    assert!(spend.total_delivered >= free.total_delivered - 1e-6);
}

// Cross-checks between the three LPs on one time expansion: the Postcard
// LP (fixed delivery, minimum bill) and the Sec. VI bulk and budget
// problems (maximum delivery under a capacity rule or a bill cap).

/// Seeded instances, the same with busy links (earlier traffic in the
/// files' windows, so residual capacity binds), and scaled Fig. 7 slot 6
/// (seed 7) over the ledger its earlier slots' Postcard plans leave behind.
fn cross_check_cases() -> Vec<(String, Network, Vec<TransferRequest>, TrafficLedger)> {
    let mut cases: Vec<_> = (60..72u64)
        .map(|seed| {
            let (network, files, ledger) = instance(seed);
            (format!("seed {seed}"), network, files, ledger)
        })
        .collect();
    for seed in 72..96u64 {
        let (network, files, mut ledger) = instance(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for l in network.links() {
            for slot in 0..4 {
                ledger.record(l.from, l.to, slot, rng.gen_range(20.0..=40.0));
            }
        }
        cases.push((format!("busy seed {seed}"), network, files, ledger));
    }
    let scenario = Scenario::fig7().scaled_down();
    let network = scenario.network(7);
    let mut workload = scenario.workload(7);
    let mut ledger = TrafficLedger::new(network.num_dcs());
    for slot in 0..6 {
        if let Ok(sol) = solve_postcard(&network, &workload.batch(slot), &ledger) {
            sol.plan.apply_to_ledger(&mut ledger);
        }
    }
    let files = workload.batch(6);
    assert!(!files.is_empty(), "the Fig. 7 slot must carry files");
    cases.push(("scaled fig7 slot 6".into(), network, files, ledger));
    cases
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

#[test]
fn budget_at_the_postcard_optimum_delivers_every_file_at_that_bill() {
    let mut feasible = 0;
    for (name, network, files, ledger) in cross_check_cases() {
        let Ok(postcard) = solve_postcard(&network, &files, &ledger) else { continue };
        feasible += 1;
        let optimum = postcard.cost_per_slot;
        let sol = solve_budget_constrained(&network, &files, &ledger, optimum * (1.0 + 1e-9))
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        for f in &files {
            let y = sol.delivered[&f.id];
            assert!(
                relative_gap(y, f.size_gb) <= 1e-6,
                "{name}: {} delivers {y} of {}",
                f.id,
                f.size_gb
            );
        }
        assert!(
            relative_gap(sol.cost_per_slot, optimum) <= 1e-6,
            "{name}: budget bill {} vs Postcard optimum {optimum}",
            sol.cost_per_slot
        );
    }
    assert!(feasible >= 15, "only {feasible} cases were Postcard-feasible");
}

#[test]
fn bulk_on_any_residual_delivers_every_postcard_feasible_batch() {
    let mut feasible = 0;
    for (name, network, files, ledger) in cross_check_cases() {
        if solve_postcard(&network, &files, &ledger).is_err() {
            continue;
        }
        feasible += 1;
        let total: f64 = files.iter().map(|f| f.size_gb).sum();
        let sol = solve_bulk_max_transfer(&network, &files, &ledger, BulkCapacityMode::AnyResidual)
            .unwrap();
        assert!(
            relative_gap(sol.total_delivered, total) <= 1e-6,
            "{name}: bulk delivers {} of {total}",
            sol.total_delivered
        );
    }
    assert!(feasible >= 15, "only {feasible} cases were Postcard-feasible");
}

#[test]
fn budget_at_the_sunk_bill_delivers_what_bulk_on_paid_leftover_does() {
    // With every price positive, a budget equal to the sunk bill keeps
    // every charged volume at its floor: the same capacity rule as
    // paid-leftover bulk, so the same maximum delivery.
    for (name, network, files, ledger) in cross_check_cases() {
        assert!(network.links().all(|l| l.price > 0.0), "{name}: a free link");
        let sunk = ledger.cost_per_slot(&network);
        let budget = solve_budget_constrained(&network, &files, &ledger, sunk).unwrap();
        let bulk =
            solve_bulk_max_transfer(&network, &files, &ledger, BulkCapacityMode::PaidLeftoverOnly)
                .unwrap();
        assert!(
            (budget.total_delivered - bulk.total_delivered).abs() <= 1e-6,
            "{name}: budget delivers {}, paid-leftover bulk {}",
            budget.total_delivered,
            bulk.total_delivered
        );
    }
}

#[test]
fn extensions_reject_an_unknown_datacenter_as_postcard_does() {
    let (network, mut files, ledger) = instance(0);
    files.push(TransferRequest::new(FileId(99), DcId(1), DcId(7), 10.0, 2, 0));
    let expected = PostcardError::UnknownDatacenter { dc: 7, num_dcs: 5 };
    assert_eq!(solve_postcard(&network, &files, &ledger).unwrap_err(), expected);
    for mode in [BulkCapacityMode::AnyResidual, BulkCapacityMode::PaidLeftoverOnly] {
        assert_eq!(solve_bulk_max_transfer(&network, &files, &ledger, mode).unwrap_err(), expected);
    }
    assert_eq!(solve_budget_constrained(&network, &files, &ledger, 1e9).unwrap_err(), expected);
}
