//! Pinned-bits regression for the simplex pivot path.
//!
//! A solver change that is meant to be a pure speed-up (a faster basis
//! factorization, a cheaper `ftran`) must leave every pivot, and so every
//! plan and bill, exactly as it was. This test solves a fixed slot LP of the
//! scaled-down Fig. 7 scenario and pins its pivot counts and the bit pattern
//! of its optimal objective. A change that moves any of them changes the
//! pivot path, and with it possibly the chosen optimal vertex and the bill.

use postcard::core::{solve_postcard, PostcardSolution};
use postcard::net::TrafficLedger;
use postcard::sim::{Scenario, Workload};

/// Replays slots `0..slot` of seed 7's scaled Fig. 7 traffic, committing
/// each optimal plan (an infeasible batch is rejected whole, as the
/// runtime would), and returns the solution of slot `slot`'s LP.
fn solve_fig7_slot(slot: u64) -> PostcardSolution {
    let scenario = Scenario::fig7().scaled_down();
    let network = scenario.network(7);
    let mut workload = scenario.workload(7);
    let mut ledger = TrafficLedger::new(network.num_dcs());
    for s in 0..slot {
        let batch = workload.batch(s);
        if let Ok(sol) = solve_postcard(&network, &batch, &ledger) {
            sol.plan.apply_to_ledger(&mut ledger);
        }
    }
    let batch = workload.batch(slot);
    assert!(!batch.is_empty(), "the pinned slot must carry files");
    solve_postcard(&network, &batch, &ledger).expect("pinned slot solves")
}

#[test]
fn scaled_fig7_slot_lp_keeps_its_pivot_path() {
    // Slot 6 is the largest LP of the first few slots: about ten
    // refactorizations' worth of pivots over a ledger with committed peaks.
    let sol = solve_fig7_slot(6);
    assert_eq!(sol.lp_iterations, 695);
    assert_eq!(sol.dual_iterations, 0);
    assert_eq!(
        sol.cost_per_slot.to_bits(),
        0x4082_b188_47d3_134f,
        "objective {} moved off its pinned bits",
        sol.cost_per_slot
    );
}
