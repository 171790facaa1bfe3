//! Pinned regressions for scaled-preset slot LPs (seed 7, slot 6).
//!
//! Two pins, with different jobs:
//!
//! - The **objective pin** builds the slot-6 LP over a ledger filled by a
//!   fixed rule that uses no LP, so the LP depends only on the traffic.
//!   Any correct solver must reach the same optimum, to 1e-9 relative,
//!   whatever vertex or pivot path it takes.
//! - The **pivot-path pin** replays slots 0–5 of scaled Fig. 7 and of
//!   scaled Fig. 4 through the solver itself, committing each optimal
//!   plan, and pins each slot-6 pivot count and objective bits. A solver change meant as a pure speed-up (a faster
//!   factorization, a cheaper `ftran`) must leave them exactly as they are.
//!   A change to pivot selection or to the start basis moves them, and may
//!   commit other optimal vertices in slots 0–5 and so change the bill.
//!
//! The crash test checks that the cold start's triangular crash covers
//! every zero right-hand-side row of a Postcard LP.

use postcard::core::{build_postcard_problem, solve_postcard, PostcardConfig, PostcardSolution};
use postcard::net::{Network, TrafficLedger, TransferRequest};
use postcard::sim::{Scenario, Workload};

/// Slot whose LP the pins solve: the largest LP of the first few slots.
const SLOT: u64 = 6;

/// Seed 7's network for the scaled `preset`, the ledger after `commit` has
/// recorded each of the slots `0..slot`, and slot `slot`'s batch.
fn preset_slot(
    preset: &Scenario,
    slot: u64,
    mut commit: impl FnMut(&Network, &[TransferRequest], &mut TrafficLedger),
) -> (Network, Vec<TransferRequest>, TrafficLedger) {
    let scenario = preset.scaled_down();
    let network = scenario.network(7);
    let mut workload = scenario.workload(7);
    let mut ledger = TrafficLedger::new(network.num_dcs());
    for s in 0..slot {
        commit(&network, &workload.batch(s), &mut ledger);
    }
    let batch = workload.batch(slot);
    assert!(!batch.is_empty(), "the pinned slot must carry files");
    (network, batch, ledger)
}

/// Commits each optimal plan; an infeasible batch is rejected whole, as
/// the runtime would.
fn commit_lp_plan(network: &Network, batch: &[TransferRequest], ledger: &mut TrafficLedger) {
    if let Ok(sol) = solve_postcard(network, batch, ledger) {
        sol.plan.apply_to_ledger(ledger);
    }
}

/// Records a quarter of each file on its direct link, spread evenly over
/// its deadline window. Uses no LP, so the resulting ledger is the same
/// for every solver.
fn commit_fixed_share(_: &Network, batch: &[TransferRequest], ledger: &mut TrafficLedger) {
    for f in batch {
        let per_slot = 0.25 * f.size_gb / f.deadline_slots as f64;
        for slot in f.first_slot()..=f.last_slot() {
            ledger.record(f.src, f.dst, slot, per_slot);
        }
    }
}

fn solve(
    preset: &Scenario,
    slot: u64,
    commit: fn(&Network, &[TransferRequest], &mut TrafficLedger),
) -> PostcardSolution {
    let (network, batch, ledger) = preset_slot(preset, slot, commit);
    solve_postcard(&network, &batch, &ledger).expect("pinned slot solves")
}

#[test]
fn scaled_fig7_slot_lp_objective_is_solver_independent() {
    // The optimum of an LP fixed by its inputs: checked on the commit
    // before the triangular crash and after it.
    const OPTIMUM: f64 = 214.726_659_938_299;
    let sol = solve(&Scenario::fig7(), SLOT, commit_fixed_share);
    let rel = (sol.cost_per_slot - OPTIMUM).abs() / OPTIMUM.abs();
    assert!(rel <= 1e-9, "objective {} is {rel:.3e} off the pinned {OPTIMUM}", sol.cost_per_slot);
}

#[test]
fn scaled_fig7_slot_lp_keeps_its_pivot_path() {
    // Scaled Fig. 4 (ample capacity, short deadlines) rides along as a
    // second preset, so a pivot-path change shows on both regimes.
    for (preset, pivots, bits) in [
        (Scenario::fig7(), 124, 0x4082_5773_e3ba_3803_u64),
        (Scenario::fig4(), 42, 0x4092_1c9d_a9c7_122d),
    ] {
        let sol = solve(&preset, SLOT, commit_lp_plan);
        assert_eq!(sol.lp_iterations, pivots, "{}", preset.name);
        assert_eq!(sol.dual_iterations, 0, "{}", preset.name);
        assert_eq!(
            sol.cost_per_slot.to_bits(),
            bits,
            "{}: objective {} moved off its pinned bits",
            preset.name,
            sol.cost_per_slot
        );
    }
}

#[test]
fn crash_covers_every_zero_rhs_row_of_a_postcard_lp() {
    // Against an empty ledger every capacity and envelope row starts on
    // its slack, and every conservation row but the files' release rows
    // has a zero right-hand side. The crash covers all of those, so only
    // the release rows keep an artificial.
    let (network, batch, ledger) = preset_slot(&Scenario::fig7(), SLOT, |_, _, _| {});
    let problem = build_postcard_problem(&network, &batch, &ledger, &PostcardConfig::default())
        .expect("builds");
    let sol = problem.model.solve().expect("solves");
    assert!(sol.is_optimal());
    assert_eq!(sol.artificials(), batch.len());
}
