//! The paper's own slot size: 20 DCs, 380 links and 19 files. Its Postcard
//! LP has 2,334 rows and 8,202 standard-form columns, too large for a debug
//! build, so the test is ignored by default. Run it with
//!
//! ```sh
//! cargo test --release -q --test paper_scale -- --ignored
//! ```

use postcard::core::{build_postcard_problem, PostcardConfig};
use postcard::net::{Network, TrafficLedger};
use postcard::sim::Trace;

/// The slot's optimal bill per slot, found independently by a
/// Dantzig-only simplex (no switch to Bland's rule).
const BILL: f64 = 3697.57;

/// Runs one CLI command.
fn cli(args: &[&str]) {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    postcard_cli::run(&argv, &mut Vec::new()).expect("the command runs");
}

#[test]
#[ignore = "paper-scale LP; run under --release with --ignored"]
fn paper_scale_slot_solves_within_the_pivot_cap() {
    let dir = std::env::temp_dir().join(format!("postcard-paper-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let net_path = dir.join("net.csv").to_string_lossy().into_owned();
    let trace_path = dir.join("trace.csv").to_string_lossy().into_owned();
    cli(&["gen-network", "--dcs", "20", "--seed", "7", "--out", &net_path]);
    cli(&[
        "gen-trace",
        "--dcs",
        "20",
        "--slots",
        "1",
        "--files",
        "19..19",
        "--max-deadline",
        "3",
        "--seed",
        "7",
        "--out",
        &trace_path,
    ]);
    let network = Network::from_csv(&std::fs::read_to_string(&net_path).expect("network file"))
        .expect("network parses");
    let trace = Trace::from_csv(&std::fs::read_to_string(&trace_path).expect("trace file"))
        .expect("trace parses");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");

    let batch = trace.batch(0);
    assert_eq!(batch.len(), 19);
    let ledger = TrafficLedger::new(network.num_dcs());
    let problem = build_postcard_problem(&network, &batch, &ledger, &PostcardConfig::default())
        .expect("the slot LP builds");
    let lp = problem.model.solve().expect("solves under the default pivot cap");
    assert!(lp.is_optimal(), "status {:?}", lp.status());
    let sol = problem.map_solution(&lp).expect("optimal");
    assert_eq!(sol.plan.files().len(), batch.len(), "every file is planned");
    let violations = sol.plan.validate(&network, &batch, |_, _, _| 0.0);
    assert!(violations.is_empty(), "{violations:?}");
    let rel = (sol.cost_per_slot - BILL).abs() / BILL;
    assert!(rel <= 1e-6, "bill {} is {rel:.3e} off {BILL}", sol.cost_per_slot);
}
