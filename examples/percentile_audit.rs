//! Audit a simulated charging period under different percentile schemes.
//!
//! The paper's optimizer targets the 100-th percentile (the peak sets the
//! bill), but real ISPs predominantly charge the 95-th percentile
//! (Sec. II-A). This example runs one online simulation and re-prices the
//! resulting ledger under several schemes, showing how much of the bill is
//! peak-driven — the headroom a q-aware optimizer (future work in the
//! paper) could exploit.
//!
//! ```sh
//! cargo run --release --example percentile_audit
//! ```

use postcard::core::{OnlineController, PostcardScheduler};
use postcard::net::ChargingScheme;
use postcard::sim::{Scenario, Trace};

fn main() {
    let scenario = Scenario::fig6().tiny();
    let network = scenario.network(3);
    let mut workload = scenario.workload(3);
    let trace = Trace::generate(&mut workload, scenario.num_slots);

    let mut ctl = OnlineController::new(network.clone(), PostcardScheduler::new());
    for slot in 0..scenario.num_slots {
        ctl.step(slot, trace.batch(slot)).expect("simulation step");
    }
    let ledger = ctl.ledger();
    // One billing window covering the whole simulated period.
    let period = (ledger.horizon() as usize).max(1);
    let scheme = |q| ChargingScheme::Percentile { q, window_slots: period };

    println!(
        "simulated {} slots, {} files, {:.0} GB carried",
        scenario.num_slots,
        trace.len(),
        ctl.admission_volumes().0
    );
    println!();
    println!("{:>12}  {:>14}  {:>16}", "scheme", "bill per slot", "vs 100th pctile");
    let p100 = ledger.cost_per_slot_scheme(&network, scheme(100.0));
    for q in [100.0, 99.0, 95.0, 90.0, 50.0] {
        let bill = ledger.cost_per_slot_scheme(&network, scheme(q));
        println!(
            "{:>11.0}%  {:>14.2}  {:>15.1}%",
            q,
            bill,
            if p100 > 0.0 { 100.0 * bill / p100 } else { 0.0 }
        );
    }
    println!();
    println!(
        "every link's charged rank in a {period}-slot period under p95: slot #{}",
        scheme(95.0).charged_rank(period)
    );
    println!(
        "(the paper's example: a one-year period of 5-minute slots charges sorted slot #{})",
        scheme(95.0).charged_rank(365 * 24 * 60 / 5)
    );
}
