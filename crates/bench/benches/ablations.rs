//! Ablations of the design choices DESIGN.md calls out:
//!
//! * **A1 — value of relay storage**: Postcard vs its
//!   no-relay-storage variant (pacing only at source/destination) in the
//!   throttled-capacity regime;
//! * **A2 — deadline (horizon) sweep**: Postcard's cost as `max T` grows,
//!   showing the "more delay tolerance ⇒ lower cost" trend as a curve;
//! * **A3 — all five approaches** side by side on the fig6 setting;
//! * plus a Criterion benchmark of how the per-slot solve scales with the
//!   time-expansion depth.

use criterion::{BenchmarkId, Criterion};
use postcard_bench::{random_batch, random_network};
use postcard_core::{solve_postcard_with, PostcardConfig};
use postcard_net::TrafficLedger;
use postcard_sim::{
    report, run_scenario, run_trace, Approach, DiurnalWorkload, Scenario, Trace, WorkloadConfig,
};
use std::hint::black_box;

fn ablation_storage() {
    println!("=== A1: value of relay storage (fig6 setting) ===");
    let scenario = Scenario::fig6().scaled_down();
    let out = run_scenario(&scenario, &[Approach::Postcard, Approach::PostcardNoRelayStorage], 3)
        .expect("scenario runs");
    println!("{}", report::render_table(&scenario, &out));
}

fn ablation_horizon() {
    println!("=== A2: deadline sweep (throttled capacity) ===");
    println!("{:>7}  {:>14}  {:>8}", "max T", "avg cost/slot", "rej%");
    for max_t in [1usize, 2, 4, 8] {
        let mut scenario = Scenario::fig6().scaled_down();
        scenario.deadline_slots = (1, max_t);
        scenario.num_runs = 3;
        scenario.num_slots = 20;
        let out = run_scenario(&scenario, &[Approach::Postcard], 5).expect("scenario runs");
        println!(
            "{max_t:>7}  {:>14.2}  {:>7.1}%",
            out[0].avg_cost.mean,
            100.0 * out[0].rejection_rate
        );
    }
    println!();
}

fn ablation_all_approaches() {
    println!("=== A3: all approaches (fig6 setting, reduced) ===");
    let mut scenario = Scenario::fig6().scaled_down();
    scenario.num_runs = 3;
    scenario.num_slots = 20;
    let out = run_scenario(
        &scenario,
        &[
            Approach::Postcard,
            Approach::FlowLp,
            Approach::FlowTwoPhase,
            Approach::FlowGreedy,
            Approach::Direct,
        ],
        7,
    )
    .expect("scenario runs");
    println!("{}", report::render_table(&scenario, &out));
    println!("{}", report::render_verdict(&out));
    println!();
}

fn ablation_diurnal() {
    println!("=== A4: diurnal vs uniform arrivals (throttled capacity) ===");
    // Same expected volume per day, different temporal shape: the diurnal
    // pattern leaves deep night valleys that store-and-forward can exploit.
    let scenario = Scenario::fig7().scaled_down();
    let network = scenario.network(13);
    let slots = scenario.num_slots;
    let cfg = WorkloadConfig {
        num_dcs: scenario.num_dcs,
        files_per_slot: scenario.files_per_slot,
        size_gb: scenario.size_gb,
        deadline_slots: scenario.deadline_slots,
    };
    let mut uniform = scenario.workload(13);
    let uniform_trace = Trace::generate(&mut uniform, slots);
    // Peak/valley chosen so the mean batch size matches the uniform one.
    let mean = 0.5 * (scenario.files_per_slot.0 + scenario.files_per_slot.1) as f64;
    let mut diurnal = DiurnalWorkload::new(cfg, 2.0 * mean - 0.2, 0.2, slots / 2, 13);
    let diurnal_trace = Trace::generate(&mut diurnal, slots);

    println!(
        "{:<10}{:<12}{:>14}{:>10}{:>10}",
        "workload", "approach", "avg cost/slot", "$/GB", "rej%"
    );
    for (name, trace) in [("uniform", &uniform_trace), ("diurnal", &diurnal_trace)] {
        for approach in [Approach::Postcard, Approach::FlowLp] {
            let r = run_trace(&network, trace, slots, approach, 0).expect("trace runs");
            println!(
                "{:<10}{:<12}{:>14.2}{:>10.2}{:>9.1}%",
                name,
                approach.name(),
                r.avg_cost_per_slot,
                r.cost_per_gb(),
                100.0 * r.rejected as f64 / (r.accepted + r.rejected).max(1) as f64
            );
        }
    }
    println!();
}

fn horizon_scaling(c: &mut Criterion) {
    // Three files of at most 100 GB each fit on any direct link of 300
    // GB/slot, so the batch is feasible at every horizon, including one
    // slot, where no relay path is available.
    let network = random_network(9, 6, 300.0);
    let ledger = TrafficLedger::new(6);
    let mut g = c.benchmark_group("postcard_solve_vs_horizon");
    g.sample_size(10);
    for &max_t in &[1usize, 2, 4, 8] {
        let batch = random_batch(9, 6, 3, max_t);
        g.bench_with_input(BenchmarkId::from_parameter(max_t), &batch, |b, batch| {
            b.iter(|| {
                solve_postcard_with(
                    black_box(&network),
                    black_box(batch),
                    &ledger,
                    &PostcardConfig::default(),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn main() {
    ablation_storage();
    ablation_horizon();
    ablation_all_approaches();
    ablation_diurnal();
    let mut c = Criterion::default().configure_from_args();
    horizon_scaling(&mut c);
    c.final_summary();
}
