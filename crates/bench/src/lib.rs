//! # postcard-bench — shared helpers for the Criterion benches
//!
//! The benchmarks live in `benches/`; each figure bench prints the table
//! the paper plots (via `postcard_sim::report`) and then runs a Criterion
//! micro-benchmark of the per-slot solver kernel that dominates the
//! simulation's cost. Timings of the service path through the real
//! `Runtime` are slotbench's (`slotbench/`, declared in `BENCHMARK.json`).

use postcard_net::{DcId, FileId, Network, TransferRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random batch of files released at slot 0, for kernel
/// micro-benchmarks.
pub fn random_batch(
    seed: u64,
    num_dcs: usize,
    num_files: usize,
    max_deadline: usize,
) -> Vec<TransferRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_files)
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
                rng.gen_range(1..=max_deadline),
                0,
            )
        })
        .collect()
}

/// A deterministic complete network with uniform prices in `[1, 10]`.
pub fn random_network(seed: u64, num_dcs: usize, capacity: f64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::complete_with_prices(num_dcs, capacity, |_, _| rng.gen_range(1.0..=10.0))
}

/// Runs a figure scenario (scaled down) and prints the table + verdict the
/// paper's figure reports. Used by the `fig4`–`fig7` benches.
pub fn print_figure(base: &postcard_sim::Scenario, seed: u64) {
    let scenario = base.scaled_down();
    let approaches = postcard_sim::Approach::paper_pair();
    match postcard_sim::run_scenario(&scenario, &approaches, seed) {
        Ok(summaries) => {
            println!("{}", postcard_sim::report::render_table(&scenario, &summaries));
            println!("{}", postcard_sim::report::render_verdict(&summaries));
            println!();
        }
        Err(e) => eprintln!("{}: figure run failed: {e}", scenario.name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_is_deterministic() {
        assert_eq!(random_batch(1, 5, 4, 3), random_batch(1, 5, 4, 3));
        assert_eq!(random_batch(1, 5, 4, 3).len(), 4);
    }

    #[test]
    fn network_is_deterministic() {
        assert_eq!(random_network(2, 4, 30.0), random_network(2, 4, 30.0));
    }
}
