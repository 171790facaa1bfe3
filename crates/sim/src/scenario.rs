//! Scenario presets for the paper's evaluation settings (Sec. VII).
//!
//! The paper simulates 20 datacenters in a complete graph, prices
//! `a_ij ~ U[1, 10]`, batches of `U[1, 20]` files per slot with sizes
//! `U[10, 100]` GB, over 100 slots × 10 runs, in four settings crossing
//! link capacity (100 vs 30 GB/slot) with delay tolerance
//! (`max_k T_k` = 3 vs 8). [`Scenario::fig4`]–[`Scenario::fig7`] are those
//! settings verbatim; [`Scenario::scaled_down`] shrinks the datacenter count
//! and batch size (keeping per-file rates, capacities, and deadlines — the
//! quantities that set the competitive regime) so the full sweep fits a
//! laptop/CI budget.

use crate::workload::{UniformWorkload, WorkloadConfig};
use postcard_net::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A complete evaluation setting.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Display name (e.g. `"fig4"`).
    pub name: String,
    /// Number of datacenters (complete digraph).
    pub num_dcs: usize,
    /// Uniform per-link capacity (GB/slot).
    pub capacity_gb: f64,
    /// Uniform price range `a_ij ~ U[lo, hi]` ($/GB).
    pub price_range: (f64, f64),
    /// Batch-size range per slot.
    pub files_per_slot: (usize, usize),
    /// File-size range (GB).
    pub size_gb: (f64, f64),
    /// Deadline range (slots); `.1` is the paper's `max_k T_k`.
    pub deadline_slots: (usize, usize),
    /// Slots per run.
    pub num_slots: u64,
    /// Independent repetitions.
    pub num_runs: usize,
}

impl Scenario {
    /// Fig. 4: ample capacity (100 GB/slot), urgent files (`max T = 3`).
    pub fn fig4() -> Self {
        Self::paper("fig4", 100.0, 3)
    }

    /// Fig. 5: ample capacity (100 GB/slot), patient files (`max T = 8`).
    pub fn fig5() -> Self {
        Self::paper("fig5", 100.0, 8)
    }

    /// Fig. 6: throttled capacity (30 GB/slot), urgent files (`max T = 3`).
    pub fn fig6() -> Self {
        Self::paper("fig6", 30.0, 3)
    }

    /// Fig. 7: throttled capacity (30 GB/slot), patient files (`max T = 8`).
    pub fn fig7() -> Self {
        Self::paper("fig7", 30.0, 8)
    }

    fn paper(name: &str, capacity_gb: f64, max_deadline: usize) -> Self {
        Self {
            name: name.into(),
            num_dcs: 20,
            capacity_gb,
            price_range: (1.0, 10.0),
            files_per_slot: (1, 20),
            size_gb: (10.0, 100.0),
            deadline_slots: (1, max_deadline),
            num_slots: 100,
            num_runs: 10,
        }
    }

    /// A laptop-scale reduction of this scenario: 6 datacenters and 1–4
    /// files per slot (≈ the paper's per-datacenter arrival rate), 40
    /// slots, 5 runs. Per-file rates, link capacity, prices, and deadlines
    /// are unchanged, preserving the capacity regime that drives the
    /// paper's findings.
    pub fn scaled_down(&self) -> Self {
        Self {
            name: format!("{}-scaled", self.name),
            num_dcs: 6,
            files_per_slot: (1, 4),
            num_slots: 40,
            num_runs: 5,
            ..self.clone()
        }
    }

    /// An even smaller variant used by unit/integration tests.
    pub fn tiny(&self) -> Self {
        Self {
            name: format!("{}-tiny", self.name),
            num_dcs: 4,
            files_per_slot: (1, 2),
            num_slots: 10,
            num_runs: 2,
            ..self.clone()
        }
    }

    /// The four paper settings.
    pub fn all_figures() -> Vec<Scenario> {
        vec![Self::fig4(), Self::fig5(), Self::fig6(), Self::fig7()]
    }

    /// Samples the network for one run: a complete digraph with prices
    /// `U[price_range]` and uniform capacity.
    pub fn network(&self, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lo, hi) = self.price_range;
        Network::complete_with_prices(self.num_dcs, self.capacity_gb, |_, _| rng.gen_range(lo..=hi))
    }

    /// The workload generator for one run.
    pub fn workload(&self, seed: u64) -> UniformWorkload {
        UniformWorkload::new(
            WorkloadConfig {
                num_dcs: self.num_dcs,
                files_per_slot: self.files_per_slot,
                size_gb: self.size_gb,
                deadline_slots: self.deadline_slots,
            },
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_section_vii() {
        let f4 = Scenario::fig4();
        assert_eq!(f4.num_dcs, 20);
        assert_eq!(f4.capacity_gb, 100.0);
        assert_eq!(f4.deadline_slots, (1, 3));
        assert_eq!(f4.files_per_slot, (1, 20));
        assert_eq!(f4.size_gb, (10.0, 100.0));
        assert_eq!(f4.num_slots, 100);
        assert_eq!(f4.num_runs, 10);
        assert_eq!(Scenario::fig5().deadline_slots.1, 8);
        assert_eq!(Scenario::fig6().capacity_gb, 30.0);
        assert_eq!(Scenario::fig7().capacity_gb, 30.0);
        assert_eq!(Scenario::fig7().deadline_slots.1, 8);
        assert_eq!(Scenario::all_figures().len(), 4);
    }

    #[test]
    fn scaled_down_preserves_regime_parameters() {
        let s = Scenario::fig6().scaled_down();
        assert_eq!(s.capacity_gb, 30.0);
        assert_eq!(s.size_gb, (10.0, 100.0));
        assert_eq!(s.deadline_slots, (1, 3));
        assert!(s.num_dcs < 20);
        assert!(s.name.contains("scaled"));
    }

    #[test]
    fn network_prices_in_range_and_seeded() {
        let s = Scenario::fig4().scaled_down();
        let n1 = s.network(42);
        let n2 = s.network(42);
        assert_eq!(n1, n2);
        for l in n1.links() {
            assert!((1.0..=10.0).contains(&l.price));
            assert_eq!(l.capacity, 100.0);
        }
        assert_ne!(n1, s.network(43));
    }

    #[test]
    fn workload_uses_scenario_dcs() {
        let s = Scenario::fig4().tiny();
        let mut w = s.workload(7);
        use postcard_net::Workload;
        for r in w.batch(0) {
            assert!(r.src.0 < s.num_dcs && r.dst.0 < s.num_dcs);
        }
    }
}
