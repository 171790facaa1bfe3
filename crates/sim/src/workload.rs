//! Workload generators (the [`Workload`] trait and the
//! [`postcard_net::Trace`] they fill live in `postcard-net`).
//!
//! The paper's evaluation draws, for every slot, a uniform number of files,
//! each with uniform size, uniform endpoints, and (implicitly) uniform
//! deadline up to `max_k T_k`. [`UniformWorkload`] reproduces that;
//! [`PoissonWorkload`] and [`DiurnalWorkload`] are extensions used by the
//! ablation benches (the diurnal pattern follows the Chen et al. observation
//! the paper cites).

use postcard_net::{DcId, FileId, TransferRequest, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters shared by the workload generators.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of datacenters files may originate from / go to.
    pub num_dcs: usize,
    /// Inclusive range for the number of files per slot (paper: `[1, 20]`).
    pub files_per_slot: (usize, usize),
    /// Inclusive range for file sizes in GB (paper: `[10, 100]`).
    pub size_gb: (f64, f64),
    /// Inclusive range for deadlines in slots (paper: `[1, max_k T_k]`).
    pub deadline_slots: (usize, usize),
}

impl WorkloadConfig {
    /// The paper's exact setting with the given deadline cap.
    pub fn paper(max_deadline: usize) -> Self {
        Self {
            num_dcs: 20,
            files_per_slot: (1, 20),
            size_gb: (10.0, 100.0),
            deadline_slots: (1, max_deadline),
        }
    }

    fn validate(&self) {
        assert!(self.num_dcs >= 2, "need at least two datacenters");
        assert!(self.files_per_slot.0 <= self.files_per_slot.1);
        assert!(self.size_gb.0 > 0.0 && self.size_gb.0 <= self.size_gb.1);
        assert!(self.deadline_slots.0 >= 1 && self.deadline_slots.0 <= self.deadline_slots.1);
    }
}

/// The paper's uniform workload.
#[derive(Debug, Clone)]
pub struct UniformWorkload {
    config: WorkloadConfig,
    rng: StdRng,
    next_id: u64,
}

impl UniformWorkload {
    /// Creates a seeded generator.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration ranges.
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        config.validate();
        Self { config, rng: StdRng::seed_from_u64(seed), next_id: 0 }
    }

    fn draw_file(&mut self, slot: u64) -> TransferRequest {
        let n = self.config.num_dcs;
        let src = self.rng.gen_range(0..n);
        let mut dst = self.rng.gen_range(0..n);
        while dst == src {
            dst = self.rng.gen_range(0..n);
        }
        let size = self.rng.gen_range(self.config.size_gb.0..=self.config.size_gb.1);
        let deadline =
            self.rng.gen_range(self.config.deadline_slots.0..=self.config.deadline_slots.1);
        let id = FileId(self.next_id);
        self.next_id += 1;
        TransferRequest::new(id, DcId(src), DcId(dst), size, deadline, slot)
    }
}

impl Workload for UniformWorkload {
    fn batch(&mut self, slot: u64) -> Vec<TransferRequest> {
        let count = self.rng.gen_range(self.config.files_per_slot.0..=self.config.files_per_slot.1);
        (0..count).map(|_| self.draw_file(slot)).collect()
    }
}

/// Poisson-arrival workload: the batch size is Poisson with the given mean
/// (sizes/endpoints/deadlines as in [`UniformWorkload`]).
#[derive(Debug, Clone)]
pub struct PoissonWorkload {
    inner: UniformWorkload,
    mean_files_per_slot: f64,
}

impl PoissonWorkload {
    /// Creates a seeded generator with mean batch size
    /// `mean_files_per_slot`.
    ///
    /// # Panics
    ///
    /// Panics if the mean is not positive or the config is inconsistent.
    pub fn new(config: WorkloadConfig, mean_files_per_slot: f64, seed: u64) -> Self {
        assert!(mean_files_per_slot > 0.0);
        Self { inner: UniformWorkload::new(config, seed), mean_files_per_slot }
    }

    /// Knuth's Poisson sampler (fine for small means).
    fn sample_poisson(&mut self) -> usize {
        let l = (-self.mean_files_per_slot).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.inner.rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // guard against pathological means
            }
        }
    }
}

impl Workload for PoissonWorkload {
    fn batch(&mut self, slot: u64) -> Vec<TransferRequest> {
        let count = self.sample_poisson();
        (0..count).map(|_| self.inner.draw_file(slot)).collect()
    }
}

/// Diurnal workload: the expected batch size follows a 24-hour sinusoid
/// (288 five-minute slots per day), peaking at `peak_files_per_slot` and
/// bottoming at `valley_files_per_slot`.
#[derive(Debug, Clone)]
pub struct DiurnalWorkload {
    inner: UniformWorkload,
    peak_files_per_slot: f64,
    valley_files_per_slot: f64,
    slots_per_day: u64,
}

impl DiurnalWorkload {
    /// Creates a seeded generator.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ valley ≤ peak` and `slots_per_day ≥ 2`.
    pub fn new(
        config: WorkloadConfig,
        peak_files_per_slot: f64,
        valley_files_per_slot: f64,
        slots_per_day: u64,
        seed: u64,
    ) -> Self {
        assert!(valley_files_per_slot >= 0.0 && valley_files_per_slot <= peak_files_per_slot);
        assert!(slots_per_day >= 2);
        Self {
            inner: UniformWorkload::new(config, seed),
            peak_files_per_slot,
            valley_files_per_slot,
            slots_per_day,
        }
    }

    /// Expected batch size at a slot.
    pub fn expected_at(&self, slot: u64) -> f64 {
        let phase = (slot % self.slots_per_day) as f64 / self.slots_per_day as f64;
        let mid = 0.5 * (self.peak_files_per_slot + self.valley_files_per_slot);
        let amp = 0.5 * (self.peak_files_per_slot - self.valley_files_per_slot);
        mid + amp * (2.0 * std::f64::consts::PI * phase).sin()
    }
}

impl Workload for DiurnalWorkload {
    fn batch(&mut self, slot: u64) -> Vec<TransferRequest> {
        let expect = self.expected_at(slot);
        let base = expect.floor() as usize;
        let frac = expect - base as f64;
        let count = base + usize::from(self.inner.rng.gen::<f64>() < frac);
        (0..count).map(|_| self.inner.draw_file(slot)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_net::Trace;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig {
            num_dcs: 5,
            files_per_slot: (1, 4),
            size_gb: (10.0, 100.0),
            deadline_slots: (1, 3),
        }
    }

    #[test]
    fn uniform_respects_ranges() {
        let mut w = UniformWorkload::new(cfg(), 1);
        for slot in 0..50 {
            let batch = w.batch(slot);
            assert!((1..=4).contains(&batch.len()));
            for r in batch {
                assert!(r.src != r.dst);
                assert!(r.src.0 < 5 && r.dst.0 < 5);
                assert!((10.0..=100.0).contains(&r.size_gb));
                assert!((1..=3).contains(&r.deadline_slots));
                assert_eq!(r.release_slot, slot);
            }
        }
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let mut a = UniformWorkload::new(cfg(), 7);
        let mut b = UniformWorkload::new(cfg(), 7);
        for slot in 0..10 {
            assert_eq!(a.batch(slot), b.batch(slot));
        }
        let mut c = UniformWorkload::new(cfg(), 8);
        let d: Vec<_> = (0..10).flat_map(|s| c.batch(s)).collect();
        let mut a2 = UniformWorkload::new(cfg(), 7);
        let e: Vec<_> = (0..10).flat_map(|s| a2.batch(s)).collect();
        assert_ne!(d, e, "different seeds should differ");
    }

    #[test]
    fn file_ids_are_unique() {
        let mut w = UniformWorkload::new(cfg(), 3);
        let ids: Vec<u64> = (0..30).flat_map(|s| w.batch(s)).map(|r| r.id.0).collect();
        let set: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
    }

    #[test]
    fn poisson_mean_roughly_matches() {
        let mut w = PoissonWorkload::new(cfg(), 3.0, 5);
        let total: usize = (0..2000).map(|s| w.batch(s).len()).sum();
        let mean = total as f64 / 2000.0;
        assert!((mean - 3.0).abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn diurnal_peak_exceeds_valley() {
        let w = DiurnalWorkload::new(cfg(), 8.0, 1.0, 288, 1);
        // Expected size at the sinusoid peak (quarter day) vs trough.
        assert!(w.expected_at(72) > w.expected_at(216));
        let mut w = w;
        let peak_total: usize = (0..50).map(|i| w.batch(72 + 288 * i).len()).sum();
        let valley_total: usize = (0..50).map(|i| w.batch(216 + 288 * i).len()).sum();
        assert!(peak_total > valley_total, "{peak_total} vs {valley_total}");
    }

    #[test]
    fn trace_round_trips_through_csv() {
        let mut w = UniformWorkload::new(cfg(), 9);
        let t = Trace::generate(&mut w, 10);
        assert!(!t.is_empty());
        assert_eq!(Trace::from_csv(&t.to_csv()).unwrap(), t);
    }

    #[test]
    fn trace_batches_partition_requests() {
        let mut w = UniformWorkload::new(cfg(), 2);
        let t = Trace::generate(&mut w, 12);
        let total: usize = (0..t.num_slots()).map(|s| t.batch(s).len()).sum();
        assert_eq!(total, t.len());
        assert!(t.total_volume() > 0.0);
    }
}
