//! Per-file constant-rate flow assignments (the flow-based model).
//!
//! In the flow-based approach (paper Sec. II-B) every file `k` is served at
//! its constant desired rate `r_k = F_k / T_k` for exactly `T_k` slots, with
//! *instantaneous* conservation at intermediate datacenters — data entering
//! a relay leaves it within the same slot, because temporal storage is what
//! the flow model removes.

use postcard_net::{DcId, FileId, Network, TrafficLedger, TransferRequest, VOLUME_TOL};
use std::collections::{BTreeMap, BTreeSet};

/// A constraint violation found by [`FlowAssignment::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlowViolation {
    /// A rate is assigned to a link absent from the network.
    MissingLink {
        /// Tail datacenter.
        from: DcId,
        /// Head datacenter.
        to: DcId,
    },
    /// Aggregate rate on a link in some slot exceeds available capacity.
    Capacity {
        /// Tail datacenter.
        from: DcId,
        /// Head datacenter.
        to: DcId,
        /// The offending slot.
        slot: u64,
        /// Aggregate rate of files active in that slot.
        used: f64,
        /// Capacity available in that slot.
        available: f64,
    },
    /// Instantaneous conservation fails at an intermediate datacenter.
    Conservation {
        /// The file.
        file: FileId,
        /// The datacenter with a rate imbalance.
        dc: DcId,
        /// `inflow − outflow` at that datacenter.
        imbalance: f64,
    },
    /// The net rate leaving the source (= entering the destination) differs
    /// from the file's desired rate.
    Delivery {
        /// The file.
        file: FileId,
        /// Net source rate found.
        delivered_rate: f64,
        /// Desired rate `F_k / T_k`.
        expected_rate: f64,
    },
}

/// Constant per-file rates on directed links.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowAssignment {
    /// `(file, from, to) → rate` (GB per slot).
    rates: BTreeMap<(u64, usize, usize), f64>,
}

impl FlowAssignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds rate (accumulating) for a file on a link.
    ///
    /// # Panics
    ///
    /// Panics on a self-link or a negative/non-finite rate.
    pub fn add_rate(&mut self, file: FileId, from: DcId, to: DcId, rate: f64) {
        assert!(from != to, "flow assignments have no storage");
        assert!(rate >= 0.0 && rate.is_finite(), "rate must be finite and non-negative");
        if rate <= 0.0 {
            return;
        }
        *self.rates.entry((file.0, from.0, to.0)).or_insert(0.0) += rate;
    }

    /// The rate of `file` on `from → to` (0 if absent).
    pub fn rate(&self, file: FileId, from: DcId, to: DcId) -> f64 {
        self.rates.get(&(file.0, from.0, to.0)).copied().unwrap_or(0.0)
    }

    /// Iterates `(file, from, to, rate)` tuples.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, DcId, DcId, f64)> + '_ {
        self.rates.iter().map(|(&(f, i, j), &r)| (FileId(f), DcId(i), DcId(j), r))
    }

    /// Number of non-zero `(file, link)` cells.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// `true` if no rates are assigned.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Distinct files with assigned rates.
    pub fn files(&self) -> BTreeSet<FileId> {
        self.rates.keys().map(|&(f, _, _)| FileId(f)).collect()
    }

    /// Merges another assignment into this one.
    pub fn merge(&mut self, other: &FlowAssignment) {
        for (f, i, j, r) in other.iter() {
            self.add_rate(f, i, j, r);
        }
    }

    /// The aggregate load a set of files puts on `from → to` during `slot`
    /// (only files active in that slot contribute).
    pub fn link_load(&self, files: &[TransferRequest], from: DcId, to: DcId, slot: u64) -> f64 {
        files.iter().filter(|f| f.active_in(slot)).map(|f| self.rate(f.id, from, to)).sum()
    }

    /// Validates the assignment for `files` against `network`.
    ///
    /// `extra_used(from, to, slot)` reports capacity already consumed by
    /// other traffic in each slot.
    pub fn validate(
        &self,
        network: &Network,
        files: &[TransferRequest],
        mut extra_used: impl FnMut(DcId, DcId, u64) -> f64,
    ) -> Vec<FlowViolation> {
        let mut out = Vec::new();
        let n = network.num_dcs();

        for (_, i, j, _) in self.iter() {
            if !network.has_link(i, j) {
                out.push(FlowViolation::MissingLink { from: i, to: j });
            }
        }

        // Conservation + delivery per file.
        for f in files {
            let mut net = vec![0.0f64; n]; // inflow − outflow
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let r = self.rate(f.id, DcId(i), DcId(j));
                    net[i] -= r;
                    net[j] += r;
                }
            }
            for (i, &imbalance) in net.iter().enumerate() {
                if i == f.src.0 || i == f.dst.0 {
                    continue;
                }
                if imbalance.abs() > VOLUME_TOL {
                    out.push(FlowViolation::Conservation { file: f.id, dc: DcId(i), imbalance });
                }
            }
            let delivered = -net[f.src.0];
            let expected = f.desired_rate();
            if (delivered - expected).abs() > VOLUME_TOL
                || (net[f.dst.0] - expected).abs() > VOLUME_TOL
            {
                out.push(FlowViolation::Delivery {
                    file: f.id,
                    delivered_rate: delivered,
                    expected_rate: expected,
                });
            }
        }

        // Capacity per (link, slot) across the union of windows.
        if let (Some(lo), Some(hi)) =
            (files.iter().map(|f| f.first_slot()).min(), files.iter().map(|f| f.last_slot()).max())
        {
            for slot in lo..=hi {
                for link in network.links() {
                    let used = self.link_load(files, link.from, link.to, slot);
                    if used <= VOLUME_TOL {
                        continue;
                    }
                    let available = link.capacity - extra_used(link.from, link.to, slot);
                    if used > available + VOLUME_TOL {
                        out.push(FlowViolation::Capacity {
                            from: link.from,
                            to: link.to,
                            slot,
                            used,
                            available,
                        });
                    }
                }
            }
        }
        out
    }

    /// Convenience: `true` when [`FlowAssignment::validate`] finds nothing.
    pub fn is_valid(
        &self,
        network: &Network,
        files: &[TransferRequest],
        extra_used: impl FnMut(DcId, DcId, u64) -> f64,
    ) -> bool {
        self.validate(network, files, extra_used).is_empty()
    }

    /// Calls `book(from, to, slot, volume)` for the traffic the assignment
    /// puts on a ledger: every file's rate on each of its links for each
    /// slot of its active window.
    pub fn for_each_booking(
        &self,
        files: &[TransferRequest],
        mut book: impl FnMut(DcId, DcId, u64, f64),
    ) {
        for f in files {
            for slot in f.first_slot()..=f.last_slot() {
                for (&(fid, i, j), &r) in &self.rates {
                    if fid == f.id.0 && r > 0.0 {
                        book(DcId(i), DcId(j), slot, r);
                    }
                }
            }
        }
    }

    /// Commits the assignment into a ledger (see
    /// [`FlowAssignment::for_each_booking`]).
    pub fn apply_to_ledger(&self, files: &[TransferRequest], ledger: &mut TrafficLedger) {
        self.for_each_booking(files, |from, to, slot, volume| {
            ledger.record(from, to, slot, volume)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_net::NetworkBuilder;

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    fn triangle() -> Network {
        NetworkBuilder::new(3)
            .link(d(0), d(2), 3.0, 5.0)
            .link(d(0), d(1), 1.0, 5.0)
            .link(d(1), d(2), 2.0, 5.0)
            .build()
    }

    fn file() -> TransferRequest {
        TransferRequest::new(FileId(1), d(0), d(2), 6.0, 3, 0) // rate 2
    }

    #[test]
    fn valid_split_flow() {
        let mut a = FlowAssignment::new();
        // 1 GB/slot direct, 1 GB/slot via relay.
        a.add_rate(FileId(1), d(0), d(2), 1.0);
        a.add_rate(FileId(1), d(0), d(1), 1.0);
        a.add_rate(FileId(1), d(1), d(2), 1.0);
        let v = a.validate(&triangle(), &[file()], |_, _, _| 0.0);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn conservation_violation() {
        let mut a = FlowAssignment::new();
        a.add_rate(FileId(1), d(0), d(2), 1.0);
        a.add_rate(FileId(1), d(0), d(1), 1.0); // enters relay, never leaves
        let v = a.validate(&triangle(), &[file()], |_, _, _| 0.0);
        assert!(v.iter().any(|x| matches!(x, FlowViolation::Conservation { .. })), "{v:?}");
    }

    #[test]
    fn short_delivery_violation() {
        let mut a = FlowAssignment::new();
        a.add_rate(FileId(1), d(0), d(2), 1.5); // rate 2 expected
        let v = a.validate(&triangle(), &[file()], |_, _, _| 0.0);
        assert!(v.iter().any(|x| matches!(x, FlowViolation::Delivery { .. })));
    }

    #[test]
    fn capacity_violation_with_two_files() {
        let f1 = file();
        let f2 = TransferRequest::new(FileId(2), d(0), d(2), 12.0, 3, 1); // rate 4, slots 1..=3
        let mut a = FlowAssignment::new();
        a.add_rate(FileId(1), d(0), d(2), 2.0);
        a.add_rate(FileId(2), d(0), d(2), 4.0);
        // Slots 1..=2 carry 6 > cap 5.
        let v = a.validate(&triangle(), &[f1, f2], |_, _, _| 0.0);
        assert!(
            v.iter().any(
                |x| matches!(x, FlowViolation::Capacity { slot, .. } if *slot == 1 || *slot == 2)
            ),
            "{v:?}"
        );
    }

    #[test]
    fn missing_link_violation() {
        let mut a = FlowAssignment::new();
        a.add_rate(FileId(1), d(2), d(0), 2.0);
        let v = a.validate(&triangle(), &[file()], |_, _, _| 0.0);
        assert!(v.iter().any(|x| matches!(x, FlowViolation::MissingLink { .. })));
    }

    #[test]
    fn ledger_commitment_and_cost() {
        let mut a = FlowAssignment::new();
        a.add_rate(FileId(1), d(0), d(1), 2.0);
        a.add_rate(FileId(1), d(1), d(2), 2.0);
        let mut ledger = TrafficLedger::new(3);
        a.apply_to_ledger(&[file()], &mut ledger);
        // 2 GB/slot for 3 slots on both relay links.
        assert_eq!(ledger.volume(d(0), d(1), 0), 2.0);
        assert_eq!(ledger.volume(d(1), d(2), 2), 2.0);
        assert_eq!(ledger.peak(d(0), d(1)), 2.0);
        // Cost per slot: 1·2 + 2·2 = 6.
        assert!((ledger.cost_per_slot(&triangle()) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn merge_and_accessors() {
        let mut a = FlowAssignment::new();
        a.add_rate(FileId(1), d(0), d(1), 1.0);
        let mut b = FlowAssignment::new();
        b.add_rate(FileId(1), d(0), d(1), 0.5);
        b.add_rate(FileId(2), d(1), d(2), 2.0);
        a.merge(&b);
        assert_eq!(a.rate(FileId(1), d(0), d(1)), 1.5);
        assert_eq!(a.len(), 2);
        assert_eq!(a.files().len(), 2);
    }

    #[test]
    #[should_panic(expected = "no storage")]
    fn self_link_rate_rejected() {
        FlowAssignment::new().add_rate(FileId(0), d(1), d(1), 1.0);
    }
}
