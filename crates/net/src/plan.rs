//! Transfer plans: the decision tensor `M_ij^k(n)` with validation.
//!
//! A [`TransferPlan`] records, for every file `k`, slot `n`, and ordered
//! datacenter pair `(i, j)`, the volume `M_ij^k(n)` moved from `i` to `j`
//! during slot `n`. Entries with `i == j` are *holdovers* — data stored at
//! `i` across the slot boundary, the paper's store-and-forward primitive.
//!
//! [`TransferPlan::validate`] checks every constraint of the paper's
//! optimization problem (Eqs. 7–10) from first principles: link existence,
//! capacity, per-file conservation via forward simulation, deadline windows,
//! and non-negativity. The test-suites of the optimizer crates never trust
//! the optimizer's own arithmetic — they validate plans here.

use crate::file::{FileId, TransferRequest};
use crate::ledger::TrafficLedger;
use crate::topology::{split_csv_fields, DcId, Network};
use crate::VOLUME_TOL;
use std::collections::{BTreeMap, BTreeSet};

/// One `(file, slot, i, j, volume)` record of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEntry {
    /// The file being moved or held.
    pub file: FileId,
    /// The slot during which it moves.
    pub slot: u64,
    /// Tail datacenter.
    pub from: DcId,
    /// Head datacenter (equal to `from` for holdover).
    pub to: DcId,
    /// Volume in GB (> 0).
    pub volume: f64,
}

impl PlanEntry {
    /// `true` if this entry is a holdover (storage) rather than transit.
    pub fn is_holdover(&self) -> bool {
        self.from == self.to
    }
}

/// A constraint violation found by [`TransferPlan::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanViolation {
    /// A transit entry uses a link absent from the network.
    MissingLink {
        /// Tail datacenter.
        from: DcId,
        /// Head datacenter.
        to: DcId,
    },
    /// Aggregate volume on a link in a slot exceeds the available capacity.
    Capacity {
        /// Tail datacenter.
        from: DcId,
        /// Head datacenter.
        to: DcId,
        /// The offending slot.
        slot: u64,
        /// Total planned volume.
        used: f64,
        /// Capacity available.
        available: f64,
    },
    /// A file moves volume it does not hold at some datacenter/slot, or
    /// strands volume there (conservation, Eq. 8).
    Conservation {
        /// The file.
        file: FileId,
        /// The datacenter where conservation breaks.
        dc: DcId,
        /// The slot at which it breaks.
        slot: u64,
        /// Volume present at the start of the slot.
        stock: f64,
        /// Volume the plan moves out during the slot.
        outflow: f64,
    },
    /// A file's mass is not entirely at its destination at its deadline.
    Delivery {
        /// The file.
        file: FileId,
        /// Volume found at the destination at the deadline.
        delivered: f64,
        /// The file size that should have arrived.
        expected: f64,
    },
    /// An entry lies outside the file's `[release, release + T_k)` window
    /// (Eq. 10) or references an unknown file.
    Window {
        /// The file.
        file: FileId,
        /// The offending slot.
        slot: u64,
    },
}

/// The full routing-and-scheduling decision for a set of files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferPlan {
    /// `(slot, from, to, file) → volume`; BTreeMap for deterministic order.
    entries: BTreeMap<(u64, usize, usize, u64), f64>,
}

impl TransferPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds volume to an entry (accumulating).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite volume.
    pub fn add(&mut self, file: FileId, slot: u64, from: DcId, to: DcId, volume: f64) {
        assert!(volume >= 0.0 && volume.is_finite(), "volume must be finite and non-negative");
        if volume <= 0.0 {
            return;
        }
        *self.entries.entry((slot, from.0, to.0, file.0)).or_insert(0.0) += volume;
    }

    /// The volume of one `(file, slot, i, j)` cell (0 if absent).
    pub fn volume(&self, file: FileId, slot: u64, from: DcId, to: DcId) -> f64 {
        self.entries.get(&(slot, from.0, to.0, file.0)).copied().unwrap_or(0.0)
    }

    /// Iterates all entries in `(slot, from, to, file)` order.
    pub fn iter(&self) -> impl Iterator<Item = PlanEntry> + '_ {
        self.entries.iter().map(|(&(slot, from, to, file), &volume)| PlanEntry {
            file: FileId(file),
            slot,
            from: DcId(from),
            to: DcId(to),
            volume,
        })
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the plan has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Distinct files referenced.
    pub fn files(&self) -> BTreeSet<FileId> {
        self.entries.keys().map(|&(_, _, _, f)| FileId(f)).collect()
    }

    /// Aggregate *transit* volume moved on `from → to` during `slot`
    /// (holdovers excluded — they are not ISP traffic).
    pub fn link_slot_total(&self, from: DcId, to: DcId, slot: u64) -> f64 {
        if from == to {
            return 0.0;
        }
        self.entries
            .range((slot, from.0, to.0, 0)..=(slot, from.0, to.0, u64::MAX))
            .map(|(_, &v)| v)
            .sum()
    }

    /// Peak per-slot transit volume of a link over the plan's slots.
    pub fn link_peak(&self, from: DcId, to: DcId) -> f64 {
        let mut by_slot: BTreeMap<u64, f64> = BTreeMap::new();
        for e in self.iter() {
            if e.from == from && e.to == to && !e.is_holdover() {
                *by_slot.entry(e.slot).or_insert(0.0) += e.volume;
            }
        }
        by_slot.values().fold(0.0f64, |a, &b| a.max(b))
    }

    /// Total holdover volume of a file at `dc` during `slot`.
    pub fn holdover(&self, file: FileId, dc: DcId, slot: u64) -> f64 {
        self.volume(file, slot, dc, dc)
    }

    /// Total volume stored anywhere across all slots (a measure of how much
    /// store-and-forward the plan uses).
    pub fn total_holdover(&self) -> f64 {
        self.iter().filter(PlanEntry::is_holdover).map(|e| e.volume).sum()
    }

    /// Merges another plan into this one.
    pub fn merge(&mut self, other: &TransferPlan) {
        for e in other.iter() {
            self.add(e.file, e.slot, e.from, e.to, e.volume);
        }
    }

    /// Calls `book(from, to, slot, volume)` for every transit entry, in
    /// plan order: the traffic the plan puts on a ledger.
    pub fn for_each_booking(&self, mut book: impl FnMut(DcId, DcId, u64, f64)) {
        for e in self.iter().filter(|e| !e.is_holdover()) {
            book(e.from, e.to, e.slot, e.volume);
        }
    }

    /// Commits all transit entries into a ledger.
    pub fn apply_to_ledger(&self, ledger: &mut TrafficLedger) {
        self.for_each_booking(|from, to, slot, volume| ledger.record(from, to, slot, volume));
    }

    /// Validates the plan against the paper's constraints.
    ///
    /// * `network` supplies link existence and base capacity;
    /// * `files` are the requests this plan claims to serve — every file
    ///   must be fully delivered;
    /// * `extra_used(from, to, slot)` reports capacity already consumed by
    ///   other traffic (pass `|_, _, _| 0.0` when the plan stands alone).
    ///
    /// Returns all violations found; an empty vector means the plan is
    /// feasible.
    pub fn validate(
        &self,
        network: &Network,
        files: &[TransferRequest],
        mut extra_used: impl FnMut(DcId, DcId, u64) -> f64,
    ) -> Vec<PlanViolation> {
        let mut out = Vec::new();
        let by_id: BTreeMap<FileId, &TransferRequest> = files.iter().map(|f| (f.id, f)).collect();

        // Link existence + window checks, and per-(link, slot) aggregation.
        let mut link_slot: BTreeMap<(usize, usize, u64), f64> = BTreeMap::new();
        for e in self.iter() {
            match by_id.get(&e.file) {
                None => out.push(PlanViolation::Window { file: e.file, slot: e.slot }),
                Some(f) if !f.active_in(e.slot) => {
                    out.push(PlanViolation::Window { file: e.file, slot: e.slot })
                }
                Some(_) => {}
            }
            if !e.is_holdover() {
                if !network.has_link(e.from, e.to) {
                    out.push(PlanViolation::MissingLink { from: e.from, to: e.to });
                    continue;
                }
                *link_slot.entry((e.from.0, e.to.0, e.slot)).or_insert(0.0) += e.volume;
            }
        }
        for (&(i, j, slot), &used) in &link_slot {
            let (from, to) = (DcId(i), DcId(j));
            let available = network.capacity(from, to).unwrap_or(0.0) - extra_used(from, to, slot);
            if used > available + VOLUME_TOL {
                out.push(PlanViolation::Capacity { from, to, slot, used, available });
            }
        }

        // Conservation by forward simulation, per file.
        for f in files {
            let n = network.num_dcs();
            let mut stock = vec![0.0; n];
            stock[f.src.0] = f.size_gb;
            for slot in f.first_slot()..=f.last_slot() {
                let mut outflow = vec![0.0; n];
                let mut inflow = vec![0.0; n];
                for (i, out) in outflow.iter_mut().enumerate() {
                    for (j, inn) in inflow.iter_mut().enumerate() {
                        let v = self.volume(f.id, slot, DcId(i), DcId(j));
                        *out += v;
                        *inn += v;
                    }
                }
                for i in 0..n {
                    // The destination absorbs: it may retain stock without an
                    // explicit holdover entry (and may still relay a part).
                    // Every other datacenter must move exactly what it holds,
                    // holding via an explicit `M_ii` entry if need be.
                    let ok = if i == f.dst.0 {
                        outflow[i] <= stock[i] + VOLUME_TOL
                    } else {
                        (outflow[i] - stock[i]).abs() <= VOLUME_TOL
                    };
                    if !ok {
                        out.push(PlanViolation::Conservation {
                            file: f.id,
                            dc: DcId(i),
                            slot,
                            stock: stock[i],
                            outflow: outflow[i],
                        });
                    }
                }
                inflow[f.dst.0] += (stock[f.dst.0] - outflow[f.dst.0]).max(0.0);
                stock = inflow;
            }
            let delivered = stock[f.dst.0];
            if (delivered - f.size_gb).abs() > VOLUME_TOL {
                out.push(PlanViolation::Delivery { file: f.id, delivered, expected: f.size_gb });
            }
        }
        out
    }

    /// The cumulative volume of `file` that has arrived at `dst` by the end
    /// of each slot in `[first, last]` — the file's *delivery curve*. A
    /// deadline-respecting plan reaches the file size at the last slot.
    ///
    /// Arrival means crossing a transit arc into `dst` (holdover at `dst`
    /// keeps data there; relaying *out* of `dst` subtracts).
    pub fn delivery_curve(&self, file: &TransferRequest, dst: DcId) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        let mut arrived = 0.0;
        for slot in file.first_slot()..=file.last_slot() {
            for e in self.iter() {
                if e.file == file.id && e.slot == slot && !e.is_holdover() {
                    if e.to == dst {
                        arrived += e.volume;
                    }
                    if e.from == dst {
                        arrived -= e.volume;
                    }
                }
            }
            out.push((slot, arrived));
        }
        out
    }

    /// Serializes the plan to CSV: a header, then one
    /// `file,slot,from,to,volume` line per entry (holdovers have
    /// `from == to`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("file,slot,from,to,volume\n");
        for e in self.iter() {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                e.file.0, e.slot, e.from.0, e.to.0, e.volume
            ));
        }
        out
    }

    /// Parses the CSV produced by [`TransferPlan::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn from_csv(text: &str) -> Result<TransferPlan, String> {
        let mut plan = TransferPlan::new();
        for (i, line) in text.lines().enumerate() {
            if (i == 0 && line.starts_with("file,")) || line.trim().is_empty() {
                continue;
            }
            let err = |m: &str| format!("plan CSV line {}: {m}", i + 1);
            let Some(parts) = split_csv_fields::<5>(line) else {
                return Err(err("expected `file,slot,from,to,volume`"));
            };
            let file: u64 = parts[0].trim().parse().map_err(|_| err("bad file id"))?;
            let slot: u64 = parts[1].trim().parse().map_err(|_| err("bad slot"))?;
            let from: usize = parts[2].trim().parse().map_err(|_| err("bad from"))?;
            let to: usize = parts[3].trim().parse().map_err(|_| err("bad to"))?;
            let volume: f64 = parts[4].trim().parse().map_err(|_| err("bad volume"))?;
            if !(volume >= 0.0 && volume.is_finite()) {
                return Err(err("volume must be finite and non-negative"));
            }
            plan.add(FileId(file), slot, DcId(from), DcId(to), volume);
        }
        Ok(plan)
    }

    /// Convenience: `true` when [`TransferPlan::validate`] finds nothing.
    pub fn is_valid(
        &self,
        network: &Network,
        files: &[TransferRequest],
        extra_used: impl FnMut(DcId, DcId, u64) -> f64,
    ) -> bool {
        self.validate(network, files, extra_used).is_empty()
    }
}

impl Extend<PlanEntry> for TransferPlan {
    fn extend<T: IntoIterator<Item = PlanEntry>>(&mut self, iter: T) {
        for e in iter {
            self.add(e.file, e.slot, e.from, e.to, e.volume);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    /// The Fig. 1 network: D2 →(10) D3 direct, D2 →(1) D1 →(3) D3 relay.
    /// (Indices: D1=0, D2=1, D3=2.)
    fn fig1_net() -> Network {
        crate::topology::NetworkBuilder::new(3)
            .link(d(1), d(2), 10.0, 1000.0)
            .link(d(1), d(0), 1.0, 1000.0)
            .link(d(0), d(2), 3.0, 1000.0)
            .build()
    }

    fn fig1_file() -> TransferRequest {
        TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0)
    }

    /// The paper's Fig. 1(b) plan: split 6 MB into two 3 MB blocks sent
    /// pipelined over D2 → D1 → D3 across three slots.
    fn fig1_plan() -> TransferPlan {
        let mut p = TransferPlan::new();
        let f = FileId(1);
        // Slot 0: first block D2→D1, second block held at D2.
        p.add(f, 0, d(1), d(0), 3.0);
        p.add(f, 0, d(1), d(1), 3.0);
        // Slot 1: first block D1→D3, second block D2→D1.
        p.add(f, 1, d(0), d(2), 3.0);
        p.add(f, 1, d(1), d(0), 3.0);
        // Slot 2: second block D1→D3.
        p.add(f, 2, d(0), d(2), 3.0);
        p
    }

    #[test]
    fn fig1_plan_is_valid() {
        let v = fig1_plan().validate(&fig1_net(), &[fig1_file()], |_, _, _| 0.0);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn fig1_plan_costs_twelve_per_slot() {
        // Charged volumes: 3 on D2→D1 (price 1), 3 on D1→D3 (price 3) ⇒ 12.
        let p = fig1_plan();
        let net = fig1_net();
        let mut ledger = TrafficLedger::new(3);
        p.apply_to_ledger(&mut ledger);
        assert!((ledger.cost_per_slot(&net) - 12.0).abs() < 1e-9);
        // Versus 20 for the direct plan.
        let mut direct = TransferPlan::new();
        direct.add(FileId(1), 0, d(1), d(2), 2.0);
        direct.add(FileId(1), 1, d(1), d(2), 2.0);
        direct.add(FileId(1), 2, d(1), d(2), 2.0);
        // Direct plan as stated is NOT conservation-valid (file can't
        // trickle without holdover bookkeeping); build it properly:
        let mut direct = TransferPlan::new();
        let f = FileId(1);
        direct.add(f, 0, d(1), d(2), 2.0);
        direct.add(f, 0, d(1), d(1), 4.0);
        direct.add(f, 1, d(1), d(2), 2.0);
        direct.add(f, 1, d(1), d(1), 2.0);
        direct.add(f, 2, d(1), d(2), 2.0);
        assert!(direct.is_valid(&net, &[fig1_file()], |_, _, _| 0.0));
        let mut l2 = TrafficLedger::new(3);
        direct.apply_to_ledger(&mut l2);
        assert!((l2.cost_per_slot(&net) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_violation_detected() {
        let mut net = fig1_net();
        net.set_capacity(d(1), d(0), 2.0);
        let v = fig1_plan().validate(&net, &[fig1_file()], |_, _, _| 0.0);
        assert!(v.iter().any(|x| matches!(x, PlanViolation::Capacity { .. })), "{v:?}");
    }

    #[test]
    fn extra_usage_tightens_capacity() {
        let net = fig1_net();
        let v = fig1_plan().validate(&net, &[fig1_file()], |from, to, slot| {
            if from == d(1) && to == d(0) && slot == 0 {
                999.0
            } else {
                0.0
            }
        });
        assert!(v.iter().any(|x| matches!(x, PlanViolation::Capacity { slot: 0, .. })));
    }

    #[test]
    fn conservation_violation_detected() {
        let mut p = fig1_plan();
        // Move volume D1→D3 in slot 0 that D1 does not hold yet.
        p.add(FileId(1), 0, d(0), d(2), 1.0);
        let v = p.validate(&fig1_net(), &[fig1_file()], |_, _, _| 0.0);
        assert!(v.iter().any(|x| matches!(x, PlanViolation::Conservation { .. })), "{v:?}");
    }

    #[test]
    fn short_delivery_detected() {
        let mut p = TransferPlan::new();
        let f = FileId(1);
        // Only 4 of 6 GB ever leave the source (2 stranded).
        p.add(f, 0, d(1), d(0), 4.0);
        p.add(f, 0, d(1), d(1), 2.0);
        p.add(f, 1, d(0), d(2), 4.0);
        p.add(f, 1, d(1), d(1), 2.0);
        p.add(f, 2, d(1), d(1), 2.0);
        let v = p.validate(&fig1_net(), &[fig1_file()], |_, _, _| 0.0);
        assert!(v.iter().any(|x| matches!(x, PlanViolation::Delivery { .. })), "{v:?}");
    }

    #[test]
    fn window_violation_detected() {
        let mut p = fig1_plan();
        p.add(FileId(1), 99, d(1), d(0), 0.5);
        let v = p.validate(&fig1_net(), &[fig1_file()], |_, _, _| 0.0);
        assert!(v.iter().any(|x| matches!(x, PlanViolation::Window { slot: 99, .. })));
    }

    #[test]
    fn missing_link_detected() {
        let mut p = fig1_plan();
        p.add(FileId(1), 0, d(2), d(1), 0.5); // no such link in fig1_net
        let v = p.validate(&fig1_net(), &[fig1_file()], |_, _, _| 0.0);
        assert!(v.iter().any(|x| matches!(x, PlanViolation::MissingLink { .. })));
    }

    #[test]
    fn aggregates_and_peaks() {
        let p = fig1_plan();
        assert_eq!(p.link_slot_total(d(1), d(0), 0), 3.0);
        assert_eq!(p.link_slot_total(d(1), d(0), 1), 3.0);
        assert_eq!(p.link_peak(d(1), d(0)), 3.0);
        assert_eq!(p.link_peak(d(1), d(2)), 0.0);
        assert_eq!(p.holdover(FileId(1), d(1), 0), 3.0);
        assert_eq!(p.total_holdover(), 3.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = fig1_plan();
        let b = fig1_plan();
        a.merge(&b);
        assert_eq!(a.volume(FileId(1), 0, d(1), d(0)), 6.0);
    }

    #[test]
    fn zero_add_is_noop() {
        let mut p = TransferPlan::new();
        p.add(FileId(0), 0, d(0), d(1), 0.0);
        assert!(p.is_empty());
    }

    #[test]
    fn files_set() {
        let p = fig1_plan();
        let files = p.files();
        assert_eq!(files.len(), 1);
        assert!(files.contains(&FileId(1)));
    }

    #[test]
    fn delivery_curve_is_monotone_and_complete() {
        let p = fig1_plan();
        let f = fig1_file();
        let curve = p.delivery_curve(&f, f.dst);
        assert_eq!(curve.len(), 3);
        // 0, 3, 6 GB delivered by the ends of slots 0, 1, 2.
        assert_eq!(curve[0], (0, 0.0));
        assert!((curve[1].1 - 3.0).abs() < 1e-12);
        assert!((curve[2].1 - 6.0).abs() < 1e-12);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12, "curve must be monotone here");
        }
    }

    #[test]
    fn csv_round_trip() {
        let p = fig1_plan();
        let csv = p.to_csv();
        let back = TransferPlan::from_csv(&csv).unwrap();
        assert_eq!(p, back);
        assert!(csv.lines().count() >= 6); // header + 5 entries
    }

    #[test]
    fn csv_parse_errors() {
        assert!(TransferPlan::from_csv("file,slot,from,to,volume\n1,2,3\n")
            .unwrap_err()
            .contains("line 2"));
        assert!(TransferPlan::from_csv("0,0,0,1,-5\n").unwrap_err().contains("volume"));
    }
}
