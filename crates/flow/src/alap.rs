//! As-Late-As-Possible admission against a residual time-expanded grid.
//!
//! Every slot of the online pipeline normally pays a full LP solve before a
//! single file is admitted, coupling admission latency to solve cost.
//! DCRoute (and DDCCast's admission rung) shows the alternative: keep a
//! *residual* view of the time-expanded capacity — per link, per slot, how
//! much room is left after everything already committed — and admit or
//! reject each arrival by allocating it As-Late-As-Possible before its
//! deadline on cheapest residual paths. No LP model is built, and an
//! optimizer can re-plan periodically in the background.
//!
//! [`AlapScheduler`] implements that policy over [`ResidualGrid`]:
//!
//! * candidate paths come from [`postcard_net::paths::k_cheapest_paths`] (price
//!   order, deterministic). They depend only on the pair and the link
//!   prices, so the scheduler computes each `(src, dst)` pair's paths the
//!   first time the pair is asked for and keeps them until a
//!   [`AlapScheduler::rebase`] sees a network whose link set or prices
//!   differ from the ones they were computed on;
//! * a chunk placed on an `L`-hop path starting at slot `n` crosses hop `h`
//!   during slot `n + h` — one hop per slot, matching the time-expanded
//!   conservation rule of [`TransferPlan::validate`] — and must finish by
//!   the file's last slot;
//! * finish slots are tried latest-first, paths cheapest-first, so early
//!   capacity stays free for tighter future deadlines;
//! * volume not yet departed waits at the source as explicit holdover
//!   entries, so every admission is a *feasible* [`TransferPlan`] — a
//!   constructive witness that the full LP on the same residual state would
//!   also be feasible.
//!
//! With the pair's paths cached, a decision costs `O(k × window × hops)`
//! residual lookups (`k` paths, the file's deadline window in slots) plus
//! the plan it emits. The first decision for a pair after a price change
//! also runs Yen's algorithm, `O(k × n)` Dijkstra runs over `n` DCs.
//!
//! Admission mutates the grid (the placement is reserved); rejection rolls
//! every trial reservation back. The grid and the path cache are *derived*
//! state — capacity minus the committed ledger, and the network's prices —
//! so a crashed-and-resumed service rebuilds both deterministically with
//! [`AlapScheduler::rebase`] and lazy path lookups instead of snapshotting
//! them.

use postcard_net::paths::{k_cheapest_paths, PricedPath};
use postcard_net::{DcId, Network, TrafficLedger, TransferPlan, TransferRequest};

/// Volume below which a remainder counts as fully placed. Well under
/// [`postcard_net::VOLUME_TOL`], so plans that strand this much at the
/// source still validate.
const ALAP_TOL: f64 = 1e-9;

/// How many candidate paths per (src, dst) pair the allocator considers.
const DEFAULT_MAX_PATHS: usize = 4;

/// Residual per-link, per-slot capacity of the time-expanded network.
///
/// `residual(from, to, slot) = capacity(from, to) − reserved(from, to,
/// slot)`. Slots never written are implicitly at full capacity, so the grid
/// extends to any horizon without reallocation. Both tables are dense over
/// the `n × n` link index `from * n + to`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResidualGrid {
    /// Number of datacenters at the last rebase.
    n: usize,
    /// Link capacity at the last rebase in GB/slot; 0 for absent links.
    capacities: Vec<f64>,
    /// Reserved volume per link, per slot (index = slot); empty when
    /// nothing is reserved.
    reserved: Vec<Vec<f64>>,
}

impl ResidualGrid {
    /// An empty grid over `network`'s links with nothing reserved.
    pub fn from_network(network: &Network) -> Self {
        let mut grid = Self::default();
        grid.rebase(network, &TrafficLedger::new(network.num_dcs()));
        grid
    }

    /// Rebuilds the grid from scratch: capacities from `network` (so link
    /// degradations are picked up) and reservations from the committed
    /// volumes in `ledger`. After a rebase the grid exactly mirrors
    /// "capacity minus committed traffic" — the canonical residual state.
    pub fn rebase(&mut self, network: &Network, ledger: &TrafficLedger) {
        let n = network.num_dcs();
        self.n = n;
        self.capacities.clear();
        self.capacities.resize(n * n, 0.0);
        self.reserved.resize_with(n * n, Vec::new);
        self.reserved.iter_mut().for_each(Vec::clear);
        for l in network.links() {
            let idx = l.from.0 * n + l.to.0;
            self.capacities[idx] = l.capacity;
            self.reserved[idx].extend_from_slice(ledger.series(l.from, l.to));
        }
    }

    /// The dense index of `from → to`, or `None` outside the grid.
    fn index(&self, from: DcId, to: DcId) -> Option<usize> {
        (from.0 < self.n && to.0 < self.n).then(|| from.0 * self.n + to.0)
    }

    /// Remaining capacity on `from → to` during `slot` (0 for unknown
    /// links; never negative).
    pub fn residual(&self, from: DcId, to: DcId, slot: u64) -> f64 {
        let Some(idx) = self.index(from, to) else {
            return 0.0;
        };
        let used = self.reserved[idx].get(slot as usize).copied().unwrap_or(0.0);
        (self.capacities[idx] - used).max(0.0)
    }

    /// The most volume a chunk departing at `start` can carry along `path`
    /// (minimum residual over the hops at their respective slots).
    fn bottleneck(&self, path: &PricedPath, start: u64) -> f64 {
        let mut limit = f64::INFINITY;
        for (h, &(u, v)) in path.hops.iter().enumerate() {
            limit = limit.min(self.residual(u, v, start + h as u64));
        }
        limit
    }

    /// Reserves `volume` on `from → to` during `slot`. Only called for
    /// hops with positive residual, so the link is inside the grid.
    fn reserve(&mut self, from: DcId, to: DcId, slot: u64, volume: f64) {
        let series = &mut self.reserved[from.0 * self.n + to.0];
        if series.len() <= slot as usize {
            series.resize(slot as usize + 1, 0.0);
        }
        series[slot as usize] += volume;
    }

    /// Releases a reservation made by [`ResidualGrid::reserve`] (rollback).
    /// Prunes zeroed tails so a fully rolled-back grid compares equal to the
    /// grid before the attempt.
    fn release(&mut self, from: DcId, to: DcId, slot: u64, volume: f64) {
        let series = &mut self.reserved[from.0 * self.n + to.0];
        if let Some(v) = series.get_mut(slot as usize) {
            *v -= volume;
        }
        while series.last().is_some_and(|v| v.abs() < 1e-12) {
            series.pop();
        }
    }
}

/// The bit pattern of the price of link `idx = from * n + to`, or `None`
/// when `network` has no such link.
fn price_bits(network: &Network, idx: usize) -> Option<u64> {
    let n = network.num_dcs();
    network.price(DcId(idx / n), DcId(idx % n)).map(f64::to_bits)
}

/// The `k` cheapest paths of each `(src, dst)` pair, computed on first use
/// and kept while the network's link set and prices stay those they were
/// computed on.
#[derive(Debug, Clone, Default, PartialEq)]
struct PathCache {
    /// Number of datacenters the table covers.
    n: usize,
    /// Price bits of every link `from * n + to` the table was computed
    /// under; `None` for absent links.
    prices: Vec<Option<u64>>,
    /// Cached paths per pair `src * n + dst`; `None` until first asked for.
    table: Vec<Option<Vec<PricedPath>>>,
}

impl PathCache {
    /// Whether `network` has exactly the links and prices the table was
    /// computed under (compared bit for bit).
    fn matches(&self, network: &Network) -> bool {
        self.n == network.num_dcs()
            && self.prices.iter().enumerate().all(|(idx, &bits)| price_bits(network, idx) == bits)
    }

    /// Keeps the table if `network` matches it; otherwise empties it and
    /// records `network`'s links and prices.
    fn sync(&mut self, network: &Network) {
        if self.matches(network) {
            return;
        }
        let n = network.num_dcs();
        self.n = n;
        self.prices.clear();
        self.prices.extend((0..n * n).map(|idx| price_bits(network, idx)));
        self.table.clear();
        self.table.resize(n * n, None);
    }

    /// The `k` cheapest paths from `src` to `dst` in `network`, which must
    /// be the network the table was synced to.
    fn get(&mut self, network: &Network, src: DcId, dst: DcId, k: usize) -> &[PricedPath] {
        if self.n != network.num_dcs() {
            // Never rebased (a default scheduler): adopt this network.
            self.sync(network);
        }
        debug_assert!(self.matches(network), "network repriced without an ALAP rebase");
        self.table[src.0 * self.n + dst.0]
            .get_or_insert_with(|| k_cheapest_paths(network, src, dst, k))
    }
}

/// Why [`AlapScheduler::admit`] rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlapRejection {
    /// No path from source to destination exists in the network at all.
    NoPath,
    /// Paths exist, but the residual capacity inside the deadline window
    /// cannot carry the full file size.
    InsufficientResidual,
}

impl std::fmt::Display for AlapRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlapRejection::NoPath => f.write_str("no path from source to destination"),
            AlapRejection::InsufficientResidual => {
                f.write_str("insufficient residual capacity before the deadline")
            }
        }
    }
}

/// One reservation made while placing a file (kept for rollback).
#[derive(Debug, Clone, Copy)]
struct Reservation {
    from: DcId,
    to: DcId,
    slot: u64,
    volume: f64,
}

/// Deadline-guaranteed ALAP admission over a persistent [`ResidualGrid`].
///
/// Two schedulers are equal when their grids, path caches and path counts
/// are: the placement buffers are working space, cleared on every call, and take
/// no part in equality.
#[derive(Debug, Clone)]
pub struct AlapScheduler {
    grid: ResidualGrid,
    paths: PathCache,
    max_paths: usize,
    /// Grid reservations of the current call, kept for rollback.
    reservations: Vec<Reservation>,
    /// Chunks `(start_slot, path index, volume)` of the file being placed.
    chunks: Vec<(u64, usize, f64)>,
}

impl PartialEq for AlapScheduler {
    fn eq(&self, other: &Self) -> bool {
        self.grid == other.grid && self.paths == other.paths && self.max_paths == other.max_paths
    }
}

impl Default for AlapScheduler {
    /// An empty-grid scheduler; call [`AlapScheduler::rebase`] before the
    /// first admission (an empty grid has no capacity anywhere).
    fn default() -> Self {
        Self {
            grid: ResidualGrid::default(),
            paths: PathCache::default(),
            max_paths: DEFAULT_MAX_PATHS,
            reservations: Vec::new(),
            chunks: Vec::new(),
        }
    }
}

impl AlapScheduler {
    /// A scheduler whose grid starts at `network`'s full capacity.
    pub fn new(network: &Network) -> Self {
        let mut alap = Self::default();
        alap.rebase(network, &TrafficLedger::new(network.num_dcs()));
        alap
    }

    /// Rebuilds the residual grid from the current network capacities and
    /// the committed ledger (see [`ResidualGrid::rebase`]), and drops the
    /// cached paths if `network`'s link set or prices differ from the ones
    /// they were computed on. Call after the periodic re-optimization pass
    /// commits an LP schedule, after link degradations and reprices, and on
    /// resume from a snapshot.
    pub fn rebase(&mut self, network: &Network, ledger: &TrafficLedger) {
        self.grid.rebase(network, ledger);
        self.paths.sync(network);
    }

    /// The residual grid (read-only; tests and the runtime's metrics peek
    /// at it).
    pub fn grid(&self) -> &ResidualGrid {
        &self.grid
    }

    /// Admits `file` by ALAP allocation, or rejects it leaving the grid
    /// untouched.
    ///
    /// On success the returned [`TransferPlan`] fully serves the file (one
    /// hop per slot, holdovers at the source) and its transit volumes are
    /// already reserved in the grid — commit the plan to the ledger to keep
    /// the two views consistent.
    ///
    /// # Errors
    ///
    /// [`AlapRejection`] when the file cannot be placed; no reservation
    /// survives a rejection.
    pub fn admit(
        &mut self,
        network: &Network,
        file: &TransferRequest,
    ) -> Result<TransferPlan, AlapRejection> {
        self.reservations.clear();
        let placed = self.place(network, file);
        if placed.is_err() {
            self.rollback();
        }
        placed
    }

    /// Admits a whole batch all-or-nothing: either every file is placed
    /// (merged plan returned, reservations kept) or the grid is left
    /// exactly as before. A one-file batch is [`AlapScheduler::admit`].
    ///
    /// # Errors
    ///
    /// The first file's [`AlapRejection`] that made the batch fail.
    pub fn admit_batch(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
    ) -> Result<TransferPlan, AlapRejection> {
        if let [file] = files {
            return self.admit(network, file);
        }
        self.reservations.clear();
        let mut merged = TransferPlan::new();
        for file in files {
            match self.place(network, file) {
                Ok(plan) => merged.merge(&plan),
                Err(reject) => {
                    self.rollback();
                    return Err(reject);
                }
            }
        }
        Ok(merged)
    }

    /// Releases every reservation of the current call, oldest first.
    fn rollback(&mut self) {
        for r in self.reservations.drain(..) {
            self.grid.release(r.from, r.to, r.slot, r.volume);
        }
    }

    /// Places one file, appending every grid reservation to
    /// `self.reservations` (the caller rolls back on failure).
    fn place(
        &mut self,
        network: &Network,
        file: &TransferRequest,
    ) -> Result<TransferPlan, AlapRejection> {
        // A request naming a datacenter outside the topology must be an
        // instant rejection, not an out-of-bounds panic inside Dijkstra.
        if file.src.0 >= network.num_dcs() || file.dst.0 >= network.num_dcs() {
            return Err(AlapRejection::NoPath);
        }
        let paths = self.paths.get(network, file.src, file.dst, self.max_paths);
        if paths.is_empty() {
            return Err(AlapRejection::NoPath);
        }
        let (first, last) = (file.first_slot(), file.last_slot());
        let mut remaining = file.size_gb;
        self.chunks.clear();

        // Latest finish slot first; within a finish slot, cheapest path
        // first. A chunk on an `L`-hop path finishing at `finish` starts at
        // `finish − (L − 1)`, which must stay inside the release window.
        'fill: for finish in (first..=last).rev() {
            for (pi, path) in paths.iter().enumerate() {
                let hops = path.len() as u64;
                if finish < first + (hops - 1) {
                    continue; // path too long to finish here
                }
                let start = finish - (hops - 1);
                let volume = remaining.min(self.grid.bottleneck(path, start));
                if volume <= 0.0 {
                    continue;
                }
                for (h, &(u, v)) in path.hops.iter().enumerate() {
                    let slot = start + h as u64;
                    self.grid.reserve(u, v, slot, volume);
                    self.reservations.push(Reservation { from: u, to: v, slot, volume });
                }
                self.chunks.push((start, pi, volume));
                remaining -= volume;
                if remaining <= ALAP_TOL {
                    break 'fill;
                }
            }
        }
        if remaining > ALAP_TOL {
            return Err(AlapRejection::InsufficientResidual);
        }

        // Materialize the plan: transit entries one hop per slot, plus
        // holdovers at the source for volume that departs later.
        let mut plan = TransferPlan::new();
        for &(start, pi, volume) in &self.chunks {
            for (h, &(u, v)) in paths[pi].hops.iter().enumerate() {
                plan.add(file.id, start + h as u64, u, v, volume);
            }
        }
        for slot in first..=last {
            let waiting: f64 =
                self.chunks.iter().filter(|&&(start, _, _)| start > slot).map(|&(_, _, v)| v).sum();
            if waiting > 0.0 {
                plan.add(file.id, slot, file.src, file.src, waiting);
            }
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_net::{FileId, NetworkBuilder};

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    /// The Fig. 1 network: D2 →(10) D3 direct, D2 →(1) D1 →(3) D3 relay.
    fn fig1_net() -> Network {
        NetworkBuilder::new(3)
            .link(d(1), d(2), 10.0, 1000.0)
            .link(d(1), d(0), 1.0, 1000.0)
            .link(d(0), d(2), 3.0, 1000.0)
            .build()
    }

    #[test]
    fn admits_on_the_cheap_relay_and_plans_validly() {
        let net = fig1_net();
        let mut alap = AlapScheduler::new(&net);
        let f = TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0);
        let plan = alap.admit(&net, &f).unwrap();
        let v = plan.validate(&net, &[f], |_, _, _| 0.0);
        assert!(v.is_empty(), "violations: {v:?}");
        // The relay (price 4) beats the direct link (price 10): everything
        // rides D2→D1→D3.
        assert!(plan.link_peak(d(1), d(2)) <= 1e-12, "direct link unused");
        assert!(plan.link_peak(d(1), d(0)) > 0.0);
    }

    #[test]
    fn placement_is_as_late_as_possible() {
        let net = fig1_net();
        let mut alap = AlapScheduler::new(&net);
        let f = TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0);
        let plan = alap.admit(&net, &f).unwrap();
        // A 2-hop chunk finishing at the deadline (slot 2) starts at 1; no
        // transit should happen in slot 0 when capacity allows waiting.
        assert_eq!(plan.link_slot_total(d(1), d(0), 0), 0.0);
        assert!(plan.link_slot_total(d(1), d(0), 1) > 0.0);
        assert!(plan.holdover(FileId(1), d(1), 0) > 0.0, "waits at the source");
    }

    #[test]
    fn grid_reservation_matches_committed_plan() {
        let net = fig1_net();
        let mut alap = AlapScheduler::new(&net);
        let f = TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0);
        let plan = alap.admit(&net, &f).unwrap();
        let mut ledger = TrafficLedger::new(3);
        plan.apply_to_ledger(&mut ledger);
        for l in net.links() {
            for slot in 0..3 {
                let expect = (l.capacity - ledger.volume(l.from, l.to, slot)).max(0.0);
                let got = alap.grid().residual(l.from, l.to, slot);
                assert!(
                    (expect - got).abs() < 1e-9,
                    "residual mismatch on {:?}→{:?} slot {slot}: {expect} vs {got}",
                    l.from,
                    l.to
                );
            }
        }
    }

    #[test]
    fn rejects_oversized_file_and_leaves_grid_untouched() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let mut alap = AlapScheduler::new(&net);
        let before = alap.grid().clone();
        let f = TransferRequest::new(FileId(1), d(0), d(1), 10.0, 1, 0);
        assert_eq!(alap.admit(&net, &f).unwrap_err(), AlapRejection::InsufficientResidual);
        assert_eq!(*alap.grid(), before, "rejection must roll back");
        // After an admission, a rejection rolls back only its own trial
        // reservations: the admitted file's stay, bit for bit.
        let small = TransferRequest::new(FileId(2), d(0), d(1), 0.75, 2, 0);
        alap.admit(&net, &small).unwrap();
        let admitted = alap.grid().clone();
        let big = TransferRequest::new(FileId(3), d(0), d(1), 10.0, 3, 0);
        assert_eq!(alap.admit(&net, &big).unwrap_err(), AlapRejection::InsufficientResidual);
        assert_eq!(*alap.grid(), admitted, "the admitted file's reservations survive");
        for (g, a) in alap.grid().reserved.iter().zip(&admitted.reserved) {
            let bits = |v: &Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(a));
        }
    }

    #[test]
    fn one_file_batch_decides_as_a_single_admission() {
        let net = fig1_net();
        let files = [
            TransferRequest::new(FileId(1), d(1), d(2), 1500.0, 3, 0),
            TransferRequest::new(FileId(2), d(1), d(2), 6.0, 3, 0),
            TransferRequest::new(FileId(3), d(1), d(2), 2900.0, 3, 1),
            TransferRequest::new(FileId(4), d(1), d(0), 9.0, 2, 1),
            TransferRequest::new(FileId(5), d(0), d(1), 1.0, 2, 1),
        ];
        let (mut single, mut batch) = (AlapScheduler::new(&net), AlapScheduler::new(&net));
        for f in &files {
            let (want, got) = (single.admit(&net, f), batch.admit_batch(&net, &[*f]));
            assert_eq!(got, want, "file {:?}", f.id);
            assert_eq!(batch.grid, single.grid, "file {:?}", f.id);
        }
        // The sequence exercised both verdicts.
        let verdicts: Vec<bool> = {
            let mut alap = AlapScheduler::new(&net);
            files.iter().map(|f| alap.admit(&net, f).is_ok()).collect()
        };
        assert!(verdicts.contains(&true) && verdicts.contains(&false), "{verdicts:?}");
    }

    #[test]
    fn placement_buffers_take_no_part_in_equality() {
        let net = fig1_net();
        let mut used = AlapScheduler::new(&net);
        let f = TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0);
        used.admit(&net, &f).unwrap();
        used.rebase(&net, &TrafficLedger::new(3));
        assert!(!used.reservations.is_empty() && !used.chunks.is_empty());
        let mut fresh = AlapScheduler::new(&net);
        // Both hold the same grid and the same cached paths; only the
        // placement buffers differ.
        fresh.paths.get(&net, d(1), d(2), fresh.max_paths);
        assert_eq!(used, fresh);
        assert_eq!(used.clone(), fresh);
    }

    #[test]
    fn rejects_unreachable_destination() {
        let net = NetworkBuilder::new(3).link(d(0), d(1), 1.0, 10.0).build();
        let mut alap = AlapScheduler::new(&net);
        let f = TransferRequest::new(FileId(1), d(0), d(2), 1.0, 2, 0);
        assert_eq!(alap.admit(&net, &f).unwrap_err(), AlapRejection::NoPath);
    }

    #[test]
    fn rejects_out_of_range_datacenters_without_panicking() {
        let net = fig1_net();
        let mut alap = AlapScheduler::new(&net);
        let bad_src = TransferRequest::new(FileId(1), d(7), d(0), 1.0, 2, 0);
        assert_eq!(alap.admit(&net, &bad_src).unwrap_err(), AlapRejection::NoPath);
        let bad_dst = TransferRequest::new(FileId(2), d(0), d(9), 1.0, 2, 0);
        assert_eq!(alap.admit(&net, &bad_dst).unwrap_err(), AlapRejection::NoPath);
    }

    #[test]
    fn spreads_across_slots_when_one_is_not_enough() {
        // Capacity 2/slot, 6 GB over 3 slots: all three slots must carry.
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let mut alap = AlapScheduler::new(&net);
        let f = TransferRequest::new(FileId(1), d(0), d(1), 6.0, 3, 0);
        let plan = alap.admit(&net, &f).unwrap();
        assert!(plan.is_valid(&net, &[f], |_, _, _| 0.0));
        for slot in 0..3 {
            assert!((plan.link_slot_total(d(0), d(1), slot) - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn second_admission_sees_the_first_ones_reservations() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let mut alap = AlapScheduler::new(&net);
        let a = TransferRequest::new(FileId(1), d(0), d(1), 4.0, 2, 0);
        let b = TransferRequest::new(FileId(2), d(0), d(1), 1.0, 2, 0);
        assert!(alap.admit(&net, &a).is_ok(), "4 GB fills both slots");
        assert_eq!(alap.admit(&net, &b).unwrap_err(), AlapRejection::InsufficientResidual);
    }

    #[test]
    fn batch_admission_is_all_or_nothing() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let mut alap = AlapScheduler::new(&net);
        let before = alap.grid().clone();
        let a = TransferRequest::new(FileId(1), d(0), d(1), 3.0, 2, 0);
        let b = TransferRequest::new(FileId(2), d(0), d(1), 3.0, 2, 0);
        assert!(alap.admit_batch(&net, &[a, b]).is_err(), "6 GB > 4 GB window");
        assert_eq!(*alap.grid(), before);
        let ok = alap.admit_batch(&net, &[a]).unwrap();
        assert!(ok.is_valid(&net, &[a], |_, _, _| 0.0));
    }

    #[test]
    fn rebase_restores_capacity_freed_by_an_external_replan() {
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let mut alap = AlapScheduler::new(&net);
        let a = TransferRequest::new(FileId(1), d(0), d(1), 4.0, 2, 0);
        alap.admit(&net, &a).unwrap();
        // An external optimizer re-planned everything away: the ledger is
        // empty, so a rebase must free the grid again.
        alap.rebase(&net, &TrafficLedger::new(2));
        let b = TransferRequest::new(FileId(2), d(0), d(1), 4.0, 2, 0);
        assert!(alap.admit(&net, &b).is_ok());
    }

    #[test]
    fn rebase_picks_up_degraded_capacity() {
        let mut net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 10.0).build();
        let mut alap = AlapScheduler::new(&net);
        net.set_capacity(d(0), d(1), 1.0);
        alap.rebase(&net, &TrafficLedger::new(2));
        let f = TransferRequest::new(FileId(1), d(0), d(1), 5.0, 2, 0);
        assert_eq!(alap.admit(&net, &f).unwrap_err(), AlapRejection::InsufficientResidual);
    }

    #[test]
    fn deadline_one_slot_uses_only_the_direct_link() {
        let net = fig1_net();
        let mut alap = AlapScheduler::new(&net);
        let f = TransferRequest::new(FileId(1), d(1), d(2), 5.0, 1, 2);
        let plan = alap.admit(&net, &f).unwrap();
        assert!(plan.is_valid(&net, &[f], |_, _, _| 0.0));
        // Only the 1-hop path fits a 1-slot window.
        assert!((plan.link_slot_total(d(1), d(2), 2) - 5.0).abs() < 1e-9);
        assert_eq!(plan.link_slot_total(d(1), d(0), 2), 0.0);
    }

    #[test]
    fn release_slot_offsets_are_respected() {
        let net = fig1_net();
        let mut alap = AlapScheduler::new(&net);
        let f = TransferRequest::new(FileId(1), d(1), d(2), 6.0, 2, 5);
        let plan = alap.admit(&net, &f).unwrap();
        assert!(plan.is_valid(&net, &[f], |_, _, _| 0.0));
        for e in plan.iter() {
            assert!((5..=6).contains(&e.slot), "entry outside window: {e:?}");
        }
    }

    #[test]
    fn rebase_keeps_paths_until_a_price_changes() {
        let mut net = fig1_net();
        let mut alap = AlapScheduler::new(&net);
        let f = TransferRequest::new(FileId(1), d(1), d(2), 1.0, 3, 0);
        alap.admit(&net, &f).unwrap();
        let cached = alap.paths.clone();
        assert!(cached.table.iter().any(Option::is_some));
        // A ledger or capacity change keeps the cached paths.
        let mut ledger = TrafficLedger::new(3);
        ledger.record(d(1), d(2), 0, 1.0);
        net.set_capacity(d(0), d(2), 500.0);
        alap.rebase(&net, &ledger);
        assert_eq!(alap.paths, cached);
        // Making the relay dearer than the direct link drops them, and the
        // next admission rides the direct link.
        net.set_price(d(1), d(0), 20.0);
        alap.rebase(&net, &ledger);
        assert!(alap.paths.table.iter().all(Option::is_none));
        let g = TransferRequest::new(FileId(2), d(1), d(2), 1.0, 3, 0);
        let plan = alap.admit(&net, &g).unwrap();
        assert_eq!(plan.link_peak(d(1), d(0)), 0.0);
        assert!(plan.link_peak(d(1), d(2)) > 0.0);
    }

    #[test]
    fn residual_is_zero_off_the_grid() {
        let grid = ResidualGrid::from_network(&fig1_net());
        assert_eq!(grid.residual(d(1), d(2), 9), 1000.0);
        assert_eq!(grid.residual(d(0), d(1), 0), 0.0, "absent link");
        assert_eq!(grid.residual(d(0), d(7), 0), 0.0, "out of range");
        assert_eq!(grid.residual(d(7), d(0), 0), 0.0, "out of range");
        assert_eq!(ResidualGrid::default().residual(d(0), d(1), 0), 0.0);
    }
}
