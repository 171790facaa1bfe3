//! The traffic ledger: per-slot, per-link volumes actually (or committedly)
//! sent, with charged-volume tracking.
//!
//! The paper's key accounting quantity is the *traffic volume to be charged*
//! on link `{i, j}` after transmitting files generated up to slot `t`:
//! `X_ij(t) = max(X_ij(t−1), max_n Σ_k M_ij^k(n))` under the 100-th
//! percentile scheme. The ledger tracks that running peak incrementally and
//! prices any [`ChargingScheme`]; every percentile bill goes through one
//! private helper that charges one link's aligned, zero-padded window.

use crate::charging::ChargingScheme;
use crate::topology::{DcId, Network};
use serde::{Deserialize, Serialize};

/// Records the volume (GB) sent on every directed link in every slot.
///
/// Slots may be written out of order (plans commit future slots); the ledger
/// grows automatically. Self-links (storage) are *not* recorded — stored
/// data never crosses an ISP boundary and is free (Sec. V).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficLedger {
    n: usize,
    /// Per directed link `(i·n + j)`: per-slot volumes.
    volumes: Vec<Vec<f64>>,
    /// Running maximum per link (the 100-th percentile charged volume).
    peak: Vec<f64>,
}

/// What one [`TrafficLedger::record_undoable`] write overwrote: enough for
/// [`TrafficLedger::undo`] to restore the cell, the series length and the
/// link's peak exactly, without copying the ledger.
#[derive(Debug, Clone, Copy)]
pub struct LedgerUndo {
    /// Dense link index `from · n + to`.
    link: usize,
    /// The slot written.
    slot: usize,
    /// The link's series length before the write.
    len_before: usize,
    /// The cell's value before the write (0 past the series' end).
    old_value: f64,
    /// The link's peak before the write.
    old_peak: f64,
}

impl TrafficLedger {
    /// Creates an empty ledger for `num_dcs` datacenters.
    ///
    /// # Panics
    ///
    /// Panics if `num_dcs == 0`.
    pub fn new(num_dcs: usize) -> Self {
        assert!(num_dcs > 0);
        Self {
            n: num_dcs,
            volumes: vec![Vec::new(); num_dcs * num_dcs],
            peak: vec![0.0; num_dcs * num_dcs],
        }
    }

    /// Number of datacenters the ledger covers.
    pub fn num_dcs(&self) -> usize {
        self.n
    }

    /// Adds `volume` GB to link `from → to` during `slot`.
    ///
    /// # Panics
    ///
    /// Panics on a self-link, an out-of-range id, or a negative/NaN volume.
    pub fn record(&mut self, from: DcId, to: DcId, slot: u64, volume: f64) {
        self.write(from, to, slot, volume, |_| {});
    }

    /// [`TrafficLedger::record`], appending to `log` what
    /// [`TrafficLedger::undo`] needs to take the write back exactly.
    ///
    /// # Panics
    ///
    /// As [`TrafficLedger::record`].
    pub fn record_undoable(
        &mut self,
        from: DcId,
        to: DcId,
        slot: u64,
        volume: f64,
        log: &mut Vec<LedgerUndo>,
    ) {
        self.write(from, to, slot, volume, |undo| log.push(undo));
    }

    /// Takes back every write in `log`, newest first, and empties it. The
    /// ledger is then exactly as it was before the oldest of them: same
    /// cells, bit for bit, same series lengths and same peaks. The writes
    /// must be the ledger's latest, with nothing recorded after them.
    pub fn undo(&mut self, log: &mut Vec<LedgerUndo>) {
        while let Some(u) = log.pop() {
            let series = &mut self.volumes[u.link];
            if u.len_before <= u.slot {
                series.truncate(u.len_before);
            } else {
                series[u.slot] = u.old_value;
            }
            self.peak[u.link] = u.old_peak;
        }
    }

    /// The one ledger write: adds `volume` to a cell after handing `log`
    /// what it overwrites. A zero volume changes nothing and logs nothing.
    fn write(
        &mut self,
        from: DcId,
        to: DcId,
        slot: u64,
        volume: f64,
        log: impl FnOnce(LedgerUndo),
    ) {
        assert!(from != to, "storage is not ledger traffic");
        assert!(from.0 < self.n && to.0 < self.n, "datacenter id out of range");
        assert!(volume >= 0.0 && volume.is_finite(), "volume must be finite and non-negative");
        // postcard-analyze: allow(PA101) — exact-zero records must not grow
        // the series (see the `zero_volume_records_are_noops` test).
        if volume == 0.0 {
            return;
        }
        let idx = from.0 * self.n + to.0;
        let series = &mut self.volumes[idx];
        let s = slot as usize;
        log(LedgerUndo {
            link: idx,
            slot: s,
            len_before: series.len(),
            old_value: series.get(s).copied().unwrap_or(0.0),
            old_peak: self.peak[idx],
        });
        if series.len() <= s {
            series.resize(s + 1, 0.0);
        }
        series[s] += volume;
        if series[s] > self.peak[idx] {
            self.peak[idx] = series[s];
        }
    }

    /// Volume sent on `from → to` during `slot`.
    pub fn volume(&self, from: DcId, to: DcId, slot: u64) -> f64 {
        self.volumes[from.0 * self.n + to.0].get(slot as usize).copied().unwrap_or(0.0)
    }

    /// The full recorded series of a link (may be shorter than the horizon).
    pub fn series(&self, from: DcId, to: DcId) -> &[f64] {
        &self.volumes[from.0 * self.n + to.0]
    }

    /// The running 100-th percentile charged volume `X_ij` of a link — the
    /// maximum per-slot volume recorded so far.
    pub fn peak(&self, from: DcId, to: DcId) -> f64 {
        self.peak[from.0 * self.n + to.0]
    }

    /// The *baseline* of the billing window containing `slot` on a link:
    /// the volume its charged rank currently sits at, with the window's
    /// not-yet-written slots padded as zeros (exactly how the window will be
    /// billed at rollover). Traffic added to slots at or below the baseline
    /// — or to already-free slots — cannot raise this window's charge.
    pub fn window_baseline(&self, from: DcId, to: DcId, scheme: ChargingScheme, slot: u64) -> f64 {
        match scheme {
            ChargingScheme::MaxPerSlot => self.peak(from, to),
            ChargingScheme::Percentile { .. } => {
                self.window_charge(from, to, scheme, scheme.window_start(slot), &mut Vec::new())
            }
        }
    }

    /// How many of the current window's *free* top-`(100−q)%` slots are
    /// still unspent on a link — the number of additional slots that can be
    /// pushed strictly above the baseline without moving the charged rank.
    ///
    /// Order-statistic argument: with `F = W − ⌈q/100·W⌉` free slots and `b`
    /// slots already strictly above the baseline, raising one more slot
    /// above the baseline leaves the charged rank unchanged as long as
    /// `b + 1 ≤ F` — the raised slots all land in the discarded suffix of
    /// the sorted window, and every other element keeps its rank or moves
    /// down. Always 0 under `MaxPerSlot` (no slot is free).
    pub fn burst_budget(&self, from: DcId, to: DcId, scheme: ChargingScheme, slot: u64) -> usize {
        let free = scheme.free_slots();
        if free == 0 {
            return 0;
        }
        let mut window = Vec::new();
        let baseline = self.window_charge(from, to, scheme, scheme.window_start(slot), &mut window);
        free.saturating_sub(window.iter().filter(|&&v| v > baseline).count())
    }

    /// The charge of one link's aligned billing window `[start, start + W)`
    /// under a `Percentile` scheme: the window's per-slot volumes,
    /// zero-padded to exactly `W` entries, at the scheme's charged rank.
    /// The only place a billing window is built; `window` is the reusable
    /// buffer it is built in, left holding the window's volumes in
    /// selection order.
    fn window_charge(
        &self,
        from: DcId,
        to: DcId,
        scheme: ChargingScheme,
        start: u64,
        window: &mut Vec<f64>,
    ) -> f64 {
        let series = self.series(from, to);
        let start = (start as usize).min(series.len());
        let end = start.saturating_add(scheme.window_slots()).min(series.len());
        window.clear();
        window.extend_from_slice(&series[start..end]);
        window.resize(scheme.window_slots(), 0.0);
        scheme.charge(window)
    }

    /// `Σ_links price · Σ_{k ∈ windows} charge(window k)` under a
    /// `Percentile` scheme, links in network order.
    fn bill_windows(
        &self,
        network: &Network,
        scheme: ChargingScheme,
        windows: std::ops::Range<u64>,
    ) -> f64 {
        let w = scheme.window_slots() as u64;
        let mut window = Vec::with_capacity(scheme.window_slots());
        network
            .links()
            .map(|l| {
                let charged: f64 = windows
                    .clone()
                    .map(|k| self.window_charge(l.from, l.to, scheme, k * w, &mut window))
                    .sum();
                l.price * charged
            })
            .sum()
    }

    /// One slot past the last recorded slot, across all links.
    pub fn horizon(&self) -> u64 {
        self.volumes.iter().map(|s| s.len() as u64).max().unwrap_or(0)
    }

    /// Total volume ever recorded on a link.
    pub fn total_volume(&self, from: DcId, to: DcId) -> f64 {
        self.series(from, to).iter().sum()
    }

    /// Residual capacity of `from → to` at `slot` given the network's base
    /// capacity (0 if the link does not exist; can be negative only if the
    /// ledger was over-committed, which validation prevents).
    pub fn residual(&self, network: &Network, from: DcId, to: DcId, slot: u64) -> f64 {
        match network.capacity(from, to) {
            Some(cap) => cap - self.volume(from, to, slot),
            None => 0.0,
        }
    }

    /// The provider's current bill per slot under the 100-th percentile
    /// scheme with linear prices: `Σ_ij a_ij · X_ij` (the paper's Eq. 6
    /// without the constant `· I` factor).
    pub fn cost_per_slot(&self, network: &Network) -> f64 {
        network.links().map(|l| l.price * self.peak(l.from, l.to)).sum()
    }

    /// The running bill per slot under a [`ChargingScheme`]: `MaxPerSlot` is
    /// the classic priced-peak sum, `Percentile` charges the *current*
    /// billing window of every link — the aligned window containing the
    /// ledger horizon's last slot — at its percentile rank. Earlier windows
    /// are closed books, billed by [`TrafficLedger::total_bill`].
    pub fn cost_per_slot_scheme(&self, network: &Network, scheme: ChargingScheme) -> f64 {
        match scheme {
            ChargingScheme::MaxPerSlot => self.cost_per_slot(network),
            ChargingScheme::Percentile { window_slots, .. } => {
                let current = self.horizon().saturating_sub(1) / window_slots as u64;
                self.bill_windows(network, scheme, current..current + 1)
            }
        }
    }

    /// The *total* bill of the recorded horizon under a scheme, in
    /// dollar-slots: `Σ_links Σ_windows price · charged(window)`.
    ///
    /// Under `MaxPerSlot` the whole horizon is one window charged at its
    /// peak (the quantity the paper's LP minimizes). Under `Percentile` the
    /// horizon splits into aligned `window_slots`-sized windows — including
    /// a final partial window padded with zeros to full length, matching how
    /// an ISP closes the books mid-cycle. Comparing two runs' ledgers with
    /// the *same* percentile scheme here is the apples-to-apples billing
    /// comparison the diurnal preset gates on.
    pub fn total_bill(&self, network: &Network, scheme: ChargingScheme) -> f64 {
        match scheme {
            ChargingScheme::MaxPerSlot => self.cost_per_slot(network),
            ChargingScheme::Percentile { .. } => {
                self.bill_windows(network, scheme, 0..self.billing_windows(scheme))
            }
        }
    }

    /// How many billing windows [`TrafficLedger::total_bill`] charges: the
    /// aligned windows covering the recorded horizon (at least one), and
    /// always one under `MaxPerSlot`. The total bill divided by this is
    /// the run's bill per billing window.
    pub fn billing_windows(&self, scheme: ChargingScheme) -> u64 {
        match scheme {
            ChargingScheme::MaxPerSlot => 1,
            ChargingScheme::Percentile { window_slots, .. } => {
                self.horizon().div_ceil(window_slots as u64).max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    #[test]
    fn record_and_read_back() {
        let mut l = TrafficLedger::new(3);
        l.record(d(0), d(1), 5, 10.0);
        l.record(d(0), d(1), 5, 2.5);
        assert_eq!(l.volume(d(0), d(1), 5), 12.5);
        assert_eq!(l.volume(d(0), d(1), 4), 0.0);
        assert_eq!(l.volume(d(1), d(0), 5), 0.0);
        assert_eq!(l.horizon(), 6);
    }

    #[test]
    fn peak_tracks_running_max() {
        let mut l = TrafficLedger::new(2);
        l.record(d(0), d(1), 0, 5.0);
        l.record(d(0), d(1), 3, 9.0);
        l.record(d(0), d(1), 7, 1.0);
        assert_eq!(l.peak(d(0), d(1)), 9.0);
        assert_eq!(l.peak(d(1), d(0)), 0.0);
    }

    #[test]
    fn cost_per_slot_sums_priced_peaks() {
        let net = Network::complete(2, 2.0, 100.0);
        let mut l = TrafficLedger::new(2);
        l.record(d(0), d(1), 0, 10.0);
        l.record(d(1), d(0), 1, 4.0);
        assert!((l.cost_per_slot(&net) - (2.0 * 10.0 + 2.0 * 4.0)).abs() < 1e-12);
    }

    /// The current-window charge of link 0→1 on a unit-price network
    /// (the reverse link carries nothing, so the bill is the charge).
    fn current_charge(l: &TrafficLedger, q: f64, window_slots: usize) -> f64 {
        let net = Network::complete(2, 1.0, 1e9);
        l.cost_per_slot_scheme(&net, ChargingScheme::Percentile { q, window_slots })
    }

    #[test]
    fn percentile_charging_pads_with_zeros() {
        let mut l = TrafficLedger::new(2);
        l.record(d(0), d(1), 0, 100.0);
        // Over a 20-slot period, p95 charges the 19th sorted slot = 0.
        assert_eq!(current_charge(&l, 95.0, 20), 0.0);
        // p100 still charges the spike.
        assert_eq!(current_charge(&l, 100.0, 20), 100.0);
    }

    #[test]
    fn residual_subtracts_usage() {
        let net = Network::complete(2, 1.0, 30.0);
        let mut l = TrafficLedger::new(2);
        l.record(d(0), d(1), 2, 12.0);
        assert_eq!(l.residual(&net, d(0), d(1), 2), 18.0);
        assert_eq!(l.residual(&net, d(0), d(1), 3), 30.0);
    }

    #[test]
    fn zero_volume_records_are_noops() {
        let mut l = TrafficLedger::new(2);
        l.record(d(0), d(1), 9, 0.0);
        assert_eq!(l.horizon(), 0);
    }

    #[test]
    #[should_panic(expected = "storage is not ledger traffic")]
    fn self_link_rejected() {
        TrafficLedger::new(2).record(d(1), d(1), 0, 1.0);
    }

    #[test]
    fn total_volume_sums_series() {
        let mut l = TrafficLedger::new(2);
        l.record(d(0), d(1), 0, 1.0);
        l.record(d(0), d(1), 5, 2.0);
        assert_eq!(l.total_volume(d(0), d(1)), 3.0);
    }

    #[test]
    fn current_window_charge_ignores_closed_windows() {
        // Regression: with a series spanning two 10-slot windows, the charge
        // must come from the *current* window only, never from the whole
        // history once the series outgrew the window.
        let mut l = TrafficLedger::new(2);
        // Window 0 (slots 0..10): a huge spike.
        l.record(d(0), d(1), 3, 1000.0);
        // Window 1 (slots 10..20): quiet traffic only.
        for s in 10..15 {
            l.record(d(0), d(1), s, 2.0);
        }
        // p100 over the current 10-slot window sees only the quiet traffic —
        // NOT the window-0 spike.
        assert_eq!(current_charge(&l, 100.0, 10), 2.0);
        // p95 over a 20-slot window: horizon is 15, so the current aligned
        // 20-slot window is [0, 20) and the spike is its single free slot.
        assert_eq!(current_charge(&l, 95.0, 20), 2.0);
    }

    #[test]
    fn current_window_charge_at_exact_window_boundary() {
        let mut l = TrafficLedger::new(2);
        // Exactly one full 10-slot window recorded: slot 9 is the last slot
        // of window 0, so the current window is still window 0.
        for s in 0..10 {
            l.record(d(0), d(1), s, (s + 1) as f64);
        }
        assert_eq!(current_charge(&l, 100.0, 10), 10.0);
        // One record into slot 10 rolls over to window 1: only slot 10 counts.
        l.record(d(0), d(1), 10, 3.0);
        assert_eq!(current_charge(&l, 100.0, 10), 3.0);
    }

    #[test]
    fn window_baseline_and_burst_budget() {
        let p95 = ChargingScheme::Percentile { q: 95.0, window_slots: 20 };
        let mut l = TrafficLedger::new(2);
        // Empty window: baseline 0, full free budget (1 free slot in 20).
        assert_eq!(l.window_baseline(d(0), d(1), p95, 0), 0.0);
        assert_eq!(l.burst_budget(d(0), d(1), p95, 0), 1);
        // Steady traffic raises the baseline; no slot is above it yet.
        for s in 0..5 {
            l.record(d(0), d(1), s, 4.0);
        }
        assert_eq!(l.window_baseline(d(0), d(1), p95, 4), 4.0);
        assert_eq!(l.burst_budget(d(0), d(1), p95, 4), 1);
        // One burst above the baseline spends the only free slot.
        l.record(d(0), d(1), 5, 50.0);
        assert_eq!(l.window_baseline(d(0), d(1), p95, 5), 4.0);
        assert_eq!(l.burst_budget(d(0), d(1), p95, 5), 0);
        // The next window starts with a fresh budget.
        assert_eq!(l.burst_budget(d(0), d(1), p95, 20), 1);
        // MaxPerSlot never has free slots.
        assert_eq!(l.burst_budget(d(0), d(1), ChargingScheme::MaxPerSlot, 5), 0);
    }

    #[test]
    fn total_bill_sums_windows() {
        let net = Network::complete(2, 1.0, 1000.0);
        let p100 = ChargingScheme::Percentile { q: 100.0, window_slots: 10 };
        let mut l = TrafficLedger::new(2);
        l.record(d(0), d(1), 0, 7.0); // window 0 peak
        l.record(d(0), d(1), 13, 5.0); // window 1 peak (partial window)
        assert!((l.total_bill(&net, p100) - 12.0).abs() < 1e-12);
        // MaxPerSlot charges the single whole-horizon peak.
        assert!((l.total_bill(&net, ChargingScheme::MaxPerSlot) - 7.0).abs() < 1e-12);
        // q=100 with the window covering the whole horizon equals the peak
        // bill exactly.
        let wide = ChargingScheme::Percentile { q: 100.0, window_slots: 64 };
        assert_eq!(
            l.total_bill(&net, wide).to_bits(),
            l.total_bill(&net, ChargingScheme::MaxPerSlot).to_bits()
        );
        // Empty ledger bills zero either way.
        let empty = TrafficLedger::new(2);
        assert_eq!(empty.total_bill(&net, p100), 0.0);
        assert_eq!(empty.total_bill(&net, ChargingScheme::MaxPerSlot), 0.0);
        let one_slot = ChargingScheme::Percentile { q: 95.0, window_slots: 1 };
        assert_eq!(empty.cost_per_slot_scheme(&net, one_slot), 0.0);
    }

    #[test]
    fn serde_round_trip_is_exact() {
        let mut l = TrafficLedger::new(3);
        l.record(d(0), d(1), 0, 0.1 + 0.2); // a value with no short decimal form
        l.record(d(1), d(2), 7, 123.456_789_012_345);
        l.record(d(2), d(0), 3, 1.0 / 3.0);
        let back: TrafficLedger = serde::json::from_str(&serde::json::to_string(&l)).unwrap();
        assert_eq!(back, l);
        assert_eq!(back.peak(d(1), d(2)).to_bits(), l.peak(d(1), d(2)).to_bits());
    }
}
