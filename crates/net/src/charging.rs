//! How a link's per-slot traffic turns into a bill.
//!
//! ISPs charge inter-datacenter traffic with the *q-th percentile* scheme
//! (paper Sec. II-A): the per-slot traffic volumes of a charging period are
//! sorted ascending and the volume at the q-th percentile position becomes
//! the *charging volume* `x`, priced through a cost function `c(x)`. Here
//! `c(x) = a_ij · x` with the link's unit price `a_ij`, as in the paper's
//! formulation and evaluation, which also use `q = 100` (the maximum).
//! [`ChargingScheme`] is the one type that says which volume is charged;
//! [`crate::TrafficLedger`] applies it to recorded traffic.

use serde::{Deserialize, Serialize};

/// How a link's traffic series turns into billed volume.
///
/// `MaxPerSlot` is the paper formulation's objective (`X_ij ≥ x_ij(t)` for
/// every slot — equivalently the 100th percentile over the whole horizon)
/// and what the repo has always charged. `Percentile` is real transit
/// billing (Sec. II-A): the horizon splits into aligned windows
/// `[k·W, (k+1)·W)` of `window_slots` slots each, and every window is
/// charged independently at the q-th percentile of its per-slot volumes —
/// the top `(100−q)%` of each window's slots are *free*.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChargingScheme {
    /// Charge the running per-slot maximum over the whole horizon.
    MaxPerSlot,
    /// q-th percentile charging over aligned billing windows.
    Percentile {
        /// The percentile `q ∈ (0, 100]`.
        q: f64,
        /// Billing window length in slots, ≥ 1.
        window_slots: usize,
    },
}

impl ChargingScheme {
    /// Parses a CLI spec: `max`, or `p<q>:<window>` (e.g. `p95:288` for the
    /// 95-th percentile over 288-slot windows).
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec == "max" {
            return Ok(ChargingScheme::MaxPerSlot);
        }
        let bad = || format!("bad charging spec `{spec}` (want `max` or `p<q>:<window>`)");
        let (q_str, w_str) =
            spec.strip_prefix('p').and_then(|b| b.split_once(':')).ok_or_else(bad)?;
        let q: f64 = q_str.parse().map_err(|_| format!("bad percentile in `{spec}`"))?;
        let window_slots: usize =
            w_str.parse().map_err(|_| format!("bad window length in `{spec}`"))?;
        let scheme = ChargingScheme::Percentile { q, window_slots };
        scheme.validate().map_err(|e| format!("{e} in `{spec}`"))?;
        Ok(scheme)
    }

    /// Checks the variant's invariants: `q ∈ (0, 100]` and
    /// `window_slots ≥ 1`. Schemes also arrive from checkpoint files, so
    /// every entry point that accepts one calls this before billing with it.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ChargingScheme::MaxPerSlot => Ok(()),
            ChargingScheme::Percentile { q, .. } if !(q > 0.0 && q <= 100.0) => {
                Err(format!("percentile {q} must be in (0, 100]"))
            }
            ChargingScheme::Percentile { window_slots: 0, .. } => {
                Err("window length must be ≥ 1".to_string())
            }
            ChargingScheme::Percentile { .. } => Ok(()),
        }
    }

    /// The canonical spec string `parse` round-trips.
    pub fn spec(&self) -> String {
        match self {
            ChargingScheme::MaxPerSlot => "max".to_string(),
            ChargingScheme::Percentile { q, window_slots } => format!("p{q}:{window_slots}"),
        }
    }

    /// The 1-based sorted rank `⌈q/100 · num_slots⌉` charged in a window of
    /// `num_slots` slots (0 for an empty window); `MaxPerSlot` charges rank
    /// `num_slots`, the maximum.
    ///
    /// For the paper's example — 95-th percentile over a year of 5-minute
    /// slots — this is slot 99864:
    ///
    /// ```
    /// use postcard_net::ChargingScheme;
    /// let slots = 365 * 24 * 60 / 5;
    /// let p95 = ChargingScheme::Percentile { q: 95.0, window_slots: slots };
    /// assert_eq!(p95.charged_rank(slots), 99864);
    /// ```
    pub fn charged_rank(&self, num_slots: usize) -> usize {
        let q = match self {
            ChargingScheme::MaxPerSlot => 100.0,
            ChargingScheme::Percentile { q, .. } => *q,
        };
        if num_slots == 0 {
            return 0;
        }
        // postcard-analyze: allow(PA205) — rank lives in (0, num_slots]:
        // a validated q ∈ (0, 100] keeps the product in (0, num_slots], ceil
        // of a positive value is ≥ 1, and the clamp re-establishes the bound
        // even for pathological float rounding. The cast picks a rank, not
        // money.
        (((q / 100.0) * num_slots as f64).ceil() as usize).clamp(1, num_slots)
    }

    /// The charged volume of one window of per-slot volumes: the entry at
    /// [`ChargingScheme::charged_rank`] of the window in ascending
    /// `total_cmp` order, 0 for an empty window. Selects in place — O(W)
    /// instead of a full sort, and the same element a sort would place at
    /// that index — so `window` comes back reordered.
    pub(crate) fn charge(&self, window: &mut [f64]) -> f64 {
        match self.charged_rank(window.len()) {
            0 => 0.0,
            rank => *window.select_nth_unstable_by(rank - 1, f64::total_cmp).1,
        }
    }

    /// Billing window length in slots; `MaxPerSlot` has a single unbounded
    /// window, reported as `usize::MAX`.
    pub fn window_slots(&self) -> usize {
        match self {
            ChargingScheme::MaxPerSlot => usize::MAX,
            ChargingScheme::Percentile { window_slots, .. } => *window_slots,
        }
    }

    /// First slot of the aligned billing window containing `slot`.
    pub fn window_start(&self, slot: u64) -> u64 {
        match self {
            ChargingScheme::MaxPerSlot => 0,
            ChargingScheme::Percentile { window_slots, .. } => {
                let w = *window_slots as u64;
                (slot / w) * w
            }
        }
    }

    /// Number of *free* slots per billing window — slots whose volume the
    /// percentile rank discards. Zero for `MaxPerSlot` (and for q=100).
    pub fn free_slots(&self) -> usize {
        match self {
            ChargingScheme::MaxPerSlot => 0,
            ChargingScheme::Percentile { window_slots, .. } => {
                window_slots - self.charged_rank(*window_slots)
            }
        }
    }
}

impl std::fmt::Display for ChargingScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pct(q: f64) -> ChargingScheme {
        ChargingScheme::Percentile { q, window_slots: 20 }
    }

    #[test]
    fn max_percentile_charges_maximum() {
        for s in [ChargingScheme::MaxPerSlot, pct(100.0)] {
            assert_eq!(s.charge(&mut [3.0, 9.0, 1.0]), 9.0);
            assert_eq!(s.charge(&mut []), 0.0);
        }
    }

    #[test]
    fn p95_discards_top_slots() {
        // 20 slots, one huge spike: p95 charges the 19th sorted slot.
        let mut v = vec![1.0; 19];
        v.push(1000.0);
        assert_eq!(pct(95.0).charge(&mut v), 1.0);
        // Two spikes in 20 slots: the 19th sorted value is the smaller spike.
        let mut v = vec![1.0; 18];
        v.push(500.0);
        v.push(1000.0);
        assert_eq!(pct(95.0).charge(&mut v), 500.0);
    }

    #[test]
    fn paper_example_rank() {
        // 95% × 365 × 24 × 60 / 5 = 99864 (paper Sec. II-A).
        assert_eq!(pct(95.0).charged_rank(105120), 99864);
        assert_eq!(pct(95.0).charged_rank(0), 0);
        assert_eq!(ChargingScheme::MaxPerSlot.charged_rank(7), 7);
    }

    #[test]
    fn median_percentile() {
        assert_eq!(pct(50.0).charge(&mut [1.0, 2.0, 3.0, 4.0]), 2.0);
        assert_eq!(pct(50.0).charge(&mut [5.0]), 5.0);
    }

    #[test]
    fn charging_scheme_parse_round_trip() {
        assert_eq!(ChargingScheme::parse("max").unwrap(), ChargingScheme::MaxPerSlot);
        let p = ChargingScheme::parse("p95:288").unwrap();
        assert_eq!(p, ChargingScheme::Percentile { q: 95.0, window_slots: 288 });
        assert_eq!(p.spec(), "p95:288");
        assert_eq!(ChargingScheme::parse(&p.spec()).unwrap(), p);
        assert_eq!(ChargingScheme::MaxPerSlot.spec(), "max");
    }

    #[test]
    fn charging_scheme_rejects_bad_specs() {
        for bad in [
            "", "p95", "p0:10", "p-5:10", "p101:10", "pNaN:10", "p95:0", "p95:x", "px:10", "q95:10",
        ] {
            assert!(ChargingScheme::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn charging_scheme_windows_and_free_slots() {
        let p = ChargingScheme::Percentile { q: 95.0, window_slots: 48 };
        // ⌈0.95 · 48⌉ = 46, so 2 of every 48 slots are free.
        assert_eq!(p.free_slots(), 2);
        assert_eq!(p.window_start(0), 0);
        assert_eq!(p.window_start(47), 0);
        assert_eq!(p.window_start(48), 48);
        assert_eq!(p.window_start(143), 96);
        let max = ChargingScheme::MaxPerSlot;
        assert_eq!(max.free_slots(), 0);
        assert_eq!(max.window_start(1_000_000), 0);
        // q=100 percentile billing has no free slots either.
        let p100 = ChargingScheme::Percentile { q: 100.0, window_slots: 10 };
        assert_eq!(p100.free_slots(), 0);
    }
}
