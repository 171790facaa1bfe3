//! Multi-day diurnal presets for billing-window experiments.
//!
//! The figure scenarios ([`crate::Scenario`]) compare *approaches* under the
//! paper's running-peak bill. This module compares *charging schemes*: the
//! same multi-day workload is served twice — once by a max-charging
//! controller, once by a percentile-aware one (the headroom rung prepended
//! by [`postcard_runtime::Runtime`] under a `Percentile` config) — and both
//! ledgers are priced under the **same** 95th-percentile tariff with
//! [`postcard_net::TrafficLedger::total_bill`]. The p95-aware run crams each
//! day's burst into the billing window's free top-5% slots, so its charged
//! percentile stays at the valley level while the max-charging run's burst
//! spread raises it; the bill gap is the whole point of percentile-aware
//! scheduling (`p95_aware_run_pays_strictly_less_than_max_charging` pins it).
//!
//! The preset is deliberately diurnal: a flat valley of small transfers all
//! day, one large burst **late in each billing window** (once enough of the
//! window is populated for the percentile baseline to be positive — bursts
//! at the start of a window meet a zero baseline and the headroom rung
//! rightly declines them), a mid-cycle price change, and a maintenance
//! window on the reverse link.

use postcard_net::{ChargingScheme, DcId, FileId, Network, NetworkBuilder, Trace, TransferRequest};
use postcard_runtime::{FaultPlan, Runtime, RuntimeConfig, RuntimeError};

/// A deterministic multi-day valley-plus-burst workload over one link.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalPreset {
    /// Number of simulated days (= billing windows).
    pub days: u64,
    /// Slots per day; also the billing-window length.
    pub slots_per_day: u64,
    /// Link capacity in GB per slot.
    pub capacity_gb: f64,
    /// Initial price per GB of charged volume on the forward link.
    pub price: f64,
    /// Files per daily burst.
    pub burst_files: usize,
    /// Size of each burst file in GB.
    pub burst_size_gb: f64,
    /// Burst release slot within the day. Placed late in the window so the
    /// percentile baseline is positive by the time the burst lands.
    pub burst_release_in_day: u64,
    /// Burst deadline in slots.
    pub burst_deadline: usize,
    /// Mean size of the per-slot valley file in GB. The seed jitters it
    /// per *day*, not per slot: a flat valley within each billing window
    /// keeps every valley slot exactly at the percentile baseline, so the
    /// window's free slots stay available for the burst (per-slot noise
    /// would hand the free slots to the noise peaks instead — a legitimate
    /// decline, but not this preset's story).
    pub valley_size_gb: f64,
    /// Slot of the mid-cycle tariff change (`None` disables it).
    pub reprice_at: Option<u64>,
    /// The new price the mid-cycle change applies.
    pub reprice_to: f64,
    /// The charged percentile (e.g. 95.0).
    pub percentile: f64,
}

impl DiurnalPreset {
    /// The default acceptance preset: three 48-slot days, a 100 GB/slot
    /// link, a 2 GB valley every slot, a daily 8 × 20 GB burst at slot 44
    /// of each day (deadline 4, so it ends exactly at the window boundary),
    /// and a tariff rise in the middle of day two.
    pub fn three_day() -> Self {
        Self {
            days: 3,
            slots_per_day: 48,
            capacity_gb: 100.0,
            price: 1.0,
            burst_files: 8,
            burst_size_gb: 20.0,
            burst_release_in_day: 44,
            burst_deadline: 4,
            valley_size_gb: 2.0,
            reprice_at: Some(72),
            reprice_to: 2.5,
            percentile: 95.0,
        }
    }

    /// Total run length in slots.
    pub fn num_slots(&self) -> u64 {
        self.days * self.slots_per_day
    }

    /// The percentile tariff both runs are billed under.
    pub fn scheme(&self) -> ChargingScheme {
        ChargingScheme::Percentile { q: self.percentile, window_slots: self.slots_per_day as usize }
    }

    /// Two datacenters, one forward link carrying the workload and a
    /// reverse link the maintenance window exercises.
    pub fn network(&self) -> Network {
        NetworkBuilder::new(2)
            .link(DcId(0), DcId(1), self.price, self.capacity_gb)
            .link(DcId(1), DcId(0), self.price, self.capacity_gb)
            .build()
    }

    /// The deterministic arrival schedule for `seed` — the valley sizes are
    /// jittered per day, everything else is fixed by the preset.
    pub fn arrivals(&self, seed: u64) -> Trace {
        let mut requests = Vec::new();
        let mut next_id = 0u64;
        let id = |n: &mut u64| {
            *n += 1;
            FileId(*n)
        };
        let slots = self.num_slots();
        for slot in 0..slots {
            // The valley: one small file per slot, due within its slot, so
            // every slot's committed volume is exactly the valley size and
            // the percentile baseline is flat across the window.
            let day = slot / self.slots_per_day;
            let size = self.valley_size_gb * (0.75 + 0.5 * jitter(seed, day));
            requests.push(TransferRequest::new(id(&mut next_id), DcId(0), DcId(1), size, 1, slot));
        }
        for day in 0..self.days {
            let release = day * self.slots_per_day + self.burst_release_in_day;
            for _ in 0..self.burst_files {
                requests.push(TransferRequest::new(
                    id(&mut next_id),
                    DcId(0),
                    DcId(1),
                    self.burst_size_gb,
                    self.burst_deadline,
                    release,
                ));
            }
        }
        Trace::from_requests(requests)
    }

    /// The fault plan: the mid-cycle tariff change on the forward link and
    /// a half-day maintenance outage on the (idle) reverse link during the
    /// last day.
    pub fn faults(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        if let Some(slot) = self.reprice_at {
            plan = plan.reprice(slot, DcId(0), DcId(1), self.reprice_to);
        }
        if self.days >= 2 {
            let start = (self.days - 1) * self.slots_per_day;
            plan = plan.maintain(start, start + self.slots_per_day / 2, DcId(1), DcId(0));
        }
        plan
    }
}

/// A deterministic per-slot jitter in `[0, 1)` (split-mix style; no RNG
/// dependency, so the trace is a pure function of the seed).
fn jitter(seed: u64, slot: u64) -> f64 {
    let mut z = seed ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // postcard-analyze: allow(PA205) — deliberate truncation to the low 53
    // bits for a uniform float in [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Both runs' bills under the preset's percentile tariff.
#[derive(Debug, Clone, PartialEq)]
pub struct BillingComparison {
    /// The tariff both ledgers were priced under.
    pub scheme: ChargingScheme,
    /// Total bill of the max-charging controller's ledger.
    pub max_bill: f64,
    /// Total bill of the percentile-aware controller's ledger.
    pub p95_bill: f64,
    /// Files accepted / rejected by the max-charging run.
    pub max_admissions: (usize, usize),
    /// Files accepted / rejected by the percentile-aware run.
    pub p95_admissions: (usize, usize),
    /// Times the headroom rung declined (no burst budget) and handed the
    /// batch to the LP tiers.
    pub headroom_declined: u64,
}

impl BillingComparison {
    /// `max_bill / p95_bill` (∞ when the p95 bill is zero and the max bill
    /// is not).
    pub fn reduction_factor(&self) -> f64 {
        self.max_bill / self.p95_bill
    }

    /// A small text figure, same spirit as [`crate::report::render_table`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "billing comparison under {} (both ledgers priced identically)\n",
            self.scheme.spec()
        ));
        out.push_str(&format!(
            "  {:<22} {:>12} {:>10} {:>10}\n",
            "controller", "bill", "accepted", "rejected"
        ));
        out.push_str(&format!(
            "  {:<22} {:>12.2} {:>10} {:>10}\n",
            "max-charging", self.max_bill, self.max_admissions.0, self.max_admissions.1
        ));
        out.push_str(&format!(
            "  {:<22} {:>12.2} {:>10} {:>10}\n",
            "p95-aware (headroom)", self.p95_bill, self.p95_admissions.0, self.p95_admissions.1
        ));
        out.push_str(&format!(
            "  verdict: p95-aware pays {:.1}x less ({} headroom decline(s))\n",
            self.reduction_factor(),
            self.headroom_declined
        ));
        out
    }
}

/// Serves the preset twice — max-charging vs percentile-aware — and prices
/// **both** resulting ledgers under the preset's percentile tariff.
///
/// The max-charging run is the paper's controller verbatim (its scheduler
/// minimizes the running peak and never sees the percentile); the
/// percentile-aware run gets the headroom rung. Pricing both final ledgers
/// with the same [`postcard_net::TrafficLedger::total_bill`] call makes the
/// comparison an apples-to-apples tariff evaluation, not two different
/// objectives.
///
/// # Errors
///
/// Propagates [`RuntimeError`]s from either run.
pub fn compare_billing(
    preset: &DiurnalPreset,
    seed: u64,
) -> Result<BillingComparison, RuntimeError> {
    let scheme = preset.scheme();
    let serve = |charging: ChargingScheme| -> Result<(f64, (usize, usize), u64), RuntimeError> {
        let config = RuntimeConfig { charging, ..Default::default() };
        let mut rt = Runtime::new(
            preset.network(),
            preset.arrivals(seed),
            preset.faults(),
            preset.num_slots(),
            config,
        )?;
        rt.run_to_end()?;
        let ctl = rt.controller();
        let bill = ctl.ledger().total_bill(ctl.network(), scheme);
        Ok((bill, ctl.admission_counts(), rt.metrics().counter("headroom_declined")))
    };
    let (max_bill, max_admissions, _) = serve(ChargingScheme::MaxPerSlot)?;
    let (p95_bill, p95_admissions, headroom_declined) = serve(scheme)?;
    Ok(BillingComparison {
        scheme,
        max_bill,
        p95_bill,
        max_admissions,
        p95_admissions,
        headroom_declined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_shape_is_three_days_with_mid_cycle_reprice() {
        let p = DiurnalPreset::three_day();
        assert_eq!(p.num_slots(), 144);
        assert_eq!(p.scheme().window_slots(), 48);
        assert_eq!(p.scheme().free_slots(), 2, "p95 over 48 slots frees 2");
        // The reprice lands strictly inside the run, not on a window edge.
        let at = p.reprice_at.unwrap();
        assert!(at > 0 && at < p.num_slots() && !at.is_multiple_of(p.slots_per_day));
        let faults = p.faults();
        assert_eq!(faults.price_changes.len(), 1);
        assert_eq!(faults.maintenance.len(), 1);
    }

    #[test]
    fn arrivals_are_a_pure_function_of_the_seed() {
        let p = DiurnalPreset::three_day();
        assert_eq!(p.arrivals(7), p.arrivals(7));
        assert_ne!(p.arrivals(7), p.arrivals(8), "seed must matter");
        // Every burst stays inside its own billing window.
        let arrivals = p.arrivals(7);
        for r in arrivals.requests() {
            let window = (r.release_slot / p.slots_per_day) * p.slots_per_day;
            assert!(r.last_slot() < window + p.slots_per_day, "{:?}", r);
        }
    }

    #[test]
    fn p95_aware_run_pays_strictly_less_than_max_charging() {
        // The acceptance gate: same workload, same tariff, and the
        // percentile-aware controller's bill is strictly lower because the
        // daily burst rides in each window's two free slots.
        let cmp = compare_billing(&DiurnalPreset::three_day(), 1).unwrap();
        assert!(
            cmp.p95_bill < cmp.max_bill,
            "p95-aware bill {} must beat max-charging bill {}",
            cmp.p95_bill,
            cmp.max_bill
        );
        // Neither controller gives up admissions to get there.
        assert_eq!(cmp.p95_admissions, cmp.max_admissions);
        assert_eq!(cmp.max_admissions, (168, 0), "nothing is rejected at this scale");
        // The whole pipeline is seeded, so the bills and counts are pinned.
        for (what, got, want) in [
            ("max bill", cmp.max_bill, 323.217_669_187_632_85),
            ("p95 bill", cmp.p95_bill, 32.389_456_394_089_38),
        ] {
            let rel = (got - want).abs() / want;
            assert!(rel <= 1e-9, "{what} {got} drifted from {want} (rel {rel:.3e})");
        }
        assert_eq!(cmp.headroom_declined, 12);
        let again = compare_billing(&DiurnalPreset::three_day(), 1).unwrap();
        assert_eq!(again.max_bill.to_bits(), cmp.max_bill.to_bits());
        assert_eq!(again.p95_bill.to_bits(), cmp.p95_bill.to_bits());
        assert_eq!(again.max_admissions, cmp.max_admissions);
        assert_eq!(again.p95_admissions, cmp.p95_admissions);
        assert_eq!(again.headroom_declined, cmp.headroom_declined);
        let figure = cmp.render();
        assert!(figure.contains("p95-aware"), "{figure}");
        assert!(figure.contains("pays"), "{figure}");
    }
}
