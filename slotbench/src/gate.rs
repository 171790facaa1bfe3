//! The correctness gate: capacity, file conservation, the bill recomputed
//! from the ledger, and bit-identical outputs across replays.

use postcard_net::{ChargingScheme, Network, TrafficLedger};
use postcard_runtime::{Runtime, SlotOutcome};

/// Relative tolerance for float comparisons against capacities and bills.
const REL_TOL: f64 = 1e-9;

/// The deterministic outputs of replaying one instance to the end. Two
/// replays of the same inputs must produce equal values, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    /// Files in the trace.
    pub offered: u64,
    /// Files admitted.
    pub accepted: u64,
    /// Files refused by an admission verdict.
    pub rejected: u64,
    /// Files strict analysis dropped as unschedulable.
    pub lost_analysis: u64,
    /// Files lost after degraded slots exhausted their retries.
    pub lost_degraded: u64,
    /// Files whose deadline passed while they waited in the backlog.
    pub expired: u64,
    /// Files the bounded admission queue turned away.
    pub dropped: u64,
    /// Slots the whole fallback chain failed.
    pub degraded_slots: u64,
    /// Slots served.
    pub slots: u64,
    /// `TrafficLedger::total_bill` of the final ledger, as bits.
    pub bill_bits: u64,
    /// Billing windows the total bill spans (1 under max charging).
    pub windows: u64,
    /// Simplex pivots over every tier attempt.
    pub lp_pivots: u64,
    /// Dual-simplex pivots within `lp_pivots`.
    pub dual_pivots: u64,
    /// Files the ALAP rung admitted.
    pub alap_admits: u64,
    /// Files the ALAP rung rejected.
    pub alap_rejects: u64,
}

impl Outputs {
    /// The bill per billing window.
    pub fn bill_per_slot(&self) -> f64 {
        f64::from_bits(self.bill_bits) / self.windows as f64
    }

    /// Operations that failed outright: files lost without any verdict,
    /// plus degraded slots.
    pub fn failed(&self) -> u64 {
        self.lost_degraded + self.expired + self.dropped + self.degraded_slots
    }
}

/// Per-slot tallies a replay collects from the slot outcomes and the
/// fallback chain's attempt records.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotTally {
    slots: u64,
    degraded_slots: u64,
    lp_pivots: u64,
    dual_pivots: u64,
}

impl SlotTally {
    /// Folds in the slot `rt` just ran.
    pub fn add(&mut self, rt: &Runtime, outcome: &SlotOutcome) {
        self.slots += 1;
        self.degraded_slots += u64::from(outcome.degraded);
        for rec in rt.controller().scheduler().records() {
            self.lp_pivots += rec.lp_iterations as u64;
            self.dual_pivots += rec.dual_iterations as u64;
        }
    }
}

/// Reads the outputs of a finished replay.
pub fn outputs(rt: &Runtime, offered: u64, tally: &SlotTally) -> Outputs {
    let m = rt.metrics();
    let ledger = rt.controller().ledger();
    let scheme = rt.config().charging;
    Outputs {
        offered,
        accepted: m.counter("files_accepted"),
        rejected: m.counter("files_rejected"),
        lost_analysis: m.counter("files_lost_analysis"),
        lost_degraded: m.counter("files_lost_degraded"),
        expired: m.counter("backlog_expired"),
        dropped: m.counter("queue_dropped"),
        degraded_slots: tally.degraded_slots,
        slots: tally.slots,
        bill_bits: ledger.total_bill(rt.controller().network(), scheme).to_bits(),
        windows: billing_windows(ledger, scheme),
        lp_pivots: tally.lp_pivots,
        dual_pivots: tally.dual_pivots,
        alap_admits: m.counter("alap_admits"),
        alap_rejects: m.counter("alap_rejects"),
    }
}

fn billing_windows(ledger: &TrafficLedger, scheme: ChargingScheme) -> u64 {
    match scheme {
        ChargingScheme::MaxPerSlot => 1,
        ChargingScheme::Percentile { window_slots, .. } => {
            ledger.horizon().div_ceil(window_slots as u64).max(1)
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Checks, slot by slot, that new commitments never push a link above the
/// capacity in force when they were made, and that no past slot changes.
///
/// Capacity is judged at commit time because a maintenance outage stops
/// *new* traffic on a link; traffic committed before the outage began
/// stays booked (DESIGN §12).
#[derive(Debug, Default)]
pub struct CapacityWatch {
    before: Vec<Vec<f64>>,
    violations: Vec<String>,
}

impl CapacityWatch {
    /// Remembers every link's committed series before a slot runs.
    pub fn before_slot(&mut self, rt: &Runtime) {
        let ledger = rt.controller().ledger();
        self.before = rt
            .controller()
            .network()
            .links()
            .map(|l| ledger.series(l.from, l.to).to_vec())
            .collect();
    }

    /// Compares the series after slot `slot` ran with the remembered ones.
    pub fn after_slot(&mut self, rt: &Runtime, slot: u64) {
        let ledger = rt.controller().ledger();
        for (k, link) in rt.controller().network().links().enumerate() {
            let before = self.before.get(k).map_or(&[][..], Vec::as_slice);
            for (t, &now) in ledger.series(link.from, link.to).iter().enumerate() {
                let old = before.get(t).copied().unwrap_or(0.0);
                if (t as u64) < slot && now.to_bits() != old.to_bits() {
                    self.violations.push(format!(
                        "slot {slot}: past volume of {}->{} at slot {t} changed ({old} -> {now})",
                        link.from, link.to
                    ));
                } else if now > old && now > link.capacity && !close(now, link.capacity) {
                    self.violations.push(format!(
                        "slot {slot}: {}->{} carries {now} GB at slot {t}, capacity {}",
                        link.from, link.to, link.capacity
                    ));
                }
            }
        }
    }

    /// Every violation seen so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// The total bill recomputed straight from the ledger's per-slot series,
/// independently of `TrafficLedger::total_bill`: max charging takes each
/// link's peak; a percentile scheme charges every aligned, zero-padded
/// window at rank `⌈q/100·W⌉` of its sorted volumes.
pub fn recompute_total_bill(
    network: &Network,
    ledger: &TrafficLedger,
    scheme: ChargingScheme,
) -> f64 {
    network
        .links()
        .map(|l| {
            let series = ledger.series(l.from, l.to);
            let charged: f64 = match scheme {
                ChargingScheme::MaxPerSlot => series.iter().copied().fold(0.0, f64::max),
                ChargingScheme::Percentile { q, window_slots } => {
                    (0..billing_windows(ledger, scheme) as usize)
                        .map(|k| window_charge(series, k * window_slots, window_slots, q))
                        .sum()
                }
            };
            l.price * charged
        })
        .sum()
}

/// The bill of the current (last) billing window, recomputed from the
/// ledger — what the runtime reports as its running bill per slot.
pub fn recompute_current_bill(
    network: &Network,
    ledger: &TrafficLedger,
    scheme: ChargingScheme,
) -> f64 {
    match scheme {
        ChargingScheme::MaxPerSlot => recompute_total_bill(network, ledger, scheme),
        ChargingScheme::Percentile { q, window_slots } => {
            let last = billing_windows(ledger, scheme) as usize - 1;
            network
                .links()
                .map(|l| {
                    let series = ledger.series(l.from, l.to);
                    l.price * window_charge(series, last * window_slots, window_slots, q)
                })
                .sum()
        }
    }
}

fn window_charge(series: &[f64], start: usize, len: usize, q: f64) -> f64 {
    let mut window: Vec<f64> =
        (0..len).map(|j| series.get(start + j).copied().unwrap_or(0.0)).collect();
    window.sort_by(f64::total_cmp);
    let rank = ((q / 100.0 * len as f64).ceil() as usize).clamp(1, len);
    window[rank - 1]
}

/// Checks a finished replay: every offered file has exactly one fate, the
/// backlog is empty, and the bill recomputed from the ledger matches both
/// the ledger's own total and the runtime's running bill. Returns one
/// message per failed check.
pub fn check_finished(rt: &Runtime, out: &Outputs) -> Vec<String> {
    let mut errors = Vec::new();
    let fates = out.accepted
        + out.rejected
        + out.lost_analysis
        + out.lost_degraded
        + out.expired
        + out.dropped;
    if fates != out.offered {
        errors.push(format!("{} files offered but {fates} accounted for ({out:?})", out.offered));
    }
    let (acc, rej) = rt.controller().admission_counts();
    if (acc as u64, rej as u64) != (out.accepted, out.rejected) {
        errors.push(format!(
            "controller counts {acc} accepted / {rej} rejected, metrics {} / {}",
            out.accepted, out.rejected
        ));
    }
    let backlog = rt.snapshot().queue.len();
    if backlog > 0 {
        errors.push(format!("{backlog} files still queued after the last slot"));
    }
    if !rt.is_finished() {
        errors.push("replay stopped before the last slot".into());
    }
    let network = rt.controller().network();
    let ledger = rt.controller().ledger();
    let scheme = rt.config().charging;
    let total = f64::from_bits(out.bill_bits);
    let recomputed = recompute_total_bill(network, ledger, scheme);
    if !close(total, recomputed) {
        errors.push(format!("total bill {total} but {recomputed} recomputed from the ledger"));
    }
    let running = rt.final_cost_per_slot();
    let current = recompute_current_bill(network, ledger, scheme);
    if !close(running, current) {
        errors.push(format!("runtime bills {running} per slot but the ledger gives {current}"));
    }
    if rt.metrics().gauge("bill_per_slot").map(f64::to_bits) != Some(running.to_bits()) {
        errors.push("the bill_per_slot gauge disagrees with the controller".into());
    }
    if !(total.is_finite() && total > 0.0) {
        errors.push(format!("total bill {total} is not a positive number"));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use postcard_net::{DcId, NetworkBuilder};

    fn ledger_with(volumes: &[f64]) -> (Network, TrafficLedger) {
        let net = NetworkBuilder::new(2).link(DcId(0), DcId(1), 2.0, 100.0).build();
        let mut ledger = TrafficLedger::new(2);
        for (t, &v) in volumes.iter().enumerate() {
            ledger.record(DcId(0), DcId(1), t as u64, v);
        }
        (net, ledger)
    }

    #[test]
    fn recomputed_bills_match_the_ledger() {
        let volumes: Vec<f64> = (0..10).map(|t| f64::from(t * 7 % 11)).collect();
        let (net, ledger) = ledger_with(&volumes);
        for scheme in [
            ChargingScheme::MaxPerSlot,
            ChargingScheme::Percentile { q: 95.0, window_slots: 4 },
            ChargingScheme::Percentile { q: 50.0, window_slots: 3 },
        ] {
            let ours = recompute_total_bill(&net, &ledger, scheme);
            assert!(close(ours, ledger.total_bill(&net, scheme)), "{scheme:?}");
            let current = recompute_current_bill(&net, &ledger, scheme);
            assert!(close(current, ledger.cost_per_slot_scheme(&net, scheme)), "{scheme:?}");
        }
    }

    #[test]
    fn max_bill_is_price_times_peak() {
        let (net, ledger) = ledger_with(&[1.0, 9.0, 4.0]);
        assert_eq!(recompute_total_bill(&net, &ledger, ChargingScheme::MaxPerSlot), 18.0);
    }

    #[test]
    fn windows_cover_the_horizon() {
        let (_, ledger) = ledger_with(&[1.0; 10]);
        assert_eq!(billing_windows(&ledger, ChargingScheme::MaxPerSlot), 1);
        let p = ChargingScheme::Percentile { q: 95.0, window_slots: 4 };
        assert_eq!(billing_windows(&ledger, p), 3);
    }
}
