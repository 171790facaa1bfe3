//! Property-based tests for the network substrate: charging schemes,
//! ledger accounting, time expansion, (metamorphic) plan validation, and
//! arrival traces.

use postcard_net::{
    Arc, ArcKind, ChargingScheme, DcId, FileId, Network, TimeExpandedGraph, Trace, TrafficLedger,
    TransferPlan, TransferRequest, Workload,
};
use proptest::prelude::*;

fn volumes() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1000.0, 1..40)
}

/// The charge of `vols` as one whole billing window: the volumes are
/// recorded into slots `0..len` of link 0→1 and the window's baseline read
/// back, so the window holds exactly `vols`.
fn window_charge(vols: &[f64], q: f64) -> f64 {
    let mut ledger = TrafficLedger::new(2);
    for (slot, &v) in vols.iter().enumerate() {
        ledger.record(DcId(0), DcId(1), slot as u64, v);
    }
    let scheme = ChargingScheme::Percentile { q, window_slots: vols.len() };
    ledger.window_baseline(DcId(0), DcId(1), scheme, 0)
}

/// The current-window charge of link 0→1: the scheme's running bill on a
/// unit-price network whose reverse link carries nothing.
fn current_charge(ledger: &TrafficLedger, q: f64, window_slots: usize) -> f64 {
    let net = Network::complete(2, 1.0, 1e9);
    ledger.cost_per_slot_scheme(&net, ChargingScheme::Percentile { q, window_slots })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The charged volume is always one of the observed volumes, the 100-th
    /// percentile is the max, and charging is monotone in q.
    #[test]
    fn percentile_charging_properties(vols in volumes(), q1 in 1.0f64..100.0, q2 in 1.0f64..100.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = window_charge(&vols, lo);
        let b = window_charge(&vols, hi);
        prop_assert!(a <= b + 1e-12, "charging must be monotone in q: {a} vs {b}");
        prop_assert!(vols.iter().any(|&v| (v - a).abs() < 1e-12));
        let max = window_charge(&vols, 100.0);
        let true_max = vols.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!((max - true_max).abs() < 1e-12);
    }

    /// Ledger peaks equal the max of the recorded series, and the bill is
    /// the price-weighted sum of peaks.
    #[test]
    fn ledger_peak_is_series_max(
        records in prop::collection::vec((0usize..3, 0u64..20, 0.1f64..50.0), 1..60),
    ) {
        let net = Network::complete(3, 2.0, 1e9);
        let mut ledger = TrafficLedger::new(3);
        for &(pair, slot, vol) in &records {
            let (i, j) = [(0, 1), (1, 2), (2, 0)][pair];
            ledger.record(DcId(i), DcId(j), slot, vol);
        }
        let mut expected_bill = 0.0;
        for l in net.links() {
            let series = ledger.series(l.from, l.to);
            let max = series.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!((ledger.peak(l.from, l.to) - max).abs() < 1e-9);
            expected_bill += 2.0 * max;
        }
        prop_assert!((ledger.cost_per_slot(&net) - expected_bill).abs() < 1e-9);
    }

    /// Undoing logged writes restores the ledger exactly: same cells bit
    /// for bit, same series lengths, same peaks. The logged writes reach
    /// past the series' ends, raise peaks, and include zero volumes.
    #[test]
    fn undo_restores_the_ledger_exactly(
        base in prop::collection::vec((0usize..6, 0u64..20, 0.1f64..50.0), 0..40),
        logged in prop::collection::vec((0usize..6, 0u64..30, 0.0f64..80.0, 0usize..6), 1..40),
    ) {
        const PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)];
        let mut ledger = TrafficLedger::new(3);
        for &(pair, slot, vol) in &base {
            let (i, j) = PAIRS[pair];
            ledger.record(DcId(i), DcId(j), slot, vol);
        }
        let before = ledger.clone();
        let mut log = Vec::new();
        for &(pair, slot, vol, zero) in &logged {
            let (i, j) = PAIRS[pair];
            let vol = if zero == 0 { 0.0 } else { vol };
            ledger.record_undoable(DcId(i), DcId(j), slot, vol, &mut log);
        }
        ledger.undo(&mut log);
        prop_assert!(log.is_empty());
        prop_assert_eq!(&ledger, &before);
        prop_assert_eq!(ledger.horizon(), before.horizon());
        for (i, j) in PAIRS {
            let (a, b) = (ledger.series(DcId(i), DcId(j)), before.series(DcId(i), DcId(j)));
            prop_assert_eq!(a.len(), b.len());
            prop_assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
            let (pa, pb) = (ledger.peak(DcId(i), DcId(j)), before.peak(DcId(i), DcId(j)));
            prop_assert_eq!(pa.to_bits(), pb.to_bits());
        }
    }

    /// Time expansion has exactly (links + dcs) arcs per slot, and arc
    /// endpoints always connect consecutive layers.
    #[test]
    fn time_expansion_structure(n in 2usize..7, t0 in 0u64..50, slots in 1usize..9) {
        let net = Network::complete(n, 1.0, 10.0);
        let g = TimeExpandedGraph::new(&net, t0, slots);
        prop_assert_eq!(g.num_arcs(), slots * (n * (n - 1) + n));
        for (_, arc) in g.arcs() {
            prop_assert_eq!(arc.head().layer, arc.tail().layer + 1);
            prop_assert!(arc.slot >= t0 && arc.slot < t0 + slots as u64);
            match arc.kind {
                ArcKind::Storage => prop_assert_eq!(arc.from, arc.to),
                ArcKind::Transit => prop_assert_ne!(arc.from, arc.to),
            }
        }
        // Per-slot arc counts are uniform.
        for s in t0..t0 + slots as u64 {
            prop_assert_eq!(g.arcs_in_slot(s).count(), n * n);
        }
    }

    /// A hop-by-hop relay plan built constructively is always valid, and
    /// single mutations break exactly the right invariant (metamorphic).
    #[test]
    fn constructed_relay_plan_valid_and_mutations_caught(
        size in 1.0f64..50.0,
        hold in 0usize..3,
    ) {
        // Chain 0 → 1 → 2 with optional holding at the relay.
        let net = Network::complete(3, 1.0, 1e9);
        let deadline = 2 + hold;
        let f = TransferRequest::new(FileId(1), DcId(0), DcId(2), size, deadline, 0);
        let mut plan = TransferPlan::new();
        plan.add(f.id, 0, DcId(0), DcId(1), size);
        for h in 0..hold {
            plan.add(f.id, 1 + h as u64, DcId(1), DcId(1), size);
        }
        plan.add(f.id, 1 + hold as u64, DcId(1), DcId(2), size);
        prop_assert!(plan.is_valid(&net, &[f], |_, _, _| 0.0));

        // Mutation 1: inflate one transit entry ⇒ conservation breaks.
        let mut bad = plan.clone();
        bad.add(f.id, 0, DcId(0), DcId(1), 1.0);
        prop_assert!(!bad.is_valid(&net, &[f], |_, _, _| 0.0));

        // Mutation 2: move the final hop past the deadline ⇒ window breaks.
        let mut bad = plan.clone();
        bad.add(f.id, deadline as u64 + 3, DcId(1), DcId(2), 0.5);
        prop_assert!(!bad.is_valid(&net, &[f], |_, _, _| 0.0));

        // Mutation 3: shrink capacity below the plan ⇒ capacity breaks.
        let tight = Network::complete(3, 1.0, size * 0.5);
        prop_assert!(!plan.is_valid(&tight, &[f], |_, _, _| 0.0));
    }

    /// Applying a plan to a ledger records exactly the transit volumes.
    #[test]
    fn plan_ledger_roundtrip(size in 1.0f64..50.0) {
        let net = Network::complete(3, 3.0, 1e9);
        let f = TransferRequest::new(FileId(9), DcId(0), DcId(2), size, 2, 5);
        let mut plan = TransferPlan::new();
        plan.add(f.id, 5, DcId(0), DcId(1), size);
        plan.add(f.id, 6, DcId(1), DcId(2), size);
        let mut ledger = TrafficLedger::new(3);
        plan.apply_to_ledger(&mut ledger);
        prop_assert!((ledger.volume(DcId(0), DcId(1), 5) - size).abs() < 1e-12);
        prop_assert!((ledger.volume(DcId(1), DcId(2), 6) - size).abs() < 1e-12);
        prop_assert!((ledger.total_volume(DcId(0), DcId(1)) - size).abs() < 1e-12);
        prop_assert!((ledger.cost_per_slot(&net) - 6.0 * size).abs() < 1e-9);
        let _ = net.links().collect::<Vec<_>>();
    }

    /// Rank selection agrees with the sort-based oracle the implementation
    /// replaced: `select_nth_unstable_by` must pick the exact element a full
    /// `total_cmp` sort puts at the charged index, bit for bit.
    #[test]
    fn charged_volume_matches_sort_oracle(vols in volumes(), q in 1.0f64..=100.0) {
        let fast = window_charge(&vols, q);
        let mut sorted = vols.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
        let oracle = sorted[rank.clamp(1, sorted.len()) - 1];
        prop_assert_eq!(fast.to_bits(), oracle.to_bits());
    }

    /// Windowed billing invariants: the current-window charge is monotone in
    /// q, and any window length covering the whole horizon charges the same
    /// as the whole-history evaluation (window-length invariance).
    #[test]
    fn windowed_charging_properties(
        records in prop::collection::vec((0u64..30, 0.1f64..100.0), 1..40),
        q1 in 1.0f64..=100.0,
        q2 in 1.0f64..=100.0,
        window in 1usize..50,
    ) {
        let mut ledger = TrafficLedger::new(2);
        for &(slot, vol) in &records {
            ledger.record(DcId(0), DcId(1), slot, vol);
        }
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = current_charge(&ledger, lo, window);
        let b = current_charge(&ledger, hi, window);
        prop_assert!(a <= b + 1e-12, "window charge must be monotone in q: {} vs {}", a, b);

        // Any window at least as long as the horizon holds the entire series
        // in window 0, so the charge is invariant in the window length and
        // q=100 equals the running peak exactly.
        let horizon = ledger.horizon() as usize;
        for w in [horizon, horizon + 1, horizon + 17] {
            let charged = current_charge(&ledger, 100.0, w);
            prop_assert_eq!(charged.to_bits(), ledger.peak(DcId(0), DcId(1)).to_bits());
        }

        // The burst budget never exceeds the scheme's free-slot count.
        let scheme = ChargingScheme::Percentile { q: lo, window_slots: window };
        let budget = ledger.burst_budget(DcId(0), DcId(1), scheme, ledger.horizon().saturating_sub(1));
        prop_assert!(budget <= scheme.free_slots());
    }

    /// An empty window (no traffic recorded in it yet) always charges zero.
    #[test]
    fn empty_windows_charge_zero(window in 1usize..30, q in 1.0f64..=100.0) {
        let ledger = TrafficLedger::new(2);
        prop_assert_eq!(current_charge(&ledger, q, window), 0.0);
        let scheme = ChargingScheme::Percentile { q, window_slots: window };
        prop_assert_eq!(ledger.window_baseline(DcId(0), DcId(1), scheme, 0), 0.0);
        prop_assert_eq!(ledger.burst_budget(DcId(0), DcId(1), scheme, 0), scheme.free_slots());
    }

    /// `TransferRequest::split` conserves size and produces valid requests.
    #[test]
    fn split_conserves_volume(size in 1.0f64..500.0, parts in 1usize..10) {
        let f = TransferRequest::new(FileId(0), DcId(0), DcId(1), size, 4, 7);
        let pieces = f.split(parts, 100);
        prop_assert_eq!(pieces.len(), parts);
        let total: f64 = pieces.iter().map(|p| p.size_gb).sum();
        prop_assert!((total - size).abs() < 1e-9);
        for p in &pieces {
            prop_assert_eq!(p.deadline_slots, f.deadline_slots);
            prop_assert_eq!(p.release_slot, f.release_slot);
        }
    }

    /// For requests with repeated release slots, gaps and ids out of order,
    /// every slot's batch (gaps and slots past the horizon included) is the
    /// brute-force filter in id order, the slot counts are the brute-force
    /// maxima, the CSV round trip is exact, and generating the trace from a
    /// workload builds the same trace as `from_requests`.
    #[test]
    fn trace_batches_match_brute_force(
        rows in prop::collection::vec((0u64..12, 1.0f64..100.0, 1usize..5), 0..40),
    ) {
        // 37 is coprime to 64, so the ids are distinct and out of order.
        let requests: Vec<TransferRequest> = rows
            .iter()
            .enumerate()
            .map(|(i, &(release, size, deadline))| {
                let id = FileId(i as u64 * 37 % 64);
                TransferRequest::new(id, DcId(i % 3), DcId(3), size, deadline, release)
            })
            .collect();
        let trace = Trace::from_requests(requests.clone());
        let num_slots = requests.iter().map(|r| r.release_slot + 1).max().unwrap_or(0);
        let horizon = requests.iter().map(|r| r.last_slot() + 1).max().unwrap_or(0);
        prop_assert_eq!(trace.num_slots(), num_slots);
        prop_assert_eq!(trace.horizon_slots(), horizon);
        for slot in 0..=horizon + 1 {
            let mut expected: Vec<TransferRequest> =
                requests.iter().filter(|r| r.release_slot == slot).copied().collect();
            expected.sort_by_key(|r| r.id);
            prop_assert_eq!(trace.batch(slot), &expected[..]);
        }

        let csv = trace.to_csv();
        let back = Trace::from_csv(&csv).unwrap();
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(back.to_csv(), csv);

        let mut replay = Replay(requests);
        prop_assert_eq!(Trace::generate(&mut replay, num_slots), trace);
    }
}

/// Releases each slot's requests in the order they were given.
struct Replay(Vec<TransferRequest>);

impl Workload for Replay {
    fn batch(&mut self, slot: u64) -> Vec<TransferRequest> {
        self.0.iter().filter(|r| r.release_slot == slot).copied().collect()
    }
}

/// Arc usability windows agree with the request's own window arithmetic.
#[test]
fn arc_usability_matches_request_window() {
    let net = Network::complete(3, 1.0, 10.0);
    let g = TimeExpandedGraph::new(&net, 0, 10);
    let f = TransferRequest::new(FileId(0), DcId(0), DcId(1), 5.0, 3, 4); // slots 4..=6
    let usable: Vec<&Arc> = g.arcs_usable_by(&f).map(|(_, a)| a).collect();
    assert!(usable.iter().all(|a| (4..=6).contains(&a.slot)));
    assert_eq!(usable.len(), 3 * 9);
}
