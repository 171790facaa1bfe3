//! The online controller (paper Sec. III).
//!
//! Inter-datacenter traffic cannot be predicted more than seconds ahead, so
//! Postcard runs *online*: at each slot `t` the files released at `t` are
//! scheduled given full knowledge of all earlier decisions — which live in
//! the [`TrafficLedger`] as committed per-slot volumes (including volumes
//! committed into *future* slots by earlier plans).
//!
//! The controller also implements **admission control** ([`admit`]):
//! schedulers are all-or-nothing per batch, so when a whole batch is
//! infeasible the controller retries file-by-file (in arrival order) and
//! rejects only the files that genuinely do not fit. The paper assumes
//! feasible workloads and does not discuss admission; rejections are
//! surfaced in [`StepReport`] so experiments can verify they are rare and
//! identical across approaches or account for them.
//!
//! Admission is all-or-nothing on a hard (non-[`PostcardError::Infeasible`])
//! scheduler error too: the ledger is restored to its state before the
//! batch, and nothing reaches the accounting. An online controller never
//! re-plans committed files, so the ledger must always agree with what a
//! step reported as admitted.

use crate::error::PostcardError;
use crate::scheduler::{Decision, Scheduler};
use postcard_net::{ChargingScheme, FileId, LedgerUndo, Network, TrafficLedger, TransferRequest};
use serde::{Deserialize, Serialize};

/// One batch's admission verdict (see [`admit`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Admission {
    /// Each decision with the files it serves, in commit order.
    pub commits: Vec<(Vec<TransferRequest>, Decision)>,
    /// Files rejected (no feasible service even alone), in arrival order.
    pub rejected: Vec<TransferRequest>,
}

impl Admission {
    /// Files admitted, in commit order (arrival order within one batch).
    pub fn accepted(&self) -> impl Iterator<Item = &TransferRequest> {
        self.commits.iter().flat_map(|(files, _)| files)
    }
}

/// Admits `files` onto `ledger`: the whole batch in one schedule call, or,
/// if that is infeasible, file by file in arrival order. Every admitted
/// decision is booked onto `ledger` before the next schedule call, after a
/// debug-build check against the traffic already there.
///
/// The caller accounts for the returned [`Admission`] (see
/// [`OnlineController::record_booked`]).
///
/// # Errors
///
/// The first non-[`PostcardError::Infeasible`] scheduler error. `ledger` is
/// then exactly as it was: the whole-batch path books nothing before its
/// one call, and the per-file path logs every write it books and undoes
/// them, newest first.
pub fn admit<S: Scheduler + ?Sized>(
    scheduler: &mut S,
    network: &Network,
    files: &[TransferRequest],
    ledger: &mut TrafficLedger,
) -> Result<Admission, PostcardError> {
    match scheduler.schedule(network, files, ledger) {
        Ok(decision) => {
            book(scheduler.name(), network, &decision, files, ledger, None);
            Ok(Admission { commits: vec![(files.to_vec(), decision)], rejected: Vec::new() })
        }
        Err(PostcardError::Infeasible) => {
            let mut undo = Vec::new();
            let mut admission = Admission::default();
            for f in files {
                let single = [*f];
                match scheduler.schedule(network, &single, ledger) {
                    Ok(decision) => {
                        book(
                            scheduler.name(),
                            network,
                            &decision,
                            &single,
                            ledger,
                            Some(&mut undo),
                        );
                        admission.commits.push((single.to_vec(), decision));
                    }
                    Err(PostcardError::Infeasible) => admission.rejected.push(*f),
                    Err(e) => {
                        ledger.undo(&mut undo);
                        return Err(e);
                    }
                }
            }
            Ok(admission)
        }
        Err(e) => Err(e),
    }
}

/// Books `decision` (made for `files` by `scheduler`) onto `ledger`,
/// logging every write to `undo` when one is given. Debug builds first
/// validate it against the traffic already booked, so a decision that
/// over-commits a link fails the assertion.
fn book(
    scheduler: &str,
    network: &Network,
    decision: &Decision,
    files: &[TransferRequest],
    ledger: &mut TrafficLedger,
    mut undo: Option<&mut Vec<LedgerUndo>>,
) {
    match decision {
        Decision::Plan(plan) => debug_assert!(
            plan.validate(network, files, |i, j, s| ledger.volume(i, j, s)).is_empty(),
            "scheduler {scheduler} produced an invalid plan"
        ),
        Decision::Rates(rates) => debug_assert!(
            rates.validate(network, files, |i, j, s| ledger.volume(i, j, s)).is_empty(),
            "scheduler {scheduler} produced an invalid assignment"
        ),
    }
    decision.for_each_booking(files, |from, to, slot, volume| match undo.as_deref_mut() {
        Some(log) => ledger.record_undoable(from, to, slot, volume, log),
        None => ledger.record(from, to, slot, volume),
    });
}

/// What happened in one controller step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// The slot that was scheduled.
    pub slot: u64,
    /// Files fully admitted and committed.
    pub accepted: Vec<FileId>,
    /// Files rejected (no feasible service even alone).
    pub rejected: Vec<FileId>,
    /// The provider's bill per slot (Σ a_ij · X_ij) after this step.
    pub cost_per_slot: f64,
}

/// The complete mutable state of an [`OnlineController`], detached from its
/// scheduler and network so service runtimes can checkpoint and restore it.
///
/// The decision log is deliberately excluded: it is a CLI export aid, can
/// be arbitrarily large, and a restored controller continues with an empty
/// log without affecting any scheduling decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerState {
    /// Committed per-slot volumes and running peaks.
    pub ledger: TrafficLedger,
    /// Bill per slot after every step taken so far.
    pub cost_history: Vec<f64>,
    /// Files admitted so far.
    pub total_accepted: usize,
    /// Files rejected so far.
    pub total_rejected: usize,
    /// Volume admitted so far (GB).
    pub accepted_volume: f64,
    /// Volume rejected so far (GB).
    pub rejected_volume: f64,
}

/// Drives a [`Scheduler`] slot by slot, maintaining the committed ledger.
#[derive(Debug)]
pub struct OnlineController<S> {
    scheduler: S,
    network: Network,
    ledger: TrafficLedger,
    cost_history: Vec<f64>,
    total_accepted: usize,
    total_rejected: usize,
    accepted_volume: f64,
    rejected_volume: f64,
    keep_decisions: bool,
    decisions: Vec<(u64, Decision)>,
    /// How the cost history prices the ledger. Not part of
    /// [`ControllerState`]: the scheme is run configuration (like the
    /// scheduler), re-supplied on restore by whoever rebuilds the
    /// controller.
    charging: ChargingScheme,
}

impl<S: Scheduler> OnlineController<S> {
    /// Creates a controller over `network` with an empty ledger.
    pub fn new(network: Network, scheduler: S) -> Self {
        let ledger = TrafficLedger::new(network.num_dcs());
        Self {
            scheduler,
            network,
            ledger,
            cost_history: Vec::new(),
            total_accepted: 0,
            total_rejected: 0,
            accepted_volume: 0.0,
            rejected_volume: 0.0,
            keep_decisions: false,
            decisions: Vec::new(),
            charging: ChargingScheme::MaxPerSlot,
        }
    }

    /// Enables the decision log: every committed [`Decision`] is retained
    /// and can be read back with [`OnlineController::decisions`] (used by
    /// the CLI to export plans).
    pub fn with_decision_log(mut self) -> Self {
        self.keep_decisions = true;
        self
    }

    /// Prices the cost history under `scheme` instead of the default
    /// [`ChargingScheme::MaxPerSlot`]. Under `MaxPerSlot` every cost value
    /// is bit-identical to what the controller always produced.
    pub fn with_charging(mut self, scheme: ChargingScheme) -> Self {
        self.charging = scheme;
        self
    }

    /// The charging scheme pricing the cost history.
    pub fn charging(&self) -> ChargingScheme {
        self.charging
    }

    /// The committed decisions per slot (empty unless
    /// [`OnlineController::with_decision_log`] was used).
    pub fn decisions(&self) -> &[(u64, Decision)] {
        &self.decisions
    }

    /// The scheduler itself (e.g. to read its [`crate::SolveStats`]).
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Mutable access to the scheduler (e.g. to re-arm fault injection).
    pub fn scheduler_mut(&mut self) -> &mut S {
        &mut self.scheduler
    }

    /// The committed traffic so far.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// The network being controlled.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the network (service runtimes apply link
    /// degradations here).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Snapshots the controller's complete mutable state (see
    /// [`ControllerState`] for what is excluded).
    pub fn export_state(&self) -> ControllerState {
        ControllerState {
            ledger: self.ledger.clone(),
            cost_history: self.cost_history.clone(),
            total_accepted: self.total_accepted,
            total_rejected: self.total_rejected,
            accepted_volume: self.accepted_volume,
            rejected_volume: self.rejected_volume,
        }
    }

    /// Rebuilds a controller from a snapshotted state, a network, and a
    /// scheduler. Stepping the result continues exactly where
    /// [`OnlineController::export_state`] left off (the decision log starts
    /// empty).
    pub fn from_state(network: Network, scheduler: S, state: ControllerState) -> Self {
        Self {
            scheduler,
            network,
            ledger: state.ledger,
            cost_history: state.cost_history,
            total_accepted: state.total_accepted,
            total_rejected: state.total_rejected,
            accepted_volume: state.accepted_volume,
            rejected_volume: state.rejected_volume,
            keep_decisions: false,
            decisions: Vec::new(),
            charging: ChargingScheme::MaxPerSlot,
        }
    }

    /// Bill per slot after the most recent step (0 before any step).
    pub fn cost_per_slot(&self) -> f64 {
        self.cost_history.last().copied().unwrap_or(0.0)
    }

    /// Bill per slot after every step so far.
    pub fn cost_history(&self) -> &[f64] {
        &self.cost_history
    }

    /// `(accepted, rejected)` file counts so far.
    pub fn admission_counts(&self) -> (usize, usize) {
        (self.total_accepted, self.total_rejected)
    }

    /// `(accepted, rejected)` volumes in GB so far.
    pub fn admission_volumes(&self) -> (f64, f64) {
        (self.accepted_volume, self.rejected_volume)
    }

    /// The scheduler together with the network and the committed ledger it
    /// schedules against, borrowed at once so a caller can book admissions
    /// onto the controller's own ledger and account for them with
    /// [`OnlineController::record_booked`].
    pub fn scheduler_and_state(&mut self) -> (&mut S, &Network, &mut TrafficLedger) {
        (&mut self.scheduler, &self.network, &mut self.ledger)
    }

    /// Schedules the batch of files released at `slot` and commits the
    /// decision.
    ///
    /// # Errors
    ///
    /// Propagates non-[`PostcardError::Infeasible`] scheduler errors
    /// (infeasibility is handled by per-file admission instead). A failed
    /// step leaves the controller exactly as it was.
    ///
    /// # Panics
    ///
    /// Panics if a file's release slot differs from `slot` — batches must be
    /// formed per slot.
    pub fn step(
        &mut self,
        slot: u64,
        files: &[TransferRequest],
    ) -> Result<StepReport, PostcardError> {
        for f in files {
            assert_eq!(f.release_slot, slot, "batch must contain only slot-{slot} releases");
        }
        let admission = admit(&mut self.scheduler, &self.network, files, &mut self.ledger)?;
        Ok(self.record_booked(slot, [&admission]))
    }

    /// Records admissions already booked onto the ledger (by [`admit`] or
    /// the sharded runtime's reconciler, through
    /// [`OnlineController::scheduler_and_state`]) as this slot's single
    /// controller step: the decision log, the admission accounting and the
    /// cost history.
    ///
    /// Admitted and rejected volumes accumulate file by file, in the order
    /// the admissions list them (arrival order for a single admission).
    pub fn record_booked<'a>(
        &mut self,
        slot: u64,
        admissions: impl IntoIterator<Item = &'a Admission>,
    ) -> StepReport {
        let mut accepted = Vec::new();
        let mut rejected = Vec::new();
        for admission in admissions {
            if self.keep_decisions {
                self.decisions.extend(admission.commits.iter().map(|(_, d)| (slot, d.clone())));
            }
            for f in admission.accepted() {
                self.accepted_volume += f.size_gb;
                accepted.push(f.id);
            }
            for f in &admission.rejected {
                self.rejected_volume += f.size_gb;
                rejected.push(f.id);
            }
        }
        self.total_accepted += accepted.len();
        self.total_rejected += rejected.len();
        let cost = self.ledger.cost_per_slot_scheme(&self.network, self.charging);
        self.cost_history.push(cost);
        StepReport { slot, accepted, rejected, cost_per_slot: cost }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{DirectScheduler, FlowLpScheduler, PostcardScheduler};
    use postcard_lp::LpError;
    use postcard_net::{DcId, NetworkBuilder};

    fn d(i: usize) -> DcId {
        DcId(i)
    }

    fn net() -> Network {
        NetworkBuilder::new(3)
            .link(d(1), d(2), 10.0, 100.0)
            .link(d(1), d(0), 1.0, 100.0)
            .link(d(0), d(2), 3.0, 100.0)
            .build()
    }

    #[test]
    fn postcard_controller_runs_multi_slot() {
        let mut ctl = OnlineController::new(net(), PostcardScheduler::new());
        let f0 = TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0);
        let r0 = ctl.step(0, &[f0]).unwrap();
        assert_eq!(r0.accepted, vec![FileId(1)]);
        assert!(r0.rejected.is_empty());
        assert!((r0.cost_per_slot - 12.0).abs() < 1e-5);

        // A later file sees the committed traffic.
        let f1 = TransferRequest::new(FileId(2), d(1), d(2), 6.0, 3, 5);
        let r1 = ctl.step(5, &[f1]).unwrap();
        assert_eq!(r1.accepted, vec![FileId(2)]);
        // The second file reuses the already-paid peaks: cost unchanged.
        assert!((r1.cost_per_slot - 12.0).abs() < 1e-5, "{}", r1.cost_per_slot);
        assert_eq!(ctl.cost_history().len(), 2);
        assert_eq!(ctl.admission_counts(), (2, 0));
    }

    #[test]
    fn admission_rejects_only_unservable_files() {
        // Capacity 2/slot on the single link: a 10-GB 1-slot file can never
        // fit; a 2-GB one can.
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 2.0).build();
        let mut ctl = OnlineController::new(net, PostcardScheduler::new());
        let big = TransferRequest::new(FileId(1), d(0), d(1), 10.0, 1, 0);
        let small = TransferRequest::new(FileId(2), d(0), d(1), 2.0, 1, 0);
        let r = ctl.step(0, &[big, small]).unwrap();
        assert_eq!(r.rejected, vec![FileId(1)]);
        assert_eq!(r.accepted, vec![FileId(2)]);
        assert_eq!(ctl.admission_volumes(), (2.0, 10.0));
    }

    #[test]
    fn admission_volumes_with_interleaved_rejections() {
        // Rejections interleaved between acceptances exercise the positional
        // cursor over `accepted`: every file must be attributed to exactly
        // one side, in arrival order.
        let net = NetworkBuilder::new(2).link(d(0), d(1), 1.0, 4.0).build();
        let mut ctl = OnlineController::new(net, PostcardScheduler::new());
        let batch = [
            TransferRequest::new(FileId(1), d(0), d(1), 50.0, 1, 0), // too big
            TransferRequest::new(FileId(2), d(0), d(1), 2.0, 1, 0),
            TransferRequest::new(FileId(3), d(0), d(1), 60.0, 1, 0), // too big
            TransferRequest::new(FileId(4), d(0), d(1), 2.0, 1, 0),
        ];
        let r = ctl.step(0, &batch).unwrap();
        assert_eq!(r.accepted, vec![FileId(2), FileId(4)]);
        assert_eq!(r.rejected, vec![FileId(1), FileId(3)]);
        assert_eq!(ctl.admission_counts(), (2, 2));
        assert_eq!(ctl.admission_volumes(), (4.0, 110.0));
    }

    #[test]
    fn percentile_charging_prices_cost_history() {
        // Direct scheduling of a 3-slot transfer elevates 3 slots; under
        // p50 over a 6-slot window (charged rank 3) the bill charges the
        // per-slot rate, under MaxPerSlot it charges the peak — same ledger.
        let f = TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0);
        let mut max_ctl = OnlineController::new(net(), DirectScheduler);
        let max_cost = max_ctl.step(0, &[f]).unwrap().cost_per_slot;
        let scheme = ChargingScheme::Percentile { q: 50.0, window_slots: 6 };
        let mut p_ctl = OnlineController::new(net(), DirectScheduler).with_charging(scheme);
        let p_cost = p_ctl.step(0, &[f]).unwrap().cost_per_slot;
        // Direct spreads 6 GB over 3 of 6 window slots → the p50 rank
        // (3rd of 6 sorted) lands on an idle slot and the bill is free,
        // while MaxPerSlot charges the 2 GB peak at price 10.
        assert!((max_cost - 20.0).abs() < 1e-9);
        assert_eq!(p_cost, 0.0);
        // With q=100 and a window covering the horizon the scheme-priced
        // history is bit-identical to MaxPerSlot.
        let wide = ChargingScheme::Percentile { q: 100.0, window_slots: 64 };
        let mut wide_ctl = OnlineController::new(net(), DirectScheduler).with_charging(wide);
        let wide_cost = wide_ctl.step(0, &[f]).unwrap().cost_per_slot;
        assert_eq!(wide_cost.to_bits(), max_cost.to_bits());
    }

    #[test]
    fn flow_controller_commits_rates() {
        let mut ctl = OnlineController::new(net(), FlowLpScheduler::new());
        let f = TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0);
        let r = ctl.step(0, &[f]).unwrap();
        assert_eq!(r.accepted.len(), 1);
        // Rates commit 3 slots of traffic: ledger horizon reaches slot 3.
        assert_eq!(ctl.ledger().horizon(), 3);
        // Flow LP routes via the cheap relay: 2·1 + 2·3 = 8 per slot.
        assert!((r.cost_per_slot - 8.0).abs() < 1e-5, "{}", r.cost_per_slot);
    }

    #[test]
    fn direct_controller_matches_fig1a() {
        let mut ctl = OnlineController::new(net(), DirectScheduler);
        let f = TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0);
        let r = ctl.step(0, &[f]).unwrap();
        assert!((r.cost_per_slot - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "batch must contain only slot-3 releases")]
    fn wrong_slot_batch_panics() {
        let mut ctl = OnlineController::new(net(), DirectScheduler);
        let f = TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0);
        let _ = ctl.step(3, &[f]);
    }

    /// Finds every multi-file batch infeasible, then sends single files
    /// direct, except file 2, on which the solver breaks down.
    struct BreaksOnFileTwo;

    impl Scheduler for BreaksOnFileTwo {
        fn name(&self) -> &'static str {
            "breaks-on-file-two"
        }

        fn schedule(
            &mut self,
            network: &Network,
            files: &[TransferRequest],
            ledger: &TrafficLedger,
        ) -> Result<Decision, PostcardError> {
            match files {
                [f] if f.id == FileId(2) => Err(PostcardError::Lp(LpError::SingularBasis)),
                [_] => DirectScheduler.schedule(network, files, ledger),
                _ => Err(PostcardError::Infeasible),
            }
        }
    }

    #[test]
    fn hard_failure_during_per_file_admission_commits_nothing() {
        let mut ctl = OnlineController::new(net(), BreaksOnFileTwo).with_decision_log();
        ctl.step(0, &[TransferRequest::new(FileId(1), d(1), d(2), 3.0, 3, 0)]).unwrap();
        let before = ctl.export_state();
        let decisions_before = ctl.decisions().len();

        // Files 3 and 4 are admitted per file before file 2 breaks the
        // solver. File 3 lengthens link 1→2's series past slot 2 and raises
        // its peak; file 4 opens link 1→0's series from empty.
        let batch = [
            TransferRequest::new(FileId(3), d(1), d(2), 6.0, 3, 1),
            TransferRequest::new(FileId(4), d(1), d(0), 4.0, 2, 1),
            TransferRequest::new(FileId(2), d(1), d(2), 6.0, 3, 1),
        ];
        let mut booked = before.ledger.clone();
        for f in &batch[..2] {
            let decision = DirectScheduler.schedule(ctl.network(), &[*f], &booked).unwrap();
            decision.apply_to_ledger(&[*f], &mut booked);
        }
        assert!(booked.series(d(1), d(2)).len() > before.ledger.series(d(1), d(2)).len());
        assert!(booked.peak(d(1), d(2)) > before.ledger.peak(d(1), d(2)));
        assert!(before.ledger.series(d(1), d(0)).is_empty() && booked.peak(d(1), d(0)) > 0.0);

        let err = ctl.step(1, &batch).unwrap_err();
        assert_eq!(err, PostcardError::Lp(LpError::SingularBasis));
        assert_eq!(ctl.export_state(), before, "ledger, counters and cost history unchanged");
        assert_eq!(ctl.decisions().len(), decisions_before);
        for (i, j) in [(1, 2), (1, 0)] {
            let (now, then) = (ctl.ledger(), &before.ledger);
            assert_eq!(now.series(d(i), d(j)).len(), then.series(d(i), d(j)).len());
            assert_eq!(now.peak(d(i), d(j)).to_bits(), then.peak(d(i), d(j)).to_bits());
        }
    }

    #[test]
    fn empty_step_keeps_cost() {
        let mut ctl = OnlineController::new(net(), PostcardScheduler::new());
        let f = TransferRequest::new(FileId(1), d(1), d(2), 6.0, 3, 0);
        ctl.step(0, &[f]).unwrap();
        let before = ctl.cost_per_slot();
        let r = ctl.step(1, &[]).unwrap();
        assert_eq!(r.cost_per_slot, before);
    }
}
