//! The traced run: after each `run_slot`, re-invoke every layer's public
//! function on the inputs the runtime saw in that slot, timing each call as
//! a span.
//!
//! The slot is replayed through a shadow [`OnlineController`] restored from
//! the runtime's pre-slot snapshot, driven by [`ShadowChain`] — the same
//! tier order and fallback rules as the runtime's chain, but calling the
//! layers directly (`build_postcard_problem`, `Model::prepare`,
//! `PreparedLp::solve_warm`, `map_solution`, `AlapScheduler::admit`, …).
//! The shadow's step report must equal the runtime's, bit for bit: that is
//! the proof the spans describe the slot the runtime actually served.

use crate::stats::{quantile, ratio};
use postcard_analyze::check_problem;
use postcard_core::{
    build_postcard_problem, solve_postcard_with, Decision, GreedyScheduler, HeadroomScheduler,
    OnlineController, PostcardConfig, PostcardError, Scheduler,
};
use postcard_flow::{unified_flow_lp_warm, AlapScheduler, BaselineError};
use postcard_lp::SolverWorkspace;
use postcard_net::{ChargingScheme, Network, TrafficLedger, TransferPlan, TransferRequest};
use postcard_runtime::{
    AdmissionQueue, AttemptOutcome, Runtime, RuntimeSnapshot, SlotOutcome, TierKind,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One timed call. Spans of one slot share its `parent`, the id of the
/// slot's `runtime.run_slot` span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    pass: u32,
    instance: usize,
    slot: u64,
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    /// Whether the span counts towards the slot's attributed time. A span
    /// that re-measures part of another (`snapshot.encode` inside
    /// `snapshot.save`) or summarises the slot does not.
    counted: bool,
}

/// Layer counts gathered alongside the spans.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    builds: u64,
    lp_vars: u64,
    lp_rows: u64,
    pivots: u64,
    dual_pivots: u64,
    alap_admits: u64,
    alap_rejects: u64,
    headroom_commits: u64,
    headroom_declines: u64,
    headroom_files: u64,
    snapshots: u64,
    snapshot_bytes: u64,
}

/// Collects spans and per-name time totals.
#[derive(Debug)]
struct Recorder {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    next_id: u64,
    parent: u64,
    pass: u32,
    instance: usize,
    slot: u64,
    slot_counted: Duration,
    totals: BTreeMap<&'static str, (Duration, u64)>,
    counts: Counts,
}

impl Recorder {
    fn record(&mut self, name: &'static str, counted: bool, start: Instant, dur: Duration) {
        let total = self.totals.entry(name).or_default();
        total.0 += dur;
        total.1 += 1;
        if counted {
            self.slot_counted += dur;
        }
        self.next_id += 1;
        if self.keep {
            self.spans.push(Span {
                id: self.next_id,
                parent: self.parent,
                pass: self.pass,
                instance: self.instance,
                slot: self.slot,
                name,
                start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
                dur_us: dur.as_secs_f64() * 1e6,
                counted,
            });
        }
    }

    /// Times `f` as a counted span.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, true, start, start.elapsed());
        out
    }

    fn secs(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.0.as_secs_f64())
    }

    fn calls(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.1)
    }
}

/// The ALAP rung's persistent residual grid, mirrored across slots with
/// the runtime's dirty-marking rules.
#[derive(Debug)]
struct ShadowAlap {
    scheduler: AlapScheduler,
    dirty: bool,
}

impl ShadowAlap {
    fn new() -> Self {
        Self { scheduler: AlapScheduler::default(), dirty: true }
    }
}

/// The runtime's fallback chain, re-implemented over direct layer calls.
/// Under the simulated clock no budget is ever exceeded, so a tier falls
/// through only on a forced timeout, a re-optimization skip, a headroom
/// decline, or a second numerical failure.
struct ShadowChain<'a> {
    tiers: &'a [TierKind],
    charging: ChargingScheme,
    forced: &'a [TierKind],
    skip_alap: bool,
    alap: &'a mut ShadowAlap,
    rec: &'a mut Recorder,
}

impl ShadowChain<'_> {
    fn attempt(
        &mut self,
        kind: TierKind,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        match kind {
            TierKind::Headroom => {
                let mut tier = HeadroomScheduler::new(self.charging);
                let result =
                    self.rec.time("headroom.decide", || tier.schedule(network, files, ledger));
                if !files.is_empty() {
                    let c = &mut self.rec.counts;
                    match result {
                        Ok(_) => {
                            c.headroom_commits += 1;
                            c.headroom_files += files.len() as u64;
                        }
                        Err(PostcardError::Infeasible) => c.headroom_declines += 1,
                        Err(_) => {}
                    }
                }
                result
            }
            TierKind::Alap => self.alap_attempt(network, files, ledger),
            TierKind::Postcard => self.postcard_attempt(network, files, ledger),
            TierKind::FlowLp => self
                .rec
                .time("flow.lp", || unified_flow_lp_warm(network, files, ledger, None))
                .map(|out| Decision::Rates(out.assignment))
                .map_err(|e| match e {
                    BaselineError::Infeasible => PostcardError::Infeasible,
                    BaselineError::Lp(e) => PostcardError::Lp(e),
                }),
            TierKind::Greedy => {
                self.rec.time("flow.greedy", || GreedyScheduler.schedule(network, files, ledger))
            }
        }
    }

    fn alap_attempt(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        if files.is_empty() {
            return Ok(Decision::Plan(TransferPlan::new()));
        }
        let alap = &mut *self.alap;
        if alap.dirty {
            self.rec.time("alap.rebase", || alap.scheduler.rebase(network, ledger));
            alap.dirty = false;
        }
        // The controller's per-file admission hands the rung one file at a
        // time; those calls are `AlapScheduler::admit`.
        let placed = if let [file] = files {
            self.rec.time("alap.admit", || alap.scheduler.admit(network, file))
        } else {
            self.rec.time("alap.admit_batch", || alap.scheduler.admit_batch(network, files))
        };
        match placed {
            Ok(plan) => {
                self.rec.counts.alap_admits += files.len() as u64;
                Ok(Decision::Plan(plan))
            }
            Err(_) => {
                if files.len() == 1 {
                    self.rec.counts.alap_rejects += 1;
                }
                Err(PostcardError::Infeasible)
            }
        }
    }

    fn postcard_attempt(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        let config = PostcardConfig::default();
        if files.is_empty() {
            return solve_postcard_with(network, files, ledger, &config)
                .map(|s| Decision::Plan(s.plan));
        }
        let problem = self
            .rec
            .time("core.build", || build_postcard_problem(network, files, ledger, &config))?;
        count_build(&mut self.rec.counts, &problem.model);
        let prepared = self.rec.time("lp.prepare", || problem.model.prepare())?;
        let solution = self.rec.time("lp.simplex", || {
            let mut workspace = SolverWorkspace::new();
            prepared.solve_warm(&problem.model, &config.simplex, None, &mut workspace)
        })?;
        self.rec.counts.pivots += solution.iterations() as u64;
        self.rec.counts.dual_pivots += solution.dual_iterations() as u64;
        let mapped = self.rec.time("core.map", || problem.map_solution(&solution))?;
        Ok(Decision::Plan(mapped.plan))
    }
}

fn count_build(counts: &mut Counts, model: &postcard_lp::Model) {
    counts.builds += 1;
    counts.lp_vars += model.num_vars() as u64;
    counts.lp_rows += model.num_constraints() as u64;
}

impl Scheduler for ShadowChain<'_> {
    fn name(&self) -> &'static str {
        "shadow-chain"
    }

    fn schedule(
        &mut self,
        network: &Network,
        files: &[TransferRequest],
        ledger: &TrafficLedger,
    ) -> Result<Decision, PostcardError> {
        let last = self.tiers.len() - 1;
        for (i, &kind) in self.tiers.iter().enumerate() {
            if i < last && (kind == TierKind::Alap && self.skip_alap || self.forced.contains(&kind))
            {
                continue;
            }
            // Like the runtime's chain, retry once on any solver failure.
            let mut result = self.attempt(kind, network, files, ledger);
            if matches!(result, Err(ref e) if *e != PostcardError::Infeasible) {
                result = self.attempt(kind, network, files, ledger);
            }
            match result {
                Ok(decision) => return Ok(decision),
                Err(PostcardError::Infeasible) if kind == TierKind::Headroom && i < last => {}
                Err(PostcardError::Infeasible) => return Err(PostcardError::Infeasible),
                Err(e) if i == last => return Err(e),
                Err(_) => {}
            }
        }
        Err(PostcardError::Infeasible)
    }
}

/// Fallback-chain tallies, read from the runtime's own attempt records.
#[derive(Debug, Clone, Copy, Default)]
struct FallbackTally {
    attempts: u64,
    activations: u64,
    decided_slots: u64,
    first_tier_slots: u64,
    degraded_slots: u64,
}

/// Counters the runtime keeps in its metrics registry, summed over replays.
#[derive(Debug, Clone, Copy, Default)]
struct RuntimeCounters {
    requeued: u64,
    expired: u64,
    dropped: u64,
    analysis_rejections: u64,
    files_lost_analysis: u64,
}

/// Drives traced replays and turns their spans into per-layer metrics.
#[derive(Debug)]
pub struct Tracer {
    rec: Recorder,
    alap: ShadowAlap,
    prev_network: Option<Network>,
    save_path: PathBuf,
    depth: Vec<f64>,
    fallback: FallbackTally,
    counters: RuntimeCounters,
    slots: u64,
    run_slot: Duration,
    unattributed: f64,
    mismatches: Vec<String>,
}

impl Tracer {
    /// A tracer that writes its re-invoked checkpoints to `save_path`.
    pub fn new(save_path: PathBuf) -> Self {
        Self {
            rec: Recorder {
                origin: Instant::now(),
                keep: false,
                spans: Vec::new(),
                next_id: 0,
                parent: 0,
                pass: 0,
                instance: 0,
                slot: 0,
                slot_counted: Duration::ZERO,
                totals: BTreeMap::new(),
                counts: Counts::default(),
            },
            alap: ShadowAlap::new(),
            prev_network: None,
            save_path,
            depth: Vec::new(),
            fallback: FallbackTally::default(),
            counters: RuntimeCounters::default(),
            slots: 0,
            run_slot: Duration::ZERO,
            unattributed: 0.0,
            mismatches: Vec::new(),
        }
    }

    /// Starts replaying one instance from a fresh runtime. Spans are kept
    /// for the first pass only, so the span file stays one pass long.
    pub fn begin_replay(&mut self, pass: u32, instance: usize) {
        self.rec.pass = pass;
        self.rec.instance = instance;
        self.rec.keep = pass == 0;
        self.alap = ShadowAlap::new();
        self.prev_network = None;
    }

    /// Folds in the counters of a finished replay.
    pub fn end_replay(&mut self, rt: &Runtime) {
        let m = rt.metrics();
        let c = &mut self.counters;
        c.requeued += m.counter("requeued_total");
        c.expired += m.counter("backlog_expired");
        c.dropped += m.counter("queue_dropped");
        c.analysis_rejections += m.counter("analysis_rejections");
        c.files_lost_analysis += m.counter("files_lost_analysis");
    }

    /// Runs the runtime's next slot (timed, exactly as in the untraced
    /// run), then re-invokes the slot's layers. `Ok(None)` once the run is
    /// complete.
    ///
    /// # Errors
    ///
    /// Reports runtime errors and checkpoint I/O failures.
    pub fn slot(&mut self, rt: &mut Runtime) -> Result<Option<SlotOutcome>, String> {
        if rt.is_finished() {
            return rt.run_slot().map_err(|e| e.to_string());
        }
        let slot = rt.next_slot();
        let pre = rt.snapshot();
        let started = Instant::now();
        let outcome = rt.run_slot().map_err(|e| e.to_string())?;
        let took = started.elapsed();
        let Some(outcome) = outcome else {
            return Ok(None);
        };
        self.rec.slot = slot;
        self.rec.parent = 0;
        self.rec.record("runtime.run_slot", false, started, took);
        self.rec.parent = self.rec.next_id;
        self.rec.slot_counted = Duration::ZERO;

        self.replay_slot(rt, slot, pre, &outcome)?;
        self.tally_fallback(rt, &outcome);

        let unattributed = took.as_secs_f64() - self.rec.slot_counted.as_secs_f64();
        self.unattributed += unattributed;
        self.run_slot += took;
        self.slots += 1;
        if self.rec.keep {
            let id = self.rec.next_id + 1;
            self.rec.next_id = id;
            self.rec.spans.push(Span {
                id,
                parent: self.rec.parent,
                pass: self.rec.pass,
                instance: self.rec.instance,
                slot,
                name: "trace.unattributed",
                start_us: started.duration_since(self.rec.origin).as_secs_f64() * 1e6,
                dur_us: unattributed * 1e6,
                counted: false,
            });
        }
        Ok(Some(outcome))
    }

    fn replay_slot(
        &mut self,
        rt: &Runtime,
        slot: u64,
        pre: RuntimeSnapshot,
        outcome: &SlotOutcome,
    ) -> Result<(), String> {
        let RuntimeSnapshot { config, arrivals, faults, queue, queue_dropped, controller, .. } =
            pre;
        // Faults apply at the slot boundary, so the post-slot network is
        // the one the slot was served on.
        let network = rt.controller().network().clone();
        if self.prev_network.as_ref().is_some_and(|prev| *prev != network) {
            self.alap.dirty = true;
        }

        let mut backlog = AdmissionQueue::new(config.queue_capacity);
        backlog.restore(queue, queue_dropped);
        let (entries, depth) = self.rec.time("runtime.queue", || {
            backlog.offer(&arrivals.batch(slot));
            let depth = backlog.len();
            (backlog.take_batch(slot).0, depth)
        });
        self.depth.push(depth as f64);
        let mut batch: Vec<TransferRequest> =
            entries.iter().filter_map(|e| e.request.carried_to(slot)).collect();

        if config.strict_analysis && !batch.is_empty() {
            let config = PostcardConfig::default();
            let built = self.rec.time("core.build", || {
                build_postcard_problem(&network, &batch, &controller.ledger, &config)
            });
            let rejected = match built {
                Ok(problem) => {
                    count_build(&mut self.rec.counts, &problem.model);
                    self.rec.time("analyze.check", || {
                        let report = check_problem(&problem);
                        report.has_errors() && !black_box(report.render_text()).is_empty()
                    })
                }
                Err(_) => true,
            };
            if rejected {
                batch.clear();
            }
        }

        let alap_first =
            config.tiers.iter().find(|t| **t != TierKind::Headroom) == Some(&TierKind::Alap);
        let reopt_now = alap_first
            && config.reopt_every > 0
            && slot > 0
            && slot.is_multiple_of(config.reopt_every);
        let forced = faults.timeouts_at(slot);
        let chain = ShadowChain {
            tiers: &config.tiers,
            charging: config.charging,
            forced: &forced,
            skip_alap: reopt_now,
            alap: &mut self.alap,
            rec: &mut self.rec,
        };
        let mut shadow = OnlineController::from_state(network.clone(), chain, controller)
            .with_charging(config.charging);
        let (report, degraded) = match shadow.step(slot, &batch) {
            Ok(report) => (report, false),
            Err(_) => {
                (shadow.step(slot, &[]).map_err(|e| format!("shadow slot {slot}: {e}"))?, true)
            }
        };
        let bill_start = Instant::now();
        black_box(shadow.ledger().cost_per_slot_scheme(shadow.network(), config.charging));
        let bill_took = bill_start.elapsed();
        drop(shadow);
        self.rec.record("ledger.bill", true, bill_start, bill_took);

        if report != outcome.report || degraded != outcome.degraded {
            self.mismatches.push(format!(
                "slot {slot}: the traced re-invocation decided {} accepted / {} rejected \
                 (bill {}), the runtime {} / {} (bill {})",
                report.accepted.len(),
                report.rejected.len(),
                report.cost_per_slot,
                outcome.report.accepted.len(),
                outcome.report.rejected.len(),
                outcome.report.cost_per_slot
            ));
        }
        if config.tiers.contains(&TierKind::Alap)
            && (outcome.degraded || outcome.chosen_tier.is_some_and(|t| t != TierKind::Alap))
        {
            self.alap.dirty = true;
        }
        self.prev_network = Some(network);

        if outcome.checkpointed {
            let snapshot = self.rec.time("snapshot.build", || rt.snapshot());
            let start = Instant::now();
            let json = snapshot.to_json();
            self.rec.record("snapshot.encode", false, start, start.elapsed());
            self.rec.counts.snapshots += 1;
            self.rec.counts.snapshot_bytes += json.len() as u64;
            self.rec.time("snapshot.save", || snapshot.save(&self.save_path))?;
        }
        Ok(())
    }

    fn tally_fallback(&mut self, rt: &Runtime, outcome: &SlotOutcome) {
        let records = rt.controller().scheduler().records();
        let f = &mut self.fallback;
        f.degraded_slots += u64::from(outcome.degraded);
        if outcome.report.accepted.is_empty() && outcome.report.rejected.is_empty() {
            // An empty batch commits trivially; the runtime does not count
            // its records either.
            return;
        }
        f.attempts += records.len() as u64;
        // The runtime's `fallback_activations`: forced timeouts, budget
        // overruns and solver failures.
        f.activations += records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    AttemptOutcome::ForcedTimeout
                        | AttemptOutcome::BudgetExceeded
                        | AttemptOutcome::Failed
                )
            })
            .count() as u64;
        if let Some(chosen) = outcome.chosen_tier {
            let declined = records.iter().any(|r| r.outcome == AttemptOutcome::Declined);
            let tiers = &rt.config().tiers;
            let first = tiers
                .iter()
                .copied()
                .find(|t| *t != TierKind::Headroom || !declined)
                .unwrap_or(tiers[0]);
            f.decided_slots += 1;
            f.first_tier_slots += u64::from(chosen == first);
        }
    }

    /// Re-invocations whose decisions differed from the runtime's.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// The per-layer metrics over `passes` traced passes. Times are per
    /// slot, counts per pass. `overhead_ratio` is computed by the caller
    /// (it compares with the untraced replay).
    pub fn metrics(
        &self,
        passes: u32,
        overhead_ratio: f64,
    ) -> Vec<(&'static str, &'static str, f64)> {
        let passes = f64::from(passes.max(1));
        let slots = self.slots.max(1) as f64;
        let ms = |name: &str| self.rec.secs(name) * 1e3 / slots;
        let per_pass = |n: u64| n as f64 / passes;
        let c = &self.rec.counts;
        let f = &self.fallback;
        let r = &self.counters;
        let builds = c.builds as f64;
        vec![
            ("fallback.attempts", "count", per_pass(f.attempts)),
            ("fallback.activations", "count", per_pass(f.activations)),
            (
                "fallback.first_tier_share",
                "ratio",
                ratio(f.first_tier_slots as f64, f.decided_slots as f64),
            ),
            ("fallback.degraded_slots", "count", per_pass(f.degraded_slots)),
            ("queue.depth_p95", "count", quantile(&self.depth, 0.95)),
            ("queue.requeued", "count", per_pass(r.requeued)),
            ("queue.expired", "count", per_pass(r.expired)),
            ("queue.dropped", "count", per_pass(r.dropped)),
            ("analyze.check_ms", "ms/slot", ms("analyze.check")),
            ("analyze.rejections", "count", per_pass(r.analysis_rejections)),
            ("analyze.files_lost", "count", per_pass(r.files_lost_analysis)),
            ("core.build_ms", "ms/slot", ms("core.build")),
            ("core.lp_vars", "count", ratio(c.lp_vars as f64, builds)),
            ("core.lp_rows", "count", ratio(c.lp_rows as f64, builds)),
            ("core.map_ms", "ms/slot", ms("core.map")),
            ("lp.prepare_ms", "ms/slot", ms("lp.prepare")),
            ("lp.simplex_ms", "ms/slot", ms("lp.simplex")),
            ("lp.pivots", "count", per_pass(c.pivots)),
            ("lp.dual_pivots", "count", per_pass(c.dual_pivots)),
            ("alap.rebase_ms", "ms/slot", ms("alap.rebase")),
            (
                "alap.admit_us",
                "us",
                ratio(self.rec.secs("alap.admit") * 1e6, self.rec.calls("alap.admit") as f64),
            ),
            ("alap.admits", "count", per_pass(c.alap_admits)),
            ("alap.rejects", "count", per_pass(c.alap_rejects)),
            (
                "alap.admit_share",
                "ratio",
                ratio(c.alap_admits as f64, (c.alap_admits + c.alap_rejects) as f64),
            ),
            ("headroom.decide_ms", "ms/slot", ms("headroom.decide")),
            ("headroom.committed", "count", per_pass(c.headroom_files)),
            ("headroom.declined", "count", per_pass(c.headroom_declines)),
            (
                "headroom.commit_share",
                "ratio",
                ratio(c.headroom_commits as f64, (c.headroom_commits + c.headroom_declines) as f64),
            ),
            ("ledger.bill_ms", "ms/slot", ms("ledger.bill")),
            ("snapshot.build_ms", "ms/slot", ms("snapshot.build")),
            ("snapshot.encode_ms", "ms/slot", ms("snapshot.encode")),
            (
                "snapshot.write_ms",
                "ms/slot",
                (ms("snapshot.save") - ms("snapshot.encode")).max(0.0),
            ),
            ("snapshot.bytes", "bytes", ratio(c.snapshot_bytes as f64, c.snapshots as f64)),
            (
                "trace.unattributed_share",
                "ratio",
                ratio(self.unattributed, self.run_slot.as_secs_f64()),
            ),
            ("trace.overhead_ratio", "ratio", overhead_ratio),
        ]
    }

    /// Writes the kept spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.rec.spans {
            // Writing into a String cannot fail.
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"pass\": {}, \"instance\": {}, \"slot\": {}, \
                 \"name\": \"{}\", \"start_us\": {:.3}, \"dur_us\": {:.3}, \"counted\": {}}}",
                s.id, s.parent, s.pass, s.instance, s.slot, s.name, s.start_us, s.dur_us, s.counted
            );
        }
        std::fs::write(path, out)
    }
}
