//! The CLI subcommands.

use crate::args::{parse_range_f64, parse_range_usize, ArgError, Args};
use postcard_core::{Decision, OnlineController};
use postcard_net::{ChargingScheme, Network, Trace, TransferPlan};
use postcard_runtime::{ClockKind, FaultPlan, Runtime, RuntimeConfig, ShardBy, TierKind};
use postcard_sim::{
    compare_billing, report, run_scenario, run_scenario_service, Approach, DiurnalPreset, Scenario,
    UniformWorkload, WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::io::Write;

/// Any failure of a CLI run.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage (flags, ranges, unknown subcommand).
    Usage(String),
    /// File I/O failure.
    Io(std::io::Error),
    /// A domain failure (parse errors, solver failures).
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Run(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

const USAGE: &str = "\
usage: postcard <command> [flags]

commands:
  gen-network   --dcs N [--capacity GB] [--price lo..hi] [--seed S] [--out PATH]
  gen-trace     --dcs N --slots N [--files lo..hi] [--size lo..hi]
                [--max-deadline T] [--seed S] [--out PATH]
  schedule      --network PATH --trace PATH [--approach NAME]
                [--plan-out PATH] [--costs-out PATH]
  simulate      [--setting fig4|fig5|fig6|fig7|all|diurnal] [--paper-scale]
                [--runs N] [--slots N] [--seed S] [--all-approaches]
                [--service] [--shards N] [--shard-by tenant|region]
  serve         --network PATH --trace PATH [--slots N]
                [--checkpoint PATH] [--every N] [--budget-ms MS]
                [--tiers a,b,c] [--queue-capacity N] [--max-requeue N]
                [--wall-clock] [--strict] [--alap] [--reopt-every N]
                [--shards N] [--shard-by tenant|region]
                [--charging max|p<q>:<window>]
                [--degrade slot:from:to:cap[,..]] [--force-timeout slot[:tier][,..]]
                [--price-change slot:from:to:price[,..]]
                [--maintain start:end:from:to[,..]]
                [--stop-after-slot K] [--metrics-out PATH]
                [--wall-metrics-out PATH]
  resume        --checkpoint PATH [--stop-after-slot K] [--metrics-out PATH]
                [--wall-metrics-out PATH]
  analyze src   [--root PATH] [--deny] [--json]
  analyze model --network PATH --trace PATH [--json] | --fixtures
  help          (also --help or -h after any command)

approaches: postcard (default), postcard-no-relay-storage, flow-lp,
            flow-two-phase, flow-greedy, direct
tiers:      headroom, alap, postcard, flow-lp, flow-greedy (fallback order;
            default is the three LP/greedy tiers — `alap` joins via --alap
            or --tiers, `headroom` joins automatically under --charging)

`serve` runs the crash-safe service runtime: every slot is scheduled through
the tier fallback chain, checkpoints are written every --every slots, and
--stop-after-slot simulates a crash (resume from the last checkpoint with
`resume`). --metrics-out ending in .csv exports CSV, anything else JSON.
With --strict every slot's LP is structurally checked before solving and
batches with error-level findings are dropped (metric: analysis_rejections).
With --alap each request is admitted or rejected instantly by As-Late-As-
Possible placement against residual link capacity — no LP solve on the
admission path (metrics: alap_admits / alap_rejects /
admission_latency_seconds). --reopt-every N additionally re-plans with the
full LP every N slots and rebases the residual grid from its schedule
(metric: lp_reoptimizations); 0 (default) disables re-optimization.
With --shards N each slot's batch is partitioned by --shard-by (tenant: the
FileId's high bits; region: the source datacenter), every shard solves in
parallel on its own thread, and a deterministic reconciliation pass
merges the plans into the one billing ledger (metric: shard_conflicts).
`gen-trace` files and the figure presets are all tenant 0, so shard them by
region: --shards N>1 under the tenant key is refused when no file carries a
nonzero tenant.
With --charging p<q>:<window> the provider bills the q-th percentile of each
link's per-slot volumes over aligned billing windows of <window> slots
(e.g. p95:288) instead of the running peak. The headroom rung is prepended
to the tier chain: bursts are served out of each window's free top-(100-q)%
slots before any LP runs (metric: headroom_declined when no budget exists).
--price-change reprices a link mid-run at a slot boundary; --maintain takes
a link down for [start, end) and restores its pre-outage capacity exactly.
A sharded checkpoint is the same single snapshot file.
Real per-slot solve wall time is kept out of the (deterministic) snapshotted
metrics; export it with --wall-metrics-out (solve_wall_seconds, plus
solve_wall_seconds_shard<i> per shard).

`simulate --service` routes the figure presets through this same service
runtime (postcard / flow-lp / flow-greedy approaches only) instead of the
bare controller; --shards / --shard-by apply as in `serve`.

`analyze` runs postcard-analyze (codes in crates/analyze/LINTS.md):
`src` lints the workspace sources (--deny exits nonzero on findings);
`model` builds the LP for a network + trace and checks it without solving
(exits nonzero on error-level findings), or self-checks with --fixtures.";

/// Runs one CLI invocation, writing human output to `out`.
///
/// # Errors
///
/// [`CliError`] covering usage, I/O, and domain failures.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    let rest = &argv[1..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    match command.as_str() {
        "gen-network" => gen_network(rest, out),
        "gen-trace" => gen_trace(rest, out),
        "schedule" => schedule(rest, out),
        "simulate" => simulate(rest, out),
        "serve" => serve(rest, out),
        "resume" => resume(rest, out),
        "analyze" => analyze(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn approach_by_name(name: &str) -> Result<Approach, CliError> {
    name.parse().map_err(|e: postcard_sim::ParseApproachError| CliError::Usage(e.to_string()))
}

fn write_or_print(path: Option<&str>, content: &str, out: &mut dyn Write) -> Result<(), CliError> {
    match path {
        Some(p) => {
            std::fs::write(p, content)?;
            writeln!(out, "wrote {p}")?;
        }
        None => out.write_all(content.as_bytes())?,
    }
    Ok(())
}

fn gen_network(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &[])?;
    let dcs: usize = args.require("dcs")?;
    if dcs < 2 {
        return Err(CliError::Usage("--dcs must be at least 2".into()));
    }
    let capacity: f64 = args.get_or("capacity", 100.0)?;
    let price = parse_range_f64(args.get("price").unwrap_or("1..10"))?;
    let seed: u64 = args.get_or("seed", 1)?;
    let path = args.get("out").map(str::to_string);
    args.reject_unknown()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Network::complete_with_prices(dcs, capacity, |_, _| rng.gen_range(price.0..=price.1));
    write_or_print(path.as_deref(), &net.to_csv(), out)
}

fn gen_trace(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &[])?;
    let dcs: usize = args.require("dcs")?;
    let slots: u64 = args.require("slots")?;
    let files = parse_range_usize(args.get("files").unwrap_or("1..4"))?;
    let size = parse_range_f64(args.get("size").unwrap_or("10..100"))?;
    let max_deadline: usize = args.get_or("max-deadline", 3)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let path = args.get("out").map(str::to_string);
    args.reject_unknown()?;
    if dcs < 2 || max_deadline == 0 || slots == 0 {
        return Err(CliError::Usage("need --dcs ≥ 2, --slots ≥ 1, --max-deadline ≥ 1".into()));
    }
    let mut workload = UniformWorkload::new(
        WorkloadConfig {
            num_dcs: dcs,
            files_per_slot: files,
            size_gb: size,
            deadline_slots: (1, max_deadline),
        },
        seed,
    );
    let trace = Trace::generate(&mut workload, slots);
    write_or_print(path.as_deref(), &trace.to_csv(), out)
}

fn schedule(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &[])?;
    let network_path: String = args.require("network")?;
    let trace_path: String = args.require("trace")?;
    let approach = approach_by_name(args.get("approach").unwrap_or("postcard"))?;
    let plan_out = args.get("plan-out").map(str::to_string);
    let costs_out = args.get("costs-out").map(str::to_string);
    args.reject_unknown()?;

    let network =
        Network::from_csv(&std::fs::read_to_string(&network_path)?).map_err(CliError::Run)?;
    let trace = Trace::from_csv(&std::fs::read_to_string(&trace_path)?).map_err(CliError::Run)?;
    for r in trace.requests() {
        if r.src.index() >= network.num_dcs() || r.dst.index() >= network.num_dcs() {
            return Err(CliError::Run(format!(
                "{} references a datacenter outside the {}-DC network",
                r.id,
                network.num_dcs()
            )));
        }
    }

    let mut ctl = OnlineController::new(network.clone(), approach.scheduler()).with_decision_log();
    let num_slots = trace.num_slots();
    for slot in 0..num_slots {
        let report = ctl.step(slot, trace.batch(slot)).map_err(|e| CliError::Run(e.to_string()))?;
        if !report.rejected.is_empty() {
            writeln!(out, "slot {slot}: rejected {} file(s)", report.rejected.len())?;
        }
    }
    let (accepted, rejected) = ctl.admission_counts();
    writeln!(
        out,
        "{}: {} slots, {} accepted / {} rejected, final bill {:.2}/slot",
        approach.name(),
        num_slots,
        accepted,
        rejected,
        ctl.cost_per_slot()
    )?;

    if let Some(path) = costs_out {
        let mut csv = String::from("slot,cost_per_slot\n");
        for (slot, cost) in ctl.cost_history().iter().enumerate() {
            csv.push_str(&format!("{slot},{cost}\n"));
        }
        std::fs::write(&path, csv)?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(path) = plan_out {
        let mut combined = TransferPlan::new();
        let mut rate_decisions = 0usize;
        for (_, decision) in ctl.decisions() {
            match decision {
                Decision::Plan(p) => combined.merge(p),
                Decision::Rates(_) => rate_decisions += 1,
            }
        }
        if rate_decisions > 0 {
            writeln!(
                out,
                "note: {rate_decisions} decision(s) were constant-rate assignments; \
                 --plan-out only covers slotted plans (use a postcard/direct approach)"
            )?;
        }
        std::fs::write(&path, combined.to_csv())?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

fn simulate(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &["paper-scale", "all-approaches", "service"])?;
    let setting = args.get("setting").unwrap_or("fig6").to_string();
    let paper_scale = args.switch("paper-scale");
    let all_approaches = args.switch("all-approaches");
    let service = args.switch("service");
    let (shards, shard_by) = parse_shard_flags(&args)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let runs_override: Option<usize> = args
        .get("runs")
        .map(str::parse)
        .transpose()
        .map_err(|_| CliError::Usage("--runs: bad value".into()))?;
    let slots_override: Option<u64> = args
        .get("slots")
        .map(str::parse)
        .transpose()
        .map_err(|_| CliError::Usage("--slots: bad value".into()))?;
    args.reject_unknown()?;

    if setting == "diurnal" {
        // The billing-window experiment is its own shape (two charging
        // schemes, one workload) — it does not fit the approach table.
        if all_approaches || service || shards != 1 {
            return Err(CliError::Usage(
                "--setting diurnal ignores approaches/service/shards flags".into(),
            ));
        }
        let mut preset = DiurnalPreset::three_day();
        if let Some(s) = slots_override {
            preset.slots_per_day = (s / preset.days).max(preset.burst_release_in_day + 4);
        }
        let runs = runs_override.unwrap_or(1);
        for run in 0..runs {
            let cmp = compare_billing(&preset, seed.wrapping_add(run as u64))
                .map_err(|e| CliError::Run(e.to_string()))?;
            writeln!(out, "{}", cmp.render())?;
        }
        return Ok(());
    }
    let bases = match setting.as_str() {
        "fig4" => vec![Scenario::fig4()],
        "fig5" => vec![Scenario::fig5()],
        "fig6" => vec![Scenario::fig6()],
        "fig7" => vec![Scenario::fig7()],
        "all" => Scenario::all_figures(),
        other => return Err(CliError::Usage(format!("unknown setting `{other}`"))),
    };
    let approaches = if all_approaches {
        if service {
            return Err(CliError::Usage(
                "--all-approaches and --service are incompatible: the service \
                 runtime only tiers postcard, flow-lp, and flow-greedy"
                    .into(),
            ));
        }
        vec![
            Approach::Postcard,
            Approach::FlowLp,
            Approach::FlowTwoPhase,
            Approach::FlowGreedy,
            Approach::Direct,
        ]
    } else {
        Approach::paper_pair()
    };
    if !service && shards != 1 {
        return Err(CliError::Usage("--shards needs --service".into()));
    }
    if shards > 1 && shard_by == ShardBy::Tenant {
        return Err(tenant_key_needs_tenants(shards, "the figure presets"));
    }
    for base in bases {
        let mut scenario = if paper_scale { base } else { base.scaled_down() };
        if let Some(r) = runs_override {
            scenario.num_runs = r;
        }
        if let Some(s) = slots_override {
            scenario.num_slots = s;
        }
        let summaries = if service {
            let template = RuntimeConfig { shards, shard_by, ..Default::default() };
            run_scenario_service(&scenario, &approaches, seed, &template)
                .map_err(|e| CliError::Run(e.to_string()))?
        } else {
            run_scenario(&scenario, &approaches, seed).map_err(|e| CliError::Run(e.to_string()))?
        };
        writeln!(out, "{}", report::render_table(&scenario, &summaries))?;
        writeln!(out, "{}", report::render_verdict(&summaries))?;
        writeln!(out)?;
    }
    Ok(())
}

/// Parses the shared `--shards` / `--shard-by` flags (defaults: 1, tenant).
fn parse_shard_flags(args: &Args) -> Result<(usize, ShardBy), CliError> {
    let shards: usize = args.get_or("shards", 1)?;
    if shards == 0 {
        return Err(CliError::Usage("--shards must be at least 1".into()));
    }
    let shard_by = match args.get("shard-by") {
        Some(spec) => spec.parse().map_err(CliError::Usage)?,
        None => ShardBy::Tenant,
    };
    Ok((shards, shard_by))
}

/// The usage error for `--shards N>1` under the tenant key on a workload
/// whose files all belong to tenant 0: one shard would get every batch.
fn tenant_key_needs_tenants(shards: usize, source: &str) -> CliError {
    CliError::Usage(format!(
        "--shards {shards} --shard-by tenant: every file in {source} belongs to tenant 0, \
         so one shard would get every batch; use --shard-by region"
    ))
}

/// Parses a comma-separated tier list (e.g. `postcard,flow-lp`).
fn parse_tiers(spec: &str) -> Result<Vec<TierKind>, CliError> {
    spec.split(',').map(|t| t.trim().parse().map_err(CliError::Usage)).collect()
}

/// Builds a fault plan from comma-separated `--degrade` / `--force-timeout`
/// / `--price-change` / `--maintain` specs.
fn parse_faults(
    degrade: Option<&str>,
    force_timeout: Option<&str>,
    price_change: Option<&str>,
    maintain: Option<&str>,
) -> Result<FaultPlan, CliError> {
    let mut plan = FaultPlan::none();
    if let Some(specs) = degrade {
        for spec in specs.split(',') {
            plan.degradations
                .push(FaultPlan::parse_degradation(spec.trim()).map_err(CliError::Usage)?);
        }
    }
    if let Some(specs) = force_timeout {
        for spec in specs.split(',') {
            plan.timeouts.push(FaultPlan::parse_timeout(spec.trim()).map_err(CliError::Usage)?);
        }
    }
    if let Some(specs) = price_change {
        for spec in specs.split(',') {
            plan.price_changes
                .push(FaultPlan::parse_price_change(spec.trim()).map_err(CliError::Usage)?);
        }
    }
    if let Some(specs) = maintain {
        for spec in specs.split(',') {
            plan.maintenance
                .push(FaultPlan::parse_maintenance(spec.trim()).map_err(CliError::Usage)?);
        }
    }
    Ok(plan)
}

/// Runs a service (fresh or resumed) up to `stop_after_slot`, then reports
/// and optionally exports metrics. Stopping early does *not* checkpoint —
/// that is the crash being simulated; `resume` picks up from the last
/// periodic checkpoint.
fn drive_service(
    mut rt: Runtime,
    stop_after_slot: Option<u64>,
    metrics_out: Option<&str>,
    wall_metrics_out: Option<&str>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let stop = stop_after_slot.unwrap_or(u64::MAX);
    while rt.next_slot() < stop {
        let Some(outcome) = rt.run_slot().map_err(|e| CliError::Run(e.to_string()))? else {
            break;
        };
        if outcome.degraded {
            writeln!(out, "slot {}: degraded (batch lost)", outcome.report.slot)?;
        } else if let Some(tier) = outcome.chosen_tier {
            let slot = outcome.report.slot;
            let cfg = rt.config();
            // A scheduled re-optimization slot lands on an LP tier by
            // design — narrate it as such, not as a fallback. The headroom
            // rung declining is routine (no free slots to burn), so
            // narration measures "fell back" from the first *scheduling*
            // tier, not the rung itself.
            if cfg.is_reopt_slot(slot) && tier != TierKind::Alap {
                writeln!(out, "slot {slot}: re-optimized with {tier}")?;
            } else if tier != cfg.tiers[0] && tier != cfg.first_scheduling_tier() {
                writeln!(out, "slot {slot}: fell back to {tier}")?;
            }
        }
    }

    let (accepted, rejected) = rt.controller().admission_counts();
    let state = if rt.is_finished() { "finished" } else { "stopped" };
    writeln!(
        out,
        "{state} at slot {}/{}: {} accepted / {} rejected, final bill {:.2}/slot, \
         {} fallback activation(s)",
        rt.next_slot(),
        rt.num_slots(),
        accepted,
        rejected,
        rt.final_cost_per_slot(),
        rt.metrics().counter("fallback_activations"),
    )?;
    if let Some(path) = metrics_out {
        let content =
            if path.ends_with(".csv") { rt.metrics().to_csv() } else { rt.metrics().to_json() };
        std::fs::write(path, content)?;
        writeln!(out, "wrote {path}")?;
    }
    if let Some(path) = wall_metrics_out {
        let wall = rt.wall_metrics();
        let content = if path.ends_with(".csv") { wall.to_csv() } else { wall.to_json() };
        std::fs::write(path, content)?;
        writeln!(out, "wrote {path}")?;
    }
    Ok(())
}

fn serve(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &["wall-clock", "strict", "alap"])?;
    let network_path: String = args.require("network")?;
    let trace_path: String = args.require("trace")?;
    let slots: u64 = args.get_or("slots", 0)?;
    let checkpoint = args.get("checkpoint").map(str::to_string);
    let every: u64 = args.get_or("every", if checkpoint.is_some() { 1 } else { 0 })?;
    let budget_ms: u64 = args.get_or("budget-ms", 250)?;
    let tiers = match args.get("tiers") {
        Some(spec) => parse_tiers(spec)?,
        None => TierKind::default_chain(),
    };
    let queue_capacity: usize = args.get_or("queue-capacity", 1024)?;
    let max_requeue_attempts: u32 = args.get_or("max-requeue", 2)?;
    let wall_clock = args.switch("wall-clock");
    let strict_analysis = args.switch("strict");
    let alap = args.switch("alap");
    let reopt_every: u64 = args.get_or("reopt-every", 0)?;
    let (shards, shard_by) = parse_shard_flags(&args)?;
    let charging = match args.get("charging") {
        Some(spec) => ChargingScheme::parse(spec).map_err(CliError::Usage)?,
        None => ChargingScheme::MaxPerSlot,
    };
    let faults = parse_faults(
        args.get("degrade"),
        args.get("force-timeout"),
        args.get("price-change"),
        args.get("maintain"),
    )?;
    let stop_after_slot: Option<u64> = args
        .get("stop-after-slot")
        .map(str::parse)
        .transpose()
        .map_err(|_| CliError::Usage("--stop-after-slot: bad value".into()))?;
    let metrics_out = args.get("metrics-out").map(str::to_string);
    let wall_metrics_out = args.get("wall-metrics-out").map(str::to_string);
    args.reject_unknown()?;

    let network =
        Network::from_csv(&std::fs::read_to_string(&network_path)?).map_err(CliError::Run)?;
    let arrivals =
        Trace::from_csv(&std::fs::read_to_string(&trace_path)?).map_err(CliError::Run)?;
    if shards > 1
        && shard_by == ShardBy::Tenant
        && arrivals.requests().iter().all(|r| r.id.tenant() == 0)
    {
        return Err(tenant_key_needs_tenants(shards, &trace_path));
    }
    let config = RuntimeConfig {
        tiers,
        slot_budget_us: budget_ms.saturating_mul(1000),
        checkpoint_every: if checkpoint.is_some() { every } else { 0 },
        checkpoint_path: checkpoint,
        queue_capacity,
        max_requeue_attempts,
        clock: if wall_clock { ClockKind::Wall } else { ClockKind::Sim },
        strict_analysis,
        alap,
        reopt_every,
        shards,
        shard_by,
        charging,
    };
    let rt = Runtime::new(network, arrivals, faults, slots, config)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    drive_service(rt, stop_after_slot, metrics_out.as_deref(), wall_metrics_out.as_deref(), out)
}

fn resume(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &[])?;
    let checkpoint: String = args.require("checkpoint")?;
    let stop_after_slot: Option<u64> = args
        .get("stop-after-slot")
        .map(str::parse)
        .transpose()
        .map_err(|_| CliError::Usage("--stop-after-slot: bad value".into()))?;
    let metrics_out = args.get("metrics-out").map(str::to_string);
    let wall_metrics_out = args.get("wall-metrics-out").map(str::to_string);
    args.reject_unknown()?;

    let rt = Runtime::resume(std::path::Path::new(&checkpoint))
        .map_err(|e| CliError::Run(e.to_string()))?;
    writeln!(out, "resumed from {checkpoint} at slot {}", rt.next_slot())?;
    drive_service(rt, stop_after_slot, metrics_out.as_deref(), wall_metrics_out.as_deref(), out)
}

/// `postcard analyze <src|model> …` — both fronts of `postcard-analyze`.
fn analyze(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(mode) = argv.first() else {
        return Err(CliError::Usage("analyze needs a mode: `src` or `model`".into()));
    };
    let rest = &argv[1..];
    match mode.as_str() {
        "src" => analyze_src(rest, out),
        "model" => analyze_model(rest, out),
        other => Err(CliError::Usage(format!("unknown analyze mode `{other}`"))),
    }
}

fn analyze_src(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &["deny", "json"])?;
    let root = args.get("root").unwrap_or(".").to_string();
    let deny = args.switch("deny");
    let json = args.switch("json");
    args.reject_unknown()?;
    let report = postcard_analyze::check_workspace(std::path::Path::new(&root));
    let rendered = if json { report.render_json() } else { report.render_text() };
    out.write_all(rendered.as_bytes())?;
    if deny && !report.is_empty() {
        return Err(CliError::Run(format!("analyze src: denying {} finding(s)", report.len())));
    }
    Ok(())
}

fn analyze_model(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(argv, &["json", "fixtures"])?;
    let json = args.switch("json");
    if args.switch("fixtures") {
        args.reject_unknown()?;
        let mut failed = 0usize;
        for outcome in postcard_analyze::fixtures::run_fixtures() {
            let verdict = if outcome.passed() { "ok" } else { "FAILED" };
            let expected = outcome.expected.unwrap_or("clean");
            writeln!(out, "fixture {:<32} expect {expected:<6} {verdict}", outcome.name)?;
            if !outcome.passed() {
                failed += 1;
                out.write_all(outcome.report.render_text().as_bytes())?;
            }
        }
        if failed > 0 {
            return Err(CliError::Run(format!("analyze model: {failed} fixture(s) failed")));
        }
        return Ok(());
    }
    let network_path: String = args.require("network")?;
    let trace_path: String = args.require("trace")?;
    args.reject_unknown()?;
    let network =
        Network::from_csv(&std::fs::read_to_string(&network_path)?).map_err(CliError::Run)?;
    let trace = Trace::from_csv(&std::fs::read_to_string(&trace_path)?).map_err(CliError::Run)?;
    let files = trace.requests();
    let ledger = postcard_net::TrafficLedger::new(network.num_dcs());
    let problem = postcard_core::build_postcard_problem(
        &network,
        files,
        &ledger,
        &postcard_core::PostcardConfig::default(),
    )
    .map_err(|e| CliError::Run(format!("building the LP failed: {e}")))?;
    let report = postcard_analyze::check_problem(&problem);
    let rendered = if json { report.render_json() } else { report.render_text() };
    out.write_all(rendered.as_bytes())?;
    writeln!(
        out,
        "checked {} file(s), {} variable(s), {} constraint(s)",
        files.len(),
        problem.model.num_vars(),
        problem.model.num_constraints()
    )?;
    if report.has_errors() {
        return Err(CliError::Run(format!(
            "analyze model: {} error-level finding(s)",
            report.num_errors()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(args: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("postcard-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run_cli(&["help"]).unwrap();
        assert!(out.contains("gen-network"));
        assert!(out.contains("simulate"));
        // `--help` after a command is a request for help, not a value flag.
        for args in
            [&["serve", "--help"][..], &["simulate", "--help"], &["serve", "--slots", "3", "-h"]]
        {
            assert_eq!(run_cli(args).unwrap(), out, "{args:?}");
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(run_cli(&["frobnicate"]), Err(CliError::Usage(_))));
        assert!(matches!(run_cli(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn gen_network_to_stdout_is_parsable() {
        let out = run_cli(&["gen-network", "--dcs", "3", "--seed", "5"]).unwrap();
        let net = Network::from_csv(&out).unwrap();
        assert_eq!(net.num_dcs(), 3);
        assert_eq!(net.num_links(), 6);
    }

    #[test]
    fn gen_trace_roundtrip_through_file() {
        let path = tmp("trace.csv");
        run_cli(&["gen-trace", "--dcs", "4", "--slots", "5", "--out", &path]).unwrap();
        let trace = Trace::from_csv(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(!trace.is_empty());
        assert!(trace.num_slots() <= 5);
    }

    #[test]
    fn schedule_end_to_end_with_plan_export() {
        let net_path = tmp("net.csv");
        let trace_path = tmp("sched_trace.csv");
        let plan_path = tmp("plan.csv");
        let costs_path = tmp("costs.csv");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&[
            "gen-trace",
            "--dcs",
            "4",
            "--slots",
            "4",
            "--files",
            "1..2",
            "--out",
            &trace_path,
        ])
        .unwrap();
        let out = run_cli(&[
            "schedule",
            "--network",
            &net_path,
            "--trace",
            &trace_path,
            "--approach",
            "postcard",
            "--plan-out",
            &plan_path,
            "--costs-out",
            &costs_path,
        ])
        .unwrap();
        assert!(out.contains("postcard:"), "{out}");
        // The exported plan parses and covers the trace's files.
        let plan = TransferPlan::from_csv(&std::fs::read_to_string(&plan_path).unwrap()).unwrap();
        assert!(!plan.is_empty());
        let costs = std::fs::read_to_string(&costs_path).unwrap();
        assert!(costs.lines().count() >= 4);
    }

    #[test]
    fn schedule_rejects_mismatched_trace() {
        let net_path = tmp("small_net.csv");
        let trace_path = tmp("big_trace.csv");
        run_cli(&["gen-network", "--dcs", "2", "--out", &net_path]).unwrap();
        run_cli(&["gen-trace", "--dcs", "8", "--slots", "2", "--out", &trace_path]).unwrap();
        let err = run_cli(&["schedule", "--network", &net_path, "--trace", &trace_path]);
        assert!(matches!(err, Err(CliError::Run(_))), "{err:?}");
    }

    #[test]
    fn simulate_tiny_run() {
        let out = run_cli(&[
            "simulate",
            "--setting",
            "fig6",
            "--runs",
            "1",
            "--slots",
            "5",
            "--seed",
            "2",
        ])
        .unwrap();
        assert!(out.contains("postcard"));
        assert!(out.contains("flow-lp"));
        assert!(out.contains("winner:"));
    }

    #[test]
    fn serve_runs_with_faults_and_exports_metrics() {
        let net_path = tmp("serve_net.csv");
        let trace_path = tmp("serve_trace.csv");
        let metrics_path = tmp("serve_metrics.csv");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&[
            "gen-trace",
            "--dcs",
            "4",
            "--slots",
            "4",
            "--files",
            "1..2",
            "--out",
            &trace_path,
        ])
        .unwrap();
        let out = run_cli(&[
            "serve",
            "--network",
            &net_path,
            "--trace",
            &trace_path,
            "--force-timeout",
            "1:postcard",
            "--metrics-out",
            &metrics_path,
        ])
        .unwrap();
        assert!(out.contains("slot 1: fell back to flow-lp"), "{out}");
        assert!(out.contains("finished"), "{out}");
        assert!(out.contains("1 fallback activation(s)"), "{out}");
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("counter,fallback_activations,0,1"), "{metrics}");
    }

    #[test]
    fn serve_crash_then_resume_matches_uninterrupted_run() {
        let net_path = tmp("crash_net.csv");
        let trace_path = tmp("crash_trace.csv");
        let ckpt = tmp("crash.ckpt.json");
        let m_full = tmp("crash_full.json");
        let m_resumed = tmp("crash_resumed.json");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&[
            "gen-trace",
            "--dcs",
            "4",
            "--slots",
            "6",
            "--files",
            "1..2",
            "--out",
            &trace_path,
        ])
        .unwrap();
        // Uninterrupted reference run.
        run_cli(&[
            "serve",
            "--network",
            &net_path,
            "--trace",
            &trace_path,
            "--metrics-out",
            &m_full,
        ])
        .unwrap();
        // Crash after slot 3 (checkpointing every slot), then resume.
        run_cli(&[
            "serve",
            "--network",
            &net_path,
            "--trace",
            &trace_path,
            "--checkpoint",
            &ckpt,
            "--stop-after-slot",
            "3",
        ])
        .unwrap();
        let out = run_cli(&["resume", "--checkpoint", &ckpt, "--metrics-out", &m_resumed]).unwrap();
        assert!(out.contains("resumed from"), "{out}");
        assert!(out.contains("finished"), "{out}");
        // The resumed run's bill gauge matches the uninterrupted run's.
        let full = std::fs::read_to_string(&m_full).unwrap();
        let resumed = std::fs::read_to_string(&m_resumed).unwrap();
        let gauge = |s: &str| {
            s.lines()
                .find(|l| l.contains("\"bill_per_slot\""))
                .map(str::to_string)
                .expect("bill gauge present")
        };
        assert_eq!(gauge(&full), gauge(&resumed));
    }

    #[test]
    fn simulate_service_tiny_run() {
        let out = run_cli(&[
            "simulate",
            "--setting",
            "fig6",
            "--service",
            "--runs",
            "1",
            "--slots",
            "4",
            "--seed",
            "2",
        ])
        .unwrap();
        assert!(out.contains("postcard"));
        assert!(out.contains("flow-lp"));
        assert!(out.contains("winner:"));
    }

    #[test]
    fn simulate_shards_require_service() {
        let err = run_cli(&["simulate", "--shards", "2", "--runs", "1", "--slots", "2"]);
        assert!(matches!(err, Err(CliError::Usage(ref m)) if m.contains("--service")), "{err:?}");
        let err = run_cli(&["simulate", "--service", "--all-approaches"]);
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
    }

    #[test]
    fn serve_rejects_bad_shard_flags() {
        let err = run_cli(&["serve", "--network", "x", "--trace", "y", "--shards", "0"]);
        assert!(matches!(err, Err(CliError::Usage(ref m)) if m.contains("shard")), "{err:?}");
        let err = run_cli(&["serve", "--network", "x", "--trace", "y", "--shard-by", "rack"]);
        assert!(matches!(err, Err(CliError::Usage(ref m)) if m.contains("rack")), "{err:?}");
    }

    #[test]
    fn tenant_sharding_of_single_tenant_workloads_is_refused() {
        let net_path = tmp("tenant0_net.csv");
        let trace_path = tmp("tenant0_trace.csv");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&["gen-trace", "--dcs", "4", "--slots", "3", "--out", &trace_path]).unwrap();
        let serve = ["serve", "--network", &net_path, "--trace", &trace_path, "--shards", "3"];
        let err = run_cli(&serve);
        assert!(
            matches!(err, Err(CliError::Usage(ref m)) if m.contains("--shard-by region")),
            "{err:?}"
        );
        let mut by_region = serve.to_vec();
        by_region.extend_from_slice(&["--shard-by", "region"]);
        assert!(run_cli(&by_region).unwrap().contains("finished"));

        let simulate = ["simulate", "--setting", "fig6", "--service", "--shards", "2"];
        let err = run_cli(&simulate);
        assert!(
            matches!(err, Err(CliError::Usage(ref m)) if m.contains("--shard-by region")),
            "{err:?}"
        );
    }

    #[test]
    fn serve_single_shard_reproduces_unsharded_outputs() {
        let net_path = tmp("shard1_net.csv");
        let trace_path = tmp("shard1_trace.csv");
        let m_plain = tmp("shard1_plain.json");
        let m_one = tmp("shard1_one.json");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&["gen-trace", "--dcs", "4", "--slots", "5", "--out", &trace_path]).unwrap();
        let base = ["serve", "--network", &net_path, "--trace", &trace_path];
        let mut plain = base.to_vec();
        plain.extend_from_slice(&["--metrics-out", &m_plain]);
        let out_plain = run_cli(&plain).unwrap();
        let mut one = base.to_vec();
        one.extend_from_slice(&["--shards", "1", "--metrics-out", &m_one]);
        let out_one = run_cli(&one).unwrap();
        assert_eq!(
            out_plain.replace(&m_plain, ""),
            out_one.replace(&m_one, ""),
            "--shards 1 must reproduce the unsharded run exactly"
        );
        assert_eq!(
            std::fs::read_to_string(&m_plain).unwrap(),
            std::fs::read_to_string(&m_one).unwrap()
        );
    }

    #[test]
    fn sharded_serve_crash_then_resume_matches_uninterrupted_run() {
        let net_path = tmp("shard_crash_net.csv");
        let trace_path = tmp("shard_crash_trace.csv");
        let dir = tmp("shard_crash_ckpts");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = format!("{dir}/shard.ckpt.json");
        let m_full = tmp("shard_crash_full.json");
        let m_resumed = tmp("shard_crash_resumed.json");
        let wall = tmp("shard_crash_wall.csv");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&[
            "gen-trace",
            "--dcs",
            "4",
            "--slots",
            "6",
            "--files",
            "1..2",
            "--out",
            &trace_path,
        ])
        .unwrap();
        let sharded = |extra: &[&str]| {
            let mut argv = vec![
                "serve",
                "--network",
                &net_path,
                "--trace",
                &trace_path,
                "--shards",
                "2",
                "--shard-by",
                "region",
            ];
            argv.extend_from_slice(extra);
            run_cli(&argv).unwrap()
        };
        // Uninterrupted sharded reference run (with wall metrics exported).
        sharded(&["--metrics-out", &m_full, "--wall-metrics-out", &wall]);
        let wall_csv = std::fs::read_to_string(&wall).unwrap();
        assert!(wall_csv.contains("solve_wall_seconds"), "{wall_csv}");
        // Crash after slot 3, then resume from the checkpoint.
        sharded(&["--checkpoint", &ckpt, "--stop-after-slot", "3"]);
        // The checkpoint is one file: no per-shard files next to it.
        let shard_files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".shard"))
            .collect();
        assert!(shard_files.is_empty(), "shard files next to the checkpoint: {shard_files:?}");
        let out = run_cli(&["resume", "--checkpoint", &ckpt, "--metrics-out", &m_resumed]).unwrap();
        assert!(out.contains("finished"), "{out}");
        let full = std::fs::read_to_string(&m_full).unwrap();
        let resumed = std::fs::read_to_string(&m_resumed).unwrap();
        let line = |s: &str, key: &str| {
            s.lines().find(|l| l.contains(key)).map(str::to_string).unwrap_or_default()
        };
        assert_eq!(line(&full, "\"bill_per_slot\""), line(&resumed, "\"bill_per_slot\""));
        assert_eq!(line(&full, "\"files_accepted\""), line(&resumed, "\"files_accepted\""));
    }

    #[test]
    fn analyze_model_fixtures_pass() {
        let out = run_cli(&["analyze", "model", "--fixtures"]).unwrap();
        assert!(out.contains("deadline-violating-arc-variable"), "{out}");
        assert!(out.contains("clean-builder-problem"), "{out}");
        assert!(!out.contains("FAILED"), "{out}");
    }

    #[test]
    fn analyze_model_accepts_generated_scenarios() {
        let net_path = tmp("analyze_net.csv");
        let trace_path = tmp("analyze_trace.csv");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&["gen-trace", "--dcs", "4", "--slots", "3", "--out", &trace_path]).unwrap();
        let out =
            run_cli(&["analyze", "model", "--network", &net_path, "--trace", &trace_path]).unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
        assert!(out.contains("checked"), "{out}");
    }

    #[test]
    fn trace_commands_reject_non_finite_sizes_naming_the_line() {
        // Regression: `schedule` and `analyze model` used a parser that let a
        // NaN or infinite size through, and then panicked building the
        // request; every command now reads traces through `Trace::from_csv`.
        let net_path = tmp("nonfinite_net.csv");
        run_cli(&["gen-network", "--dcs", "3", "--out", &net_path]).unwrap();
        for size in ["NaN", "inf"] {
            let trace_path = tmp(&format!("nonfinite_{size}.csv"));
            let text =
                format!("id,src,dst,size_gb,deadline_slots,release_slot\n1,0,1,{size},2,0\n");
            std::fs::write(&trace_path, text).unwrap();
            for command in [&["schedule"][..], &["analyze", "model"]] {
                let mut argv = command.to_vec();
                argv.extend_from_slice(&["--network", &net_path, "--trace", &trace_path]);
                match run_cli(&argv) {
                    Err(CliError::Run(m)) => {
                        assert_eq!(m, "trace line 2: size must be finite", "{argv:?}")
                    }
                    other => panic!("{argv:?} with size {size}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn analyze_src_deny_fails_on_bad_tree_and_passes_clean_one() {
        // A fake workspace with one float comparison in its root sources.
        let root = tmp("analyze_root");
        let src = std::path::Path::new(&root).join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("lib.rs"), "pub fn f(x: f64) -> bool { x == 1.0 }\n").unwrap();
        let out = run_cli(&["analyze", "src", "--root", &root]).unwrap();
        assert!(out.contains("PA101"), "{out}");
        let err = run_cli(&["analyze", "src", "--root", &root, "--deny"]);
        assert!(matches!(err, Err(CliError::Run(_))), "{err:?}");
        // Clean tree: no findings, --deny passes.
        std::fs::write(src.join("lib.rs"), "pub fn f(x: u64) -> bool { x == 1 }\n").unwrap();
        let out = run_cli(&["analyze", "src", "--root", &root, "--deny"]).unwrap();
        assert!(out.contains("0 error(s), 0 warning(s)"), "{out}");
    }

    #[test]
    fn serve_strict_runs_clean_workloads_unchanged() {
        let net_path = tmp("strict_net.csv");
        let trace_path = tmp("strict_trace.csv");
        let metrics_path = tmp("strict_metrics.csv");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&["gen-trace", "--dcs", "4", "--slots", "3", "--out", &trace_path]).unwrap();
        let out = run_cli(&[
            "serve",
            "--network",
            &net_path,
            "--trace",
            &trace_path,
            "--strict",
            "--metrics-out",
            &metrics_path,
        ])
        .unwrap();
        assert!(out.contains("finished"), "{out}");
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(!metrics.contains("analysis_rejections"), "no rejections: {metrics}");
    }

    #[test]
    fn serve_accepts_queue_capacity_and_max_requeue_flags() {
        let net_path = tmp("queue_net.csv");
        let trace_path = tmp("queue_trace.csv");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&["gen-trace", "--dcs", "4", "--slots", "3", "--out", &trace_path]).unwrap();
        let out = run_cli(&[
            "serve",
            "--network",
            &net_path,
            "--trace",
            &trace_path,
            "--queue-capacity",
            "16",
            "--max-requeue",
            "1",
        ])
        .unwrap();
        assert!(out.contains("finished"), "{out}");
        let err = run_cli(&[
            "serve",
            "--network",
            &net_path,
            "--trace",
            &trace_path,
            "--queue-capacity",
            "a-lot",
        ]);
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
    }

    #[test]
    fn serve_alap_admits_without_lp_and_reoptimizes_on_schedule() {
        let net_path = tmp("alap_net.csv");
        let trace_path = tmp("alap_trace.csv");
        let metrics_path = tmp("alap_metrics.csv");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&[
            "gen-trace",
            "--dcs",
            "4",
            "--slots",
            "4",
            "--files",
            "1..2",
            "--out",
            &trace_path,
        ])
        .unwrap();
        let out = run_cli(&[
            "serve",
            "--network",
            &net_path,
            "--trace",
            &trace_path,
            "--alap",
            "--reopt-every",
            "2",
            "--metrics-out",
            &metrics_path,
        ])
        .unwrap();
        assert!(out.contains("finished"), "{out}");
        assert!(!out.contains("fell back"), "scheduled reopts are not fallbacks: {out}");
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("alap_admits"), "{metrics}");
        assert!(metrics.contains("tier_chosen_alap"), "{metrics}");
        assert!(metrics.contains("admission_latency_seconds"), "{metrics}");
        // Off-schedule slots never reach the LP: the only way postcard is
        // chosen is a scheduled re-optimization, which is not a fallback.
        assert!(!metrics.contains("slots_on_fallback_tier"), "{metrics}");
        if metrics.contains("tier_chosen_postcard") {
            assert!(metrics.contains("lp_reoptimizations"), "{metrics}");
            assert!(out.contains("re-optimized with postcard"), "{out}");
        }
    }

    #[test]
    fn serve_alap_crash_then_resume_matches_uninterrupted_run() {
        let net_path = tmp("alap_crash_net.csv");
        let trace_path = tmp("alap_crash_trace.csv");
        let ckpt = tmp("alap_crash.ckpt.json");
        let m_full = tmp("alap_crash_full.json");
        let m_resumed = tmp("alap_crash_resumed.json");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&[
            "gen-trace",
            "--dcs",
            "4",
            "--slots",
            "6",
            "--files",
            "1..2",
            "--out",
            &trace_path,
        ])
        .unwrap();
        let alap_serve = |extra: &[&str]| {
            let mut argv = vec!["serve", "--network", &net_path, "--trace", &trace_path, "--alap"];
            argv.extend_from_slice(extra);
            run_cli(&argv).unwrap()
        };
        alap_serve(&["--metrics-out", &m_full]);
        alap_serve(&["--checkpoint", &ckpt, "--stop-after-slot", "3"]);
        let out = run_cli(&["resume", "--checkpoint", &ckpt, "--metrics-out", &m_resumed]).unwrap();
        assert!(out.contains("finished"), "{out}");
        // The residual grid is rebuilt from the snapshotted ledger, so the
        // resumed run's metrics (bill gauge included) match bit for bit.
        let full = std::fs::read_to_string(&m_full).unwrap();
        let resumed = std::fs::read_to_string(&m_resumed).unwrap();
        let line = |s: &str, key: &str| {
            s.lines().find(|l| l.contains(key)).map(str::to_string).unwrap_or_default()
        };
        assert_eq!(line(&full, "\"bill_per_slot\""), line(&resumed, "\"bill_per_slot\""));
        assert_eq!(line(&full, "\"alap_admits\""), line(&resumed, "\"alap_admits\""));
    }

    #[test]
    fn serve_rejects_bad_tier_and_fault_specs() {
        let err =
            run_cli(&["serve", "--network", "x", "--trace", "y", "--tiers", "postcard,quantum"]);
        assert!(matches!(err, Err(CliError::Usage(ref m)) if m.contains("quantum")), "{err:?}");
        let err = run_cli(&["serve", "--network", "x", "--trace", "y", "--degrade", "1:2"]);
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
        for bad in ["p95", "p0:48", "p101:48", "p95:0", "median", "p95:x"] {
            let err = run_cli(&["serve", "--network", "x", "--trace", "y", "--charging", bad]);
            assert!(
                matches!(err, Err(CliError::Usage(ref m)) if m.contains("charging spec")
                    || m.contains("percentile") || m.contains("window length")),
                "{bad}: {err:?}"
            );
        }
        let err = run_cli(&["serve", "--network", "x", "--trace", "y", "--price-change", "1:0"]);
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
        let err = run_cli(&["serve", "--network", "x", "--trace", "y", "--maintain", "3:1:0:1"]);
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
    }

    #[test]
    fn simulate_diurnal_renders_billing_comparison() {
        let out = run_cli(&["simulate", "--setting", "diurnal", "--seed", "5"]).unwrap();
        assert!(out.contains("billing comparison under p95:48"), "{out}");
        assert!(out.contains("max-charging"), "{out}");
        assert!(out.contains("p95-aware"), "{out}");
        let err = run_cli(&["simulate", "--setting", "diurnal", "--service"]);
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
    }

    #[test]
    fn serve_applies_price_changes_and_maintenance() {
        let net_path = tmp("fault_net.csv");
        let trace_path = tmp("fault_trace.csv");
        let metrics_path = tmp("fault_metrics.csv");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&[
            "gen-trace",
            "--dcs",
            "4",
            "--slots",
            "5",
            "--files",
            "1..2",
            "--out",
            &trace_path,
        ])
        .unwrap();
        let out = run_cli(&[
            "serve",
            "--network",
            &net_path,
            "--trace",
            &trace_path,
            "--price-change",
            "1:0:1:9.5",
            "--maintain",
            "2:4:0:1",
            "--metrics-out",
            &metrics_path,
        ])
        .unwrap();
        assert!(out.contains("finished"), "{out}");
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(metrics.contains("counter,price_changes_applied,0,1"), "{metrics}");
        assert!(metrics.contains("counter,maintenance_outages,0,1"), "{metrics}");
        assert!(metrics.contains("counter,maintenance_restores,0,1"), "{metrics}");
    }

    #[test]
    fn serve_p95_crash_mid_window_resumes_bit_identically() {
        // Kill a percentile-charged run in the middle of a billing window:
        // the resumed run must re-create the window accounting exactly
        // (snapshot v8 carries the full ledger, so the headroom rung sees
        // identical baselines and budgets).
        let net_path = tmp("p95_net.csv");
        let trace_path = tmp("p95_trace.csv");
        let ckpt = tmp("p95.ckpt.json");
        let m_full = tmp("p95_full.json");
        let m_resumed = tmp("p95_resumed.json");
        run_cli(&["gen-network", "--dcs", "4", "--capacity", "500", "--out", &net_path]).unwrap();
        run_cli(&[
            "gen-trace",
            "--dcs",
            "4",
            "--slots",
            "6",
            "--files",
            "1..3",
            "--out",
            &trace_path,
        ])
        .unwrap();
        let base = |extra: &[&str], metrics: &str| {
            // p75 over 4-slot windows: one free slot per window, a
            // window rollover at slot 4, and the crash below lands
            // mid-window. (p95:4 would have zero free slots — the
            // config validator rejects that pairing outright.)
            let mut argv = vec![
                "serve",
                "--network",
                &net_path,
                "--trace",
                &trace_path,
                "--charging",
                "p75:4",
            ];
            argv.extend_from_slice(extra);
            argv.extend_from_slice(&["--metrics-out", metrics]);
            run_cli(&argv).unwrap()
        };
        base(&[], &m_full);
        // Crash after slot 2 — inside the first 4-slot billing window.
        base(&["--checkpoint", &ckpt, "--stop-after-slot", "2"], &tmp("p95_scratch.json"));
        let out = run_cli(&["resume", "--checkpoint", &ckpt, "--metrics-out", &m_resumed]).unwrap();
        assert!(out.contains("finished"), "{out}");
        let full = std::fs::read_to_string(&m_full).unwrap();
        let resumed = std::fs::read_to_string(&m_resumed).unwrap();
        let line = |s: &str, key: &str| {
            s.lines().find(|l| l.contains(key)).map(str::to_string).unwrap_or_default()
        };
        assert_eq!(line(&full, "\"bill_per_slot\""), line(&resumed, "\"bill_per_slot\""));
        assert_eq!(line(&full, "files_accepted"), line(&resumed, "files_accepted"));
        assert_eq!(
            line(&full, "headroom_declined"),
            line(&resumed, "headroom_declined"),
            "window accounting resumed differently"
        );
    }

    #[test]
    fn resume_without_snapshot_reports_run_error() {
        let err = run_cli(&["resume", "--checkpoint", "/nonexistent/nope.json"]);
        assert!(matches!(err, Err(CliError::Run(_))), "{err:?}");
    }

    #[test]
    fn unknown_flag_is_reported() {
        let err = run_cli(&["gen-network", "--dcs", "3", "--frob", "1"]);
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("frob")));
        // The removed cross-slot solver switches are unknown flags too.
        for flag in ["warm-start", "incremental"] {
            let switch = format!("--{flag}");
            let err = run_cli(&["serve", "--network", "n", "--trace", "t", &switch, "--strict"]);
            assert!(matches!(err, Err(CliError::Usage(m)) if m.contains(flag)), "{flag}");
        }
    }

    #[test]
    fn bad_approach_is_reported() {
        let err = run_cli(&["schedule", "--network", "x", "--trace", "y", "--approach", "quantum"]);
        assert!(matches!(err, Err(CliError::Usage(m)) if m.contains("quantum")));
    }
}
