//! Cold- vs warm-start slot-loop solver baseline, plus the paper-scale
//! incremental sweep.
//!
//! Replays a recurring batch shape through consecutive slots on figure-like
//! presets, solving each slot's Postcard LP twice — cold and warm-started
//! from the previous slot's optimal basis — against the *same* ledger (the
//! cold plan is the one committed, so both paths see the identical LP
//! sequence and their objectives are directly comparable). A second preset
//! family ([`paper_presets`]) runs the four figure settings at the paper's
//! 20-datacenter / 380-link scale through [`DeltaFormulation`], comparing
//! slot-over-slot model advance + dual-simplex re-solve against sampled
//! from-scratch rebuilds of the same model. The output
//! (`BENCH_solver.json`) records total pivots and wall-time percentiles per
//! preset; pivot counts are deterministic, so CI can gate on them while
//! ignoring machine-dependent timings.

use postcard_core::{
    solve_postcard_warm_with, solve_postcard_with, DeltaFormulation, PostcardConfig, SlotPrep,
};
use postcard_lp::Basis;
use postcard_net::{DcId, FileId, Network, TrafficLedger, TransferRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One benchmark preset: a network shape plus a recurring per-slot batch
/// pattern, sized after the paper's figure scenarios.
#[derive(Debug, Clone)]
pub struct PresetSpec {
    /// Preset name (stable across runs; used as the JSON key).
    pub name: &'static str,
    /// Number of datacenters in the complete network.
    pub num_dcs: usize,
    /// Files released every slot.
    pub files_per_slot: usize,
    /// Largest per-file deadline (slots); the pattern cycles 1..=this.
    pub max_deadline: usize,
    /// Number of consecutive slots to replay.
    pub num_slots: u64,
    /// Per-link capacity (ample, so the LP shape recurs slot over slot).
    pub capacity: f64,
    /// Seed for the network prices and the batch pattern.
    pub seed: u64,
}

/// The presets, scaled after fig. 4–7 of the paper (`--quick` halves the
/// slot count and trims the largest preset).
pub fn presets(quick: bool) -> Vec<PresetSpec> {
    let slots = if quick { 6 } else { 12 };
    let mut out = vec![
        PresetSpec {
            name: "fig4_deadline_sweep",
            num_dcs: 5,
            files_per_slot: 5,
            max_deadline: 3,
            num_slots: slots,
            capacity: 500.0,
            seed: 4,
        },
        PresetSpec {
            name: "fig5_file_count",
            num_dcs: 5,
            files_per_slot: 8,
            max_deadline: 2,
            num_slots: slots,
            capacity: 500.0,
            seed: 5,
        },
        PresetSpec {
            name: "fig6_file_size",
            num_dcs: 4,
            files_per_slot: 6,
            max_deadline: 3,
            num_slots: slots,
            capacity: 800.0,
            seed: 6,
        },
    ];
    if !quick {
        out.push(PresetSpec {
            name: "fig7_network_size",
            num_dcs: 8,
            files_per_slot: 6,
            max_deadline: 3,
            num_slots: slots,
            capacity: 800.0,
            seed: 7,
        });
    }
    out
}

/// Pivot count and wall-time summary of one solve path over a slot loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathSummary {
    /// Total simplex pivots across all slots (deterministic).
    pub total_pivots: u64,
    /// Mean per-solve wall time in milliseconds (machine-dependent).
    pub mean_ms: f64,
    /// Median per-solve wall time in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile per-solve wall time in milliseconds.
    pub p95_ms: f64,
}

/// Result of one preset's slot loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PresetResult {
    /// Preset name.
    pub name: String,
    /// Slots replayed.
    pub num_slots: u64,
    /// The cold path (phase-1 start every slot).
    pub cold: PathSummary,
    /// The warm path (previous slot's basis threaded forward).
    pub warm: PathSummary,
    /// Largest `|warm − cold|` objective difference over all slots — the
    /// equivalence gate (must stay below 1e-6).
    pub max_objective_diff: f64,
}

/// One paper-scale preset: the paper's 20-datacenter network with a
/// recurring batch shape, replayed slot-over-slot through the incremental
/// delta formulation and, at a sampling stride, through a from-scratch
/// rebuild of the same structural model (warm-solved from the same
/// inherited basis, so the comparison isolates model construction).
#[derive(Debug, Clone)]
pub struct PaperSpec {
    /// Preset name (stable across runs; used as the JSON key).
    pub name: &'static str,
    /// Datacenters in the complete network (paper: 20 → 380 links).
    pub num_dcs: usize,
    /// Files released every slot (recurring shape).
    pub files_per_slot: usize,
    /// Largest per-file deadline (slots); the pattern cycles 1..=this.
    pub max_deadline: usize,
    /// File-size range (GB); sized so the recurring load stays feasible
    /// under `capacity`.
    pub size_gb: (f64, f64),
    /// Slots per run.
    pub num_slots: u64,
    /// Independent runs (fresh prices, pattern, and ledger per run).
    pub runs: usize,
    /// Per-link capacity (GB/slot).
    pub capacity: f64,
    /// Seed for run 0; run `r` uses `seed + r`.
    pub seed: u64,
    /// From-scratch rebuilds are sampled every this-many slots (slot 0 is
    /// never sampled — the delta path's own first slot *is* a rebuild).
    /// Recorded in the JSON so the sampling is explicit, not silent.
    pub cold_stride: u64,
}

/// Wall-time summary of one phase (machine-dependent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Timed slots feeding this column (sampled phases cover a subset).
    pub samples: usize,
    /// Mean per-slot wall time in milliseconds.
    pub mean_ms: f64,
    /// Median per-slot wall time in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile per-slot wall time in milliseconds.
    pub p95_ms: f64,
}

fn phase(times_ms: &mut [f64]) -> PhaseSummary {
    let s = summarize(0, times_ms);
    PhaseSummary { samples: times_ms.len(), mean_ms: s.mean_ms, p50_ms: s.p50_ms, p95_ms: s.p95_ms }
}

/// Result of one paper-scale preset's sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperResult {
    /// Preset name.
    pub name: String,
    /// Datacenters (20 at paper scale).
    pub num_dcs: usize,
    /// Directed links (380 at paper scale).
    pub links: usize,
    /// Time-expanded layers (deadline horizon + release layer).
    pub layers: usize,
    /// Independent runs.
    pub runs: usize,
    /// Slots per run.
    pub num_slots: u64,
    /// Slots between sampled from-scratch rebuilds (1 = every slot; slot 0
    /// is never sampled — the delta path's own first slot *is* a rebuild).
    pub cold_stride: u64,
    /// Model-advance wall time on the delta path (rebase + RHS/bounds +
    /// refresh).
    pub delta_build: PhaseSummary,
    /// Dual-simplex re-solve wall time on the delta path.
    pub delta_solve: PhaseSummary,
    /// From-scratch structural build + standard-form wall time on the
    /// sampled rebuild path.
    pub rebuild_build: PhaseSummary,
    /// Solve wall time on the sampled rebuild path (warm-started from the
    /// same basis the delta path inherited — the production
    /// rebuild-every-slot configuration since warm starts landed).
    pub rebuild_solve: PhaseSummary,
    /// `rebuild_build.mean_ms / delta_build.mean_ms` — gated ≥ 5×.
    pub build_speedup: f64,
    /// Delta-path slots that advanced in place (all but the first of each
    /// run — deterministic, gated).
    pub delta_hits: u64,
    /// Delta-path slots that rebuilt (the first of each run —
    /// deterministic, gated).
    pub rebuilds: u64,
    /// Total dual-simplex pivots across all delta solves (deterministic).
    pub dual_simplex_iters: u64,
    /// Total pivots across the sampled rebuild solves (deterministic).
    pub rebuild_pivots: u64,
    /// Largest `|delta − rebuild|` objective difference over every sampled
    /// slot — the equivalence gate (must stay ≤ 1e-9 relative).
    pub max_objective_diff: f64,
}

/// The paper-scale presets: the four figure settings at the paper's
/// 20-datacenter / 380-link / `max T = 8` scale with a recurring batch
/// shape (the regime the delta formulation targets). `--quick` keeps the
/// network dimensions but trims runs and slots so the sweep fits the CI
/// budget; from-scratch rebuilds are sampled at a stride either way
/// (recorded in the JSON). Four files recur per slot — not the paper's
/// U[1,20] — because each run's *first* slot needs one genuinely cold
/// two-phase solve, and phase-1 degeneracy on this solver grows
/// super-linearly in the batch size at 20 datacenters; the network scale,
/// deadline horizons, and size/capacity ratios are untouched.
pub fn paper_presets(quick: bool) -> Vec<PaperSpec> {
    let (runs, slots, stride) = if quick { (2, 12, 6) } else { (10, 100, 10) };
    let urgent = 3;
    let patient = 8;
    vec![
        PaperSpec {
            name: "paper_fig4",
            num_dcs: 20,
            files_per_slot: 4,
            max_deadline: urgent,
            size_gb: (5.0, 15.0),
            num_slots: slots,
            runs,
            capacity: 100.0,
            seed: 40,
            cold_stride: stride,
        },
        PaperSpec {
            name: "paper_fig5",
            num_dcs: 20,
            files_per_slot: 4,
            max_deadline: patient,
            size_gb: (5.0, 15.0),
            num_slots: slots,
            runs,
            capacity: 100.0,
            seed: 50,
            cold_stride: stride,
        },
        PaperSpec {
            name: "paper_fig6",
            num_dcs: 20,
            files_per_slot: 4,
            max_deadline: urgent,
            size_gb: (1.0, 4.0),
            num_slots: slots,
            runs,
            capacity: 30.0,
            seed: 60,
            cold_stride: stride,
        },
        PaperSpec {
            name: "paper_fig7",
            num_dcs: 20,
            files_per_slot: 4,
            max_deadline: patient,
            size_gb: (1.0, 4.0),
            num_slots: slots,
            runs,
            capacity: 30.0,
            seed: 70,
            cold_stride: stride,
        },
    ]
}

/// Runs one paper-scale preset: every slot advances the standing delta
/// model and re-solves with the dual simplex; every `cold_stride`-th slot
/// (skipping slot 0, whose delta build *is* a from-scratch build)
/// additionally rebuilds the same model from scratch on a fresh
/// formulation and warm-solves it from the same inherited basis — the
/// production rebuild-every-slot configuration since warm starts landed
/// (PR 3). The delta plan is the one committed, so both paths always
/// price the identical LP, and the two independently built models must
/// agree to `max_objective_diff`. Also returns the pivots of each run's
/// first, cold solve (slot 0), which are printed but kept out of the JSON
/// report.
///
/// # Panics
///
/// Panics if a slot fails to solve — the presets are sized so the
/// recurring load is feasible.
pub fn run_paper_preset(spec: &PaperSpec) -> (PaperResult, u64) {
    let config = PostcardConfig { incremental: true, ..PostcardConfig::default() };
    let (mut delta_build_ms, mut delta_solve_ms) = (Vec::new(), Vec::new());
    let (mut rebuild_build_ms, mut rebuild_solve_ms) = (Vec::new(), Vec::new());
    let (mut delta_hits, mut rebuilds) = (0u64, 0u64);
    let (mut dual_iters, mut rebuild_pivots, mut first_cold_pivots) = (0u64, 0u64, 0u64);
    let mut max_objective_diff = 0.0f64;

    for run in 0..spec.runs {
        let seed = spec.seed + run as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let prices: Vec<f64> =
            (0..spec.num_dcs * spec.num_dcs).map(|_| rng.gen_range(1.0..=10.0)).collect();
        let mut i = 0;
        let network = Network::complete_with_prices(spec.num_dcs, spec.capacity, |_, _| {
            i += 1;
            prices[i - 1]
        });
        let pattern: Vec<(usize, usize, usize, f64)> = (0..spec.files_per_slot)
            .map(|k| {
                let src = rng.gen_range(0..spec.num_dcs);
                let mut dst = rng.gen_range(0..spec.num_dcs);
                while dst == src {
                    dst = rng.gen_range(0..spec.num_dcs);
                }
                let (lo, hi) = spec.size_gb;
                (src, dst, 1 + k % spec.max_deadline, rng.gen_range(lo..=hi))
            })
            .collect();

        let mut delta = DeltaFormulation::new(config.clone());
        let mut ledger = TrafficLedger::new(spec.num_dcs);
        for slot in 0..spec.num_slots {
            let files: Vec<TransferRequest> = pattern
                .iter()
                .enumerate()
                .map(|(k, &(src, dst, deadline, base))| {
                    // Same shape every slot (so the standing model advances in
                    // place) but sizes swing up to +30%: the RHS/bound refresh
                    // then genuinely displaces the inherited basis and the
                    // dual-simplex repair does real work instead of
                    // re-verifying an unchanged optimum.
                    let size = base * (1.0 + 0.1 * ((slot as usize + k) % 4) as f64);
                    TransferRequest::new(
                        FileId(slot * 1000 + k as u64),
                        DcId(src),
                        DcId(dst),
                        size,
                        deadline,
                        slot,
                    )
                })
                .collect();

            let t0 = Instant::now();
            let prep = delta
                .prepare_slot(&network, &files, &ledger)
                .unwrap_or_else(|e| panic!("{}: prepare failed at slot {slot}: {e}", spec.name));
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;
            // The basis the delta path inherits for this slot; the sampled
            // rebuild below warm-starts from the same point so the
            // comparison isolates model construction, not pivot counts.
            let basis_before = delta.standing_basis().cloned();
            let t0 = Instant::now();
            let inc = delta.solve_prepared(&network, &files, &ledger).unwrap_or_else(|e| {
                panic!("{}: delta solve failed at slot {slot}: {e}", spec.name)
            });
            let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
            dual_iters += inc.dual_iterations as u64;
            if slot == 0 {
                first_cold_pivots += inc.lp_iterations as u64;
            }
            if prep == SlotPrep::Delta {
                // Only true advances feed the build-speedup phase columns;
                // the first slot of a run is a from-scratch build by
                // definition and would dilute both sides.
                delta_build_ms.push(build_ms);
                delta_solve_ms.push(solve_ms);
            }

            if slot % spec.cold_stride == 0 && slot > 0 {
                let mut rb = DeltaFormulation::new(config.clone());
                let t0 = Instant::now();
                rb.prepare_slot(&network, &files, &ledger).unwrap_or_else(|e| {
                    panic!("{}: rebuild failed at slot {slot}: {e}", spec.name)
                });
                rebuild_build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if let Some(basis) = basis_before.clone() {
                    rb.seed_basis(basis);
                }
                let t0 = Instant::now();
                let re = rb.solve_prepared(&network, &files, &ledger).unwrap_or_else(|e| {
                    panic!("{}: rebuild solve failed at slot {slot}: {e}", spec.name)
                });
                rebuild_solve_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                rebuild_pivots += re.lp_iterations as u64 + re.dual_iterations as u64;
                let rel =
                    (inc.cost_per_slot - re.cost_per_slot).abs() / (1.0 + re.cost_per_slot.abs());
                max_objective_diff = max_objective_diff.max(rel);
            }

            // Commit the DELTA plan: it is the production path, and the
            // sampled rebuilds price the identical pre-commit ledger.
            inc.plan.apply_to_ledger(&mut ledger);
        }
        delta_hits += delta.delta_hits();
        rebuilds += delta.rebuilds();
    }

    let delta_build = phase(&mut delta_build_ms);
    let rebuild_build = phase(&mut rebuild_build_ms);
    let build_speedup =
        if delta_build.mean_ms > 0.0 { rebuild_build.mean_ms / delta_build.mean_ms } else { 0.0 };
    let result = PaperResult {
        name: spec.name.to_string(),
        num_dcs: spec.num_dcs,
        links: spec.num_dcs * (spec.num_dcs - 1),
        layers: spec.max_deadline + 1,
        runs: spec.runs,
        num_slots: spec.num_slots,
        cold_stride: spec.cold_stride,
        delta_build,
        delta_solve: phase(&mut delta_solve_ms),
        rebuild_build,
        rebuild_solve: phase(&mut rebuild_solve_ms),
        build_speedup,
        delta_hits,
        rebuilds,
        dual_simplex_iters: dual_iters,
        rebuild_pivots,
        max_objective_diff,
    };
    (result, first_cold_pivots)
}

/// The whole benchmark report (`BENCH_solver.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// One entry per preset.
    pub presets: Vec<PresetResult>,
    /// One entry per paper-scale preset (delta vs cold rebuild). The
    /// vendored serde shim treats missing fields as errors, so adding this
    /// field is a baseline format break: `BENCH_solver.json` is regenerated
    /// alongside it.
    pub paper: Vec<PaperResult>,
}

fn summarize(total_pivots: u64, times_ms: &mut [f64]) -> PathSummary {
    times_ms.sort_by(f64::total_cmp);
    let n = times_ms.len();
    let mean = if n == 0 { 0.0 } else { times_ms.iter().sum::<f64>() / n as f64 };
    let pick = |q: f64| {
        if n == 0 {
            0.0
        } else {
            times_ms[(((n as f64) * q) as usize).min(n - 1)]
        }
    };
    PathSummary { total_pivots, mean_ms: mean, p50_ms: pick(0.50), p95_ms: pick(0.95) }
}

/// Runs one preset's slot loop and summarizes both paths. Also returns the
/// phase-1 pivots of the cold solves, which are printed but kept out of
/// the JSON report.
///
/// # Panics
///
/// Panics if a slot's LP fails to solve — the presets are sized with ample
/// capacity precisely so every batch is feasible.
pub fn run_preset(spec: &PresetSpec) -> (PresetResult, u64) {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let prices: Vec<f64> =
        (0..spec.num_dcs * spec.num_dcs).map(|_| rng.gen_range(1.0..=10.0)).collect();
    let mut i = 0;
    let network = Network::complete_with_prices(spec.num_dcs, spec.capacity, |_, _| {
        i += 1;
        prices[i - 1]
    });
    // The recurring (src, dst, deadline, base size) pattern: the same shape
    // every slot so consecutive LPs share dimensions; only sizes vary.
    let pattern: Vec<(usize, usize, usize, f64)> = (0..spec.files_per_slot)
        .map(|k| {
            let src = rng.gen_range(0..spec.num_dcs);
            let mut dst = rng.gen_range(0..spec.num_dcs);
            while dst == src {
                dst = rng.gen_range(0..spec.num_dcs);
            }
            (src, dst, 1 + k % spec.max_deadline, rng.gen_range(5.0..=20.0))
        })
        .collect();

    let config = PostcardConfig::default();
    let mut ledger = TrafficLedger::new(spec.num_dcs);
    let mut warm_basis: Option<Basis> = None;
    let (mut cold_pivots, mut warm_pivots, mut cold_phase1) = (0u64, 0u64, 0u64);
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    let mut max_objective_diff = 0.0f64;

    for slot in 0..spec.num_slots {
        let files: Vec<TransferRequest> = pattern
            .iter()
            .enumerate()
            .map(|(k, &(src, dst, deadline, base))| {
                // Mild slot-over-slot drift: recurring traffic whose volumes
                // wobble a few percent, the regime warm starts target. Large
                // swings would push the inherited basis primal-infeasible
                // and degrade every solve to cold.
                let size = base * (1.0 + 0.02 * ((slot as usize + k) % 4) as f64);
                TransferRequest::new(
                    FileId(slot * 1000 + k as u64),
                    DcId(src),
                    DcId(dst),
                    size,
                    deadline,
                    slot,
                )
            })
            .collect();

        let t0 = Instant::now();
        let cold = solve_postcard_with(&network, &files, &ledger, &config)
            .unwrap_or_else(|e| panic!("{}: cold solve failed at slot {slot}: {e}", spec.name));
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        cold_pivots += cold.lp_iterations as u64;
        cold_phase1 += cold.phase1_iterations as u64;

        let t0 = Instant::now();
        let warm =
            solve_postcard_warm_with(&network, &files, &ledger, &config, warm_basis.as_ref())
                .unwrap_or_else(|e| panic!("{}: warm solve failed at slot {slot}: {e}", spec.name));
        warm_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        warm_pivots += warm.lp_iterations as u64;

        max_objective_diff =
            max_objective_diff.max((warm.cost_per_slot - cold.cost_per_slot).abs());
        warm_basis = warm.basis;
        // Commit the COLD plan: both paths see the identical ledger (and
        // therefore the identical LP) at every slot.
        cold.plan.apply_to_ledger(&mut ledger);
    }

    let result = PresetResult {
        name: spec.name.to_string(),
        num_slots: spec.num_slots,
        cold: summarize(cold_pivots, &mut cold_ms),
        warm: summarize(warm_pivots, &mut warm_ms),
        max_objective_diff,
    };
    (result, cold_phase1)
}

/// Per-preset pivot counts that `solver-baseline` prints beside the
/// report. They stay out of [`BenchReport`], so its JSON and [`check`] are
/// unaffected.
#[derive(Debug, Clone)]
pub struct PivotNotes {
    /// Per figure preset, in report order: phase-1 pivots of the cold
    /// solves.
    pub cold_phase1_pivots: Vec<u64>,
    /// Per paper preset, in report order: pivots of each run's first, cold
    /// solve (slot 0), summed over runs.
    pub paper_first_cold_pivots: Vec<u64>,
}

/// Runs every preset, including the paper-scale sweep.
pub fn run_all(quick: bool) -> (BenchReport, PivotNotes) {
    let (presets, cold_phase1_pivots) = presets(quick).iter().map(run_preset).unzip();
    let (paper, paper_first_cold_pivots) =
        paper_presets(quick).iter().map(run_paper_preset).unzip();
    (BenchReport { presets, paper }, PivotNotes { cold_phase1_pivots, paper_first_cold_pivots })
}

/// Checks a fresh report against the committed baseline: cold pivots must
/// not regress more than 20 % on any preset the baseline knows, warm must
/// keep its ≥2x aggregate pivot advantage, and warm/cold objectives must
/// agree to 1e-6 on every preset. The paper-scale sweep gates on
/// delta/rebuild objective equivalence (≤ 1e-9 relative), a ≥5×
/// delta-build speedup over the from-scratch build, exactly one rebuild
/// per run, and no dual-pivot regression over 20 %. Returns the failures
/// (empty = pass).
pub fn check(current: &BenchReport, baseline: &BenchReport) -> Vec<String> {
    let mut failures = Vec::new();
    for cur in &current.presets {
        if cur.max_objective_diff > 1e-6 {
            failures.push(format!(
                "{}: warm/cold objective diff {} exceeds 1e-6",
                cur.name, cur.max_objective_diff
            ));
        }
        if let Some(base) = baseline.presets.iter().find(|p| p.name == cur.name) {
            let limit = (base.cold.total_pivots as f64 * 1.2).ceil() as u64;
            if cur.cold.total_pivots > limit {
                failures.push(format!(
                    "{}: cold pivots regressed {} -> {} (>20% over baseline)",
                    cur.name, base.cold.total_pivots, cur.cold.total_pivots
                ));
            }
        } else {
            failures.push(format!("{}: preset missing from baseline", cur.name));
        }
    }
    let cold_total: u64 = current.presets.iter().map(|p| p.cold.total_pivots).sum();
    let warm_total: u64 = current.presets.iter().map(|p| p.warm.total_pivots).sum();
    if warm_total * 2 > cold_total {
        failures.push(format!("warm pivots {warm_total} not at least 2x below cold {cold_total}"));
    }
    for cur in &current.paper {
        if cur.max_objective_diff > 1e-9 {
            failures.push(format!(
                "{}: delta/rebuild objective diff {:.3e} exceeds 1e-9",
                cur.name, cur.max_objective_diff
            ));
        }
        if cur.build_speedup < 5.0 {
            failures.push(format!(
                "{}: delta build only {:.1}x faster than from-scratch \
                 ({:.3} ms vs {:.3} ms mean) — below the 5x gate",
                cur.name, cur.build_speedup, cur.delta_build.mean_ms, cur.rebuild_build.mean_ms
            ));
        }
        if cur.rebuilds != cur.runs as u64 {
            failures.push(format!(
                "{}: {} rebuild(s) across {} runs (expected exactly one per run)",
                cur.name, cur.rebuilds, cur.runs
            ));
        }
        if let Some(base) = baseline.paper.iter().find(|p| p.name == cur.name) {
            let limit = (base.dual_simplex_iters as f64 * 1.2).ceil() as u64;
            if cur.dual_simplex_iters > limit {
                failures.push(format!(
                    "{}: dual pivots regressed {} -> {} (>20% over baseline)",
                    cur.name, base.dual_simplex_iters, cur.dual_simplex_iters
                ));
            }
        } else {
            failures.push(format!("{}: paper preset missing from baseline", cur.name));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PresetSpec {
        PresetSpec {
            name: "tiny",
            num_dcs: 4,
            files_per_slot: 4,
            max_deadline: 2,
            num_slots: 6,
            capacity: 500.0,
            seed: 1,
        }
    }

    #[test]
    fn preset_run_is_deterministic_in_pivots() {
        let (a, a_phase1) = run_preset(&tiny());
        let (b, b_phase1) = run_preset(&tiny());
        assert_eq!(a_phase1, b_phase1);
        assert_eq!(a.cold.total_pivots, b.cold.total_pivots);
        assert_eq!(a.warm.total_pivots, b.warm.total_pivots);
        assert_eq!(a.max_objective_diff, b.max_objective_diff);
    }

    #[test]
    fn warm_path_matches_cold_objectives_and_pivots_less() {
        let (r, phase1) = run_preset(&tiny());
        assert!(phase1 <= r.cold.total_pivots);
        assert!(r.max_objective_diff < 1e-6, "diff {}", r.max_objective_diff);
        assert!(
            r.warm.total_pivots < r.cold.total_pivots,
            "warm {} >= cold {}",
            r.warm.total_pivots,
            r.cold.total_pivots
        );
    }

    fn tiny_paper() -> PaperSpec {
        PaperSpec {
            name: "tiny_paper",
            num_dcs: 6,
            files_per_slot: 3,
            max_deadline: 3,
            size_gb: (5.0, 15.0),
            num_slots: 4,
            runs: 2,
            // Tight enough that committed traffic binds link peaks: the
            // slot-over-slot RHS refresh then displaces the inherited basis
            // and the dual simplex actually pivots (a slack capacity would
            // re-verify the old basis in zero pivots).
            capacity: 20.0,
            seed: 9,
            cold_stride: 2,
        }
    }

    #[test]
    fn check_catches_pivot_regressions() {
        let (good, _) = run_preset(&tiny());
        let report = BenchReport { presets: vec![good.clone()], paper: Vec::new() };
        assert!(check(&report, &report).is_empty(), "{:?}", check(&report, &report));
        let mut regressed = report.clone();
        regressed.presets[0].cold.total_pivots = good.cold.total_pivots * 2;
        let failures = check(&regressed, &report);
        assert!(failures.iter().any(|f| f.contains("regressed")), "{failures:?}");
        let unknown = BenchReport {
            presets: vec![PresetResult { name: "other".into(), ..good.clone() }],
            paper: Vec::new(),
        };
        assert!(!check(&unknown, &report).is_empty());
    }

    #[test]
    fn paper_preset_matches_rebuild_and_advances_every_later_slot() {
        let (r, first_cold) = run_paper_preset(&tiny_paper());
        assert!(first_cold > 0, "each run's first slot solves cold");
        assert!(r.max_objective_diff <= 1e-9, "diff {:.3e}", r.max_objective_diff);
        assert_eq!(r.rebuilds, 2, "one from-scratch build per run");
        assert_eq!(r.delta_hits, 2 * 3, "every later slot advances in place");
        assert!(r.dual_simplex_iters > 0, "the delta path must pivot dually");
        // 4 slots at stride 2, slot 0 excluded: exactly slot 2 is sampled
        // per run, so the rebuild comparison actually ran.
        assert_eq!(r.rebuild_build.samples, 2, "one sampled rebuild per run");
        let (again, _) = run_paper_preset(&tiny_paper());
        assert_eq!(r.dual_simplex_iters, again.dual_simplex_iters, "pivots are deterministic");
        assert_eq!(r.rebuild_pivots, again.rebuild_pivots);
    }

    #[test]
    fn check_gates_paper_equivalence_speedup_and_rebuilds() {
        let (good, _) = run_paper_preset(&tiny_paper());
        let report = BenchReport { presets: Vec::new(), paper: vec![good.clone()] };

        let mut drifted = good.clone();
        drifted.max_objective_diff = 1e-6;
        let failures = check(&BenchReport { presets: Vec::new(), paper: vec![drifted] }, &report);
        assert!(failures.iter().any(|f| f.contains("exceeds 1e-9")), "{failures:?}");

        let mut slow = good.clone();
        slow.build_speedup = 2.0;
        let failures = check(&BenchReport { presets: Vec::new(), paper: vec![slow] }, &report);
        assert!(failures.iter().any(|f| f.contains("below the 5x gate")), "{failures:?}");

        let mut churning = good.clone();
        churning.rebuilds = good.runs as u64 + 3;
        let failures = check(&BenchReport { presets: Vec::new(), paper: vec![churning] }, &report);
        assert!(
            failures.iter().any(|f| f.contains("expected exactly one per run")),
            "{failures:?}"
        );

        let mut pivoty = good.clone();
        pivoty.dual_simplex_iters = good.dual_simplex_iters * 2 + 10;
        let failures = check(&BenchReport { presets: Vec::new(), paper: vec![pivoty] }, &report);
        assert!(failures.iter().any(|f| f.contains("dual pivots regressed")), "{failures:?}");
    }

    #[test]
    fn report_json_round_trips() {
        let report = BenchReport {
            presets: vec![run_preset(&tiny()).0],
            paper: vec![run_paper_preset(&tiny_paper()).0],
        };
        let json = serde::json::to_string_pretty(&report);
        let back: BenchReport = serde::json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn baselines_without_the_paper_sweep_are_rejected() {
        // The vendored serde shim treats a missing field as an error, so a
        // pre-paper-sweep baseline fails the typed decode loudly instead of
        // silently skipping the new gates.
        let err = serde::json::from_str::<BenchReport>(r#"{"presets": []}"#).unwrap_err();
        assert!(format!("{err}").contains("paper"), "{err}");
    }
}
