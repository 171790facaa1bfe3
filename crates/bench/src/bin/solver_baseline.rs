//! `solver-baseline` — cold vs warm slot-loop solver timings.
//!
//! ```text
//! solver-baseline [--quick] [--out PATH] [--check PATH]
//! ```
//!
//! Runs the figure presets and the paper-scale incremental sweep (see
//! `postcard_bench::solver_baseline`), prints summary tables, and optionally
//! writes the JSON report (`--out`) or gates against a committed baseline
//! (`--check`): cold pivot counts must stay within 20 % of the baseline,
//! warm must keep its ≥2x aggregate pivot advantage, warm/cold objectives
//! must agree to 1e-6 on every preset, and the paper sweep must hold its
//! ≤1e-9 delta/rebuild equivalence, ≥5× build speedup, and one rebuild per
//! run. Pivot counts are deterministic; timings are informational only.
//! The tables also print each figure preset's cold phase-1 pivots and each
//! paper preset's slot-0 cold pivots; those stay out of the JSON report and
//! are not gated.

use postcard_bench::solver_baseline::{check, run_all, BenchReport};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = argv.next(),
            "--check" => check_path = argv.next(),
            "--help" | "-h" => {
                println!("usage: solver-baseline [--quick] [--out PATH] [--check PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("solver-baseline: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let (report, notes) = run_all(quick);
    println!(
        "{:<22} {:>6} {:>12} {:>12} {:>12} {:>10} {:>10} {:>12}",
        "preset",
        "slots",
        "cold pivots",
        "cold phase1",
        "warm pivots",
        "cold ms",
        "warm ms",
        "max obj diff"
    );
    for (p, phase1) in report.presets.iter().zip(&notes.cold_phase1_pivots) {
        println!(
            "{:<22} {:>6} {:>12} {:>12} {:>12} {:>10.3} {:>10.3} {:>12.2e}",
            p.name,
            p.num_slots,
            p.cold.total_pivots,
            phase1,
            p.warm.total_pivots,
            p.cold.mean_ms,
            p.warm.mean_ms,
            p.max_objective_diff
        );
    }
    println!(
        "\n{:<14} {:>4} {:>5} {:>6} {:>11} {:>13} {:>9} {:>14} {:>11} {:>12}",
        "paper preset",
        "dcs",
        "runs",
        "slots",
        "delta build",
        "rebuild build",
        "speedup",
        "slot-0 pivots",
        "dual pivots",
        "max obj diff"
    );
    for (p, first_cold) in report.paper.iter().zip(&notes.paper_first_cold_pivots) {
        println!(
            "{:<14} {:>4} {:>5} {:>6} {:>8.3} ms {:>10.3} ms {:>8.1}x {:>14} {:>11} {:>12.2e}",
            p.name,
            p.num_dcs,
            p.runs,
            p.num_slots,
            p.delta_build.mean_ms,
            p.rebuild_build.mean_ms,
            p.build_speedup,
            first_cold,
            p.dual_simplex_iters,
            p.max_objective_diff
        );
    }

    if let Some(path) = out {
        let json = serde::json::to_string_pretty(&report);
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("solver-baseline: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("solver-baseline: failed to read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline: BenchReport = match serde::json::from_str(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("solver-baseline: malformed baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let failures = check(&report, &baseline);
        if failures.is_empty() {
            println!("check against {path}: OK");
        } else {
            for f in &failures {
                eprintln!("solver-baseline: FAIL: {f}");
            }
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}
