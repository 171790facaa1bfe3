//! `slotbench`: the end-to-end slot benchmark of the Postcard runtime.
//!
//! ```text
//! slotbench --workload <fig7-lp|alap-burst|p95-ckpt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its workload from the seed, replays every instance
//! once as the reference (checking the correctness gate after every slot),
//! then makes passes until `--seconds` have passed: each pass times a few
//! set-ups, then replays every instance again, timing every
//! `Runtime::run_slot` call from outside.
//! With `--trace 1` the timed replays are traced instead (see `trace.rs`)
//! and the per-layer metrics are reported. The last line of standard
//! output is one JSON object; see README.md for every metric.

mod gate;
mod stats;
mod trace;
mod workload;

use gate::{CapacityWatch, Outputs, SlotTally};
use stats::{beyond, median, quantile};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Instance, Workload};

const USAGE: &str = "usage: slotbench --workload <fig7-lp|alap-burst|p95-ckpt> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Set-ups timed before each timed or traced pass; `setup_s` is the
/// median over the whole run, so it sees the same machine as the slots.
const SETUP_REPS_PER_PASS: usize = 9;

/// Where a run keeps its checkpoints (removed at exit) and span files.
const RUN_ROOT: &str = ".bench_run";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A run's private directory, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create(args: &Args) -> Result<Self, String> {
        let path = Path::new(RUN_ROOT).join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One metric of the final JSON object.
type Metric = (&'static str, &'static str, f64);

/// What a run reports.
struct Report {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// Times `SETUP_REPS_PER_PASS` set-ups of every instance (parse the
/// generated inputs, then `Runtime::new`), in seconds.
fn time_setups(instances: &[Instance], samples: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_REPS_PER_PASS {
        let start = Instant::now();
        let runtimes = instances.iter().map(Instance::start).collect::<Result<Vec<_>, _>>()?;
        samples.push(start.elapsed().as_secs_f64());
        drop(black_box(runtimes));
    }
    Ok(())
}

/// Replays one instance with the correctness gate armed after every slot.
/// Returns the outputs, the gate's findings, and the serving time.
fn replay_reference(inst: &Instance) -> Result<(Outputs, Vec<String>, Duration), String> {
    let mut rt = inst.start()?;
    let mut watch = CapacityWatch::default();
    let mut tally = SlotTally::default();
    let mut serving = Duration::ZERO;
    loop {
        let slot = rt.next_slot();
        watch.before_slot(&rt);
        let start = Instant::now();
        let outcome = rt.run_slot().map_err(|e| format!("slot {slot}: {e}"))?;
        serving += start.elapsed();
        let Some(outcome) = outcome else { break };
        watch.after_slot(&rt, slot);
        tally.add(&rt, &outcome);
    }
    let out = gate::outputs(&rt, inst.files_offered(), &tally);
    let mut errors = gate::check_finished(&rt, &out);
    errors.extend(watch.violations().iter().take(5).cloned());
    Ok((out, errors, serving))
}

/// Replays one instance, timing every slot into `samples_ms`.
fn replay_timed(inst: &Instance, samples_ms: &mut Vec<f64>) -> Result<(Outputs, Duration), String> {
    let mut rt = inst.start()?;
    let mut tally = SlotTally::default();
    let mut serving = Duration::ZERO;
    loop {
        let start = Instant::now();
        let outcome = rt.run_slot().map_err(|e| e.to_string())?;
        let took = start.elapsed();
        let Some(outcome) = outcome else { break };
        serving += took;
        samples_ms.push(took.as_secs_f64() * 1e3);
        tally.add(&rt, &outcome);
    }
    Ok((gate::outputs(&rt, inst.files_offered(), &tally), serving))
}

/// Replays one instance under the tracer.
fn replay_traced(inst: &Instance, tracer: &mut Tracer) -> Result<Outputs, String> {
    let mut rt = inst.start()?;
    let mut tally = SlotTally::default();
    while let Some(outcome) = tracer.slot(&mut rt)? {
        tally.add(&rt, &outcome);
    }
    tracer.end_replay(&rt);
    Ok(gate::outputs(&rt, inst.files_offered(), &tally))
}

fn check_repeat(errors: &mut Vec<String>, instance: usize, got: &Outputs, want: &Outputs) {
    if got != want && errors.len() < 20 {
        errors.push(format!(
            "instance {instance}: a replay of the same inputs differs: {got:?} vs {want:?}"
        ));
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

fn run(args: &Args) -> Result<Report, String> {
    let run_dir = RunDir::create(args)?;
    let instances = args.workload.instances(args.seed, &run_dir.0);
    let offered: u64 = instances.iter().map(Instance::files_offered).sum();

    let mut errors = Vec::new();
    let mut reference = Vec::new();
    let mut reference_serving = Duration::ZERO;
    for inst in &instances {
        let (out, findings, serving) = replay_reference(inst)?;
        errors.extend(findings);
        reference.push(out);
        reference_serving += serving;
    }

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes = 0u32;
    let mut notes = Vec::new();
    let metrics = if args.trace {
        let mut tracer = Tracer::new(run_dir.0.join("traced-ckpt.json"));
        let mut traced = Duration::ZERO;
        while passes == 0 || started.elapsed() < budget {
            let pass_start = Instant::now();
            for (i, (inst, want)) in instances.iter().zip(&reference).enumerate() {
                tracer.begin_replay(passes, i);
                let got = replay_traced(inst, &mut tracer)?;
                check_repeat(&mut errors, i, &got, want);
            }
            traced += pass_start.elapsed();
            passes += 1;
        }
        errors.extend(tracer.mismatches().iter().take(5).cloned());
        let spans = Path::new(RUN_ROOT).join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tracer.write_spans(&spans).map_err(|e| format!("writing {}: {e}", spans.display()))?;
        notes.push(format!("spans of the first traced pass: {}", spans.display()));
        let overhead =
            stats::ratio(traced.as_secs_f64() / f64::from(passes), reference_serving.as_secs_f64());
        tracer.metrics(passes, overhead)
    } else {
        let mut samples = Vec::new();
        let mut serving = Duration::ZERO;
        // Set-ups are timed before every pass, after the reference replay
        // has warmed the heap: the median measures parsing and
        // construction, not first-touch page faults.
        let mut setups = Vec::new();
        while passes == 0 || started.elapsed() < budget {
            time_setups(&instances, &mut setups)?;
            for (i, (inst, want)) in instances.iter().zip(&reference).enumerate() {
                let (got, took) = replay_timed(inst, &mut samples)?;
                serving += took;
                check_repeat(&mut errors, i, &got, want);
            }
            passes += 1;
        }
        notes.push(format!(
            "{} timed slots over {passes} pass(es) of {} instance(s); {} beyond the p95",
            samples.len(),
            instances.len(),
            beyond(&samples, 0.95)
        ));
        let accepted: u64 = reference.iter().map(|o| o.accepted).sum();
        let bill =
            reference.iter().map(Outputs::bill_per_slot).sum::<f64>() / reference.len() as f64;
        vec![
            ("slot_p50_ms", "ms", quantile(&samples, 0.5)),
            ("slot_p95_ms", "ms", quantile(&samples, 0.95)),
            (
                "files_per_s",
                "1/s",
                stats::ratio((offered * u64::from(passes)) as f64, serving.as_secs_f64()),
            ),
            ("bill_per_slot", "usd/slot", bill),
            ("accept_ratio", "ratio", stats::ratio(accepted as f64, offered as f64)),
            ("setup_s", "s", median(&setups)),
            ("peak_rss_mb", "MB", peak_rss_mb()?),
        ]
    };

    // The reference replay plus every timed or traced pass.
    let replays = u64::from(passes) + 1;
    let failed_per_pass: u64 = reference.iter().map(Outputs::failed).sum();
    let lost_analysis: u64 = reference.iter().map(|o| o.lost_analysis).sum();
    notes.push(format!(
        "per pass: {offered} files offered, {} accepted, {} rejected, {lost_analysis} dropped by \
         strict analysis, {failed_per_pass} failed (lost without a verdict, plus degraded slots)",
        reference.iter().map(|o| o.accepted).sum::<u64>(),
        reference.iter().map(|o| o.rejected).sum::<u64>(),
    ));
    Ok(Report {
        errors,
        attempted: offered * replays,
        failed: failed_per_pass * replays,
        metrics,
        notes,
    })
}

fn json_line(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("slotbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("slotbench: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, _, value) in &report.metrics {
        if !value.is_finite() {
            report.errors.push(format!("metric {name} is not finite"));
        }
    }
    for (_, _, value) in &mut report.metrics {
        if !value.is_finite() {
            *value = 0.0;
        }
    }
    println!("slotbench {} seed {}:", args.workload.name(), args.seed);
    for (name, unit, value) in &report.metrics {
        println!("  {name:<26} {value:>14.6} {unit}");
    }
    for note in &report.notes {
        println!("  {note}");
    }
    for e in &report.errors {
        println!("  GATE FAILED: {e}");
    }
    let correct = report.errors.is_empty();
    println!("{}", json_line(correct, &report));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "p95-ckpt",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(args, Args { workload: Workload::P95Ckpt, seed: 9, seconds: 10, trace: true });
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(
            parse_args(&strings(&["--workload", "nope", "--seed", "1", "--seconds", "1"])).is_err()
        );
        assert!(parse_args(&strings(&["--workload", "fig7-lp", "--seed", "x", "--seconds", "1"]))
            .is_err());
        assert!(parse_args(&strings(&["--workload", "fig7-lp", "--seconds", "1"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
    }

    /// Short instances of `workload`, checkpointing into a per-test
    /// directory.
    fn short_instances(workload: Workload, seed: u64) -> (PathBuf, Vec<Instance>) {
        let dir = std::env::temp_dir().join(format!(
            "slotbench-test-{}-{}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("test directory");
        // p95-ckpt checkpoints once per 48-slot window: give it one.
        let slots = if workload == Workload::P95Ckpt { 50 } else { 24 };
        let instances = workload.instances_with_slots(seed, &dir, slots);
        (dir, instances)
    }

    #[test]
    fn replays_pass_the_gate_and_repeat_bit_for_bit() {
        for workload in Workload::ALL {
            let (dir, instances) = short_instances(workload, 5);
            for inst in instances.iter().take(2) {
                let (want, errors, _) = replay_reference(inst).expect("reference replay");
                assert!(errors.is_empty(), "{}: {errors:?}", workload.name());
                assert_eq!(want.offered, inst.files_offered());
                let mut samples = Vec::new();
                let (got, _) = replay_timed(inst, &mut samples).expect("timed replay");
                assert_eq!(got, want, "{}", workload.name());
                assert_eq!(samples.len() as u64, want.slots);
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn traced_replays_reach_the_runtime_decisions() {
        for workload in Workload::ALL {
            let (dir, instances) = short_instances(workload, 6);
            let mut tracer = Tracer::new(dir.join("traced.json"));
            for (i, inst) in instances.iter().take(2).enumerate() {
                let (want, _, _) = replay_reference(inst).expect("reference replay");
                tracer.begin_replay(0, i);
                let got = replay_traced(inst, &mut tracer).expect("traced replay");
                assert_eq!(got, want, "{}", workload.name());
            }
            assert!(
                tracer.mismatches().is_empty(),
                "{}: {:?}",
                workload.name(),
                tracer.mismatches()
            );
            let metrics = tracer.metrics(1, 1.0);
            assert_eq!(metrics.len(), 35);
            assert!(metrics.iter().all(|(_, _, v)| v.is_finite()));
            let value = |name: &str| metrics.iter().find(|m| m.0 == name).map(|m| m.2);
            match workload {
                Workload::Fig7Lp => assert!(value("lp.pivots") > Some(0.0)),
                Workload::AlapBurst => assert!(value("alap.admits") > Some(0.0)),
                Workload::P95Ckpt => assert!(value("snapshot.bytes") > Some(0.0)),
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let report = Report {
            errors: Vec::new(),
            attempted: 12,
            failed: 0,
            metrics: vec![("slot_p50_ms", "ms", 1.5), ("setup_s", "s", 0.25)],
            notes: Vec::new(),
        };
        assert_eq!(
            json_line(true, &report),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"slot_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
