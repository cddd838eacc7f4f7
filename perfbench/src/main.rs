//! The netart benchmark harness: runs one workload for a fixed time and
//! prints its measurements as one JSON line.
//!
//! ```text
//! netart-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  --work-dir <dir> [--netart <path to the netart binary>]
//! ```
//!
//! Untraced runs (`--trace 0`) time the pipeline as users run it and
//! install no subscriber. Traced runs (`--trace 1`) call each layer in
//! turn inside spans of the harness's own, record the program's own
//! spans with `TraceEventSubscriber` at DEBUG, and report the split.
//! `perfbench/run.py` builds this harness and drives it.

mod design;
mod rss;
mod schedule;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use netart::obs::{Json, TraceEventSubscriber};
use netart::Generator;
use netart_workloads::text::{self, TextWorkload};

use design::{Counts, Inputs};

/// Set-ups per run, `setup_s` being their median: at least
/// `SETUP_MIN_REPS`, then more until they have taken `SETUP_MIN_S` in
/// all. A single short set-up reads mostly the machine's state at that
/// instant; a second of them reads the set-up.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    netart: Option<PathBuf>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name, value);
        }
        let get = |name: &str| {
            flags
                .get(name)
                .copied()
                .ok_or_else(|| format!("missing --{name}"))
        };
        let args = Args {
            workload: get("workload")?.to_owned(),
            seed: get("seed")?
                .parse()
                .map_err(|_| "--seed must be an integer")?,
            seconds: get("seconds")?
                .parse()
                .map_err(|_| "--seconds must be a number")?,
            trace: match get("trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
            work_dir: PathBuf::from(get("work-dir")?),
            netart: flags.get("netart").map(PathBuf::from),
        };
        if !(args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".to_owned());
        }
        Ok(args)
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (designs, parses or requests).
    pub attempted: u64,
    /// Operations that failed, including failed correctness checks.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
    /// Every figure measured, by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Counts that must repeat exactly across runs of the workload.
    pub determinism: BTreeMap<String, Json>,
    /// Lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one failed operation.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(error);
        }
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Err(format!("panicked: {msg}"))
    })
}

/// A design workload's input generator and its pipeline configuration
/// (`None` for the parse-only workload).
type DesignWorkload = (fn() -> TextWorkload, Option<Generator>);

/// The design workloads' fixed inputs and configuration.
fn design_workload(name: &str) -> Option<DesignWorkload> {
    Some(match name {
        // 250 cells, 476 nets, the spaced preset: routing is ~99% of it.
        "route_spaced" => (
            || text::cell_array(10, 25),
            Some(netart_bench::life_auto_generator()),
        ),
        // 1000 cells, 1961 nets, the serve/batch/stress default (the
        // committed `cells_1k` baseline): PABLO is a third of it.
        "cells_1k" => (|| text::cell_array(25, 40), Some(Generator::new())),
        // ~10^5 cells, 8.4 MiB of text: read and doctored only.
        "ingest_100k" => (|| text::cell_array(316, 317), None),
        _ => return None,
    })
}

/// Runs `once(i)` as [`SETUP_MIN_REPS`] and [`SETUP_MIN_S`] say,
/// dropping each result but the last before the next set-up starts.
/// Returns the last result and the median time of one set-up.
pub fn repeat_set_up<T>(
    mut once: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(last.take());
        let t = Instant::now();
        last = Some(once(times.len())?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("SETUP_MIN_REPS is positive");
    Ok((last.expect("SETUP_MIN_REPS is positive"), median))
}

/// Set-up of a design workload, repeated as [`repeat_set_up`] says:
/// generate the text, write it over the previous set-up's files and
/// load the module library.
fn set_up_design(make: fn() -> TextWorkload, work_dir: &Path) -> Result<(Inputs, f64), String> {
    repeat_set_up(|_| design::set_up(&make(), &work_dir.join("inputs")))
}

fn remove_inputs(inputs: &Inputs) {
    if let Some(dir) = inputs.paths.lib.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Compares `counts` with the first design's, failing the run on any
/// difference.
fn guard_counts(report: &mut Report, first: &mut Option<Counts>, counts: Counts) {
    match first {
        None => *first = Some(counts),
        Some(f) if *f == counts => {}
        Some(f) => report.fail(format!("determinism: counts {counts:?} differ from {f:?}")),
    }
}

fn run_design_workload(args: &Args, report: &mut Report) -> Result<(), String> {
    let (make, generator) = design_workload(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let (inputs, setup_s) = set_up_design(make, &args.work_dir)?;
    report.set("setup_s", setup_s);
    let outcome = if args.trace {
        run_traced(args, &inputs, generator.as_ref(), report)
    } else {
        run_untraced(args, &inputs, generator.as_ref(), report)
    };
    remove_inputs(&inputs);
    outcome
}

/// The effort counts of a design that the emitted text does not show.
fn route_effort(outcome: &netart::Outcome) -> (usize, u64) {
    let stats = &outcome.report.net_stats;
    (
        outcome.report.routed.len(),
        stats.iter().map(|s| s.nodes_expanded).sum(),
    )
}

/// Times designs (or parses) until `--seconds` have passed. The first
/// design is checked in full after the clock stops; every later one
/// must emit byte-identical artwork with the same routing effort.
fn run_untraced(
    args: &Args,
    inputs: &Inputs,
    generator: Option<&Generator>,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<(netart::Outcome, design::Emitted)> = None;
    let mut charged: Option<u64> = None;
    while walls.is_empty() && report.attempted < 3 || start.elapsed().as_secs_f64() < args.seconds {
        report.attempted += 1;
        match generator {
            Some(g) => match guarded(|| design::run_design(inputs, g)) {
                Ok((wall, outcome, out)) => {
                    walls.push(wall.as_secs_f64());
                    match &first {
                        None => first = Some((outcome, out)),
                        Some((o, f)) if route_effort(o) == route_effort(&outcome) && *f == out => {}
                        Some(_) => report.fail(
                            "determinism: a repeated design emitted different artwork".to_owned(),
                        ),
                    }
                }
                Err(e) => report.fail(e),
            },
            None => match guarded(|| design::run_parse(inputs)) {
                Ok((wall, bytes)) => {
                    walls.push(wall.as_secs_f64());
                    if *charged.get_or_insert(bytes) != bytes {
                        report.fail(format!(
                            "determinism: charged {bytes} bytes, first parse {charged:?}"
                        ));
                    }
                }
                Err(e) => report.fail(e),
            },
        }
        if report.attempted == 1 {
            // The peak of one operation: later ones run while the first
            // design is held for its check.
            report.set("peak_rss_mb", rss::vm_hwm_mb(None)?);
        }
    }
    report
        .notes
        .push(format!("{} operation(s) timed: {walls:.4?} s", walls.len()));
    if let Some(w) = stats::median(&walls) {
        report.set("wall_s", w);
    }
    let counts = match first {
        Some((outcome, out)) => {
            match guarded(|| {
                let d = &outcome.diagram;
                design::check(d, &d.check(), &outcome.report, &out)
            }) {
                Ok(c) => Some(c),
                Err(e) => {
                    report.fail(e);
                    None
                }
            }
        }
        None => None,
    };
    report.set(
        "failed_frac",
        report.failed as f64 / report.attempted as f64,
    );
    record_counts(report, inputs, counts, charged);
    Ok(())
}

/// Puts the deterministic counts in the report: quality metrics and
/// the determinism guard's object.
fn record_counts(
    report: &mut Report,
    inputs: &Inputs,
    counts: Option<Counts>,
    charged: Option<u64>,
) {
    report
        .determinism
        .insert("modules".to_owned(), Json::from(inputs.modules));
    report
        .determinism
        .insert("nets".to_owned(), Json::from(inputs.nets));
    if let Some(bytes) = charged {
        report
            .determinism
            .insert("charged_bytes".to_owned(), Json::from(bytes));
    }
    if let Some(c) = counts {
        report.set("routed_frac", c.routed as f64 / c.nets as f64);
        report.set("total_bends", c.total_bends as f64);
        report.set("crossovers", c.crossovers as f64);
        report.set("total_length", c.total_length as f64);
        if let Some(obj) = c.to_json().as_obj() {
            for (k, v) in obj {
                report.determinism.insert(k.clone(), v.clone());
            }
        }
    }
}

fn run_traced(
    args: &Args,
    inputs: &Inputs,
    generator: Option<&Generator>,
    report: &mut Report,
) -> Result<(), String> {
    let (subscriber, buffer) = TraceEventSubscriber::new(tracing::Level::DEBUG);
    tracing::set_global_default(subscriber).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let mut totals = Vec::new();
    let mut per_design: Vec<design::LayerMetrics> = Vec::new();
    let mut first: Option<Counts> = None;
    while totals.is_empty() && report.attempted < 3 || start.elapsed().as_secs_f64() < args.seconds
    {
        report.attempted += 1;
        match guarded(|| design::run_traced(inputs, generator, &buffer)) {
            Ok((total, m, counts)) => {
                totals.push(total);
                per_design.push(m);
                if let Some(c) = counts {
                    guard_counts(report, &mut first, c);
                }
            }
            Err(e) => report.fail(e),
        }
    }
    // Peak growth shows only on the first parse of the process.
    let first_only = ["netlist.rss_growth_mb", "govern.charge_ratio"];
    if let Some(m0) = per_design.first() {
        for (name, _) in m0.iter() {
            let values: Vec<f64> = per_design
                .iter()
                .filter_map(|m| m.get(name).copied())
                .collect();
            let v = if first_only.contains(name) {
                values[0]
            } else {
                stats::median(&values).unwrap_or(0.0)
            };
            report.set(name, v);
        }
    }
    if let Some(t) = stats::median(&totals) {
        report.set("traced_total_s", t);
        let layer = |names: &[&str]| -> f64 {
            names
                .iter()
                .map(|n| report.metrics.get(*n).copied().unwrap_or(0.0))
                .sum()
        };
        let split = [
            ("netlist", layer(&["netlist.doctor_s"])),
            ("place", layer(&["place.pablo_s"])),
            ("route", layer(&["route.eureka_s"])),
            (
                "diagram",
                t - layer(&["netlist.doctor_s", "place.pablo_s", "route.eureka_s"]),
            ),
        ];
        let shares: Vec<String> = split
            .iter()
            .map(|(n, s)| format!("{n} {:.1}%", 100.0 * s / t))
            .collect();
        report
            .notes
            .push(format!("traced split of {t:.4} s: {}", shares.join(", ")));
    }
    report.set("peak_rss_mb", rss::vm_hwm_mb(None)?);
    report.set(
        "failed_frac",
        report.failed as f64 / report.attempted as f64,
    );
    let charged = generator
        .is_none()
        .then(|| {
            report
                .metrics
                .get("netlist.charged_mb")
                .map(|mb| (mb * 1024.0 * 1024.0).round() as u64)
        })
        .flatten();
    record_counts(report, inputs, first, charged);
    Ok(())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("netart-perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("netart-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("netart-perfbench: {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let t = Instant::now();
    let outcome = match args.workload.as_str() {
        "serve_mixed" => serve::run(&args, &mut report),
        _ => run_design_workload(&args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("netart-perfbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    for line in &report.notes {
        println!("# {line}");
    }
    for e in &report.errors {
        println!("# error: {e}");
    }
    let metrics = report
        .metrics
        .iter()
        .fold(Json::obj(), |j, (k, v)| j.with(k, *v));
    let determinism = report
        .determinism
        .iter()
        .fold(Json::obj(), |j, (k, v)| j.with(k, v.clone()));
    let out = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("trace", args.trace)
        .with("attempted", report.attempted)
        .with("failed", report.failed)
        .with("correct", report.failed == 0)
        .with("elapsed_s", t.elapsed().as_secs_f64())
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with("profile", "release")
        .with("metrics", metrics)
        .with("determinism", determinism);
    println!("{}", out.render());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = Args::parse(&argv(
            "--workload cells_1k --seed 7 --seconds 5 --trace 1 --work-dir w",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("cells_1k", 7, true)
        );
        assert!(Args::parse(&argv(
            "--workload x --seed 1 --seconds 5 --trace 2 --work-dir w"
        ))
        .is_err());
        assert!(Args::parse(&argv("--workload x --seed 1 --seconds 5 --trace 0")).is_err());
    }

    #[test]
    fn every_design_workload_is_known() {
        for name in ["route_spaced", "cells_1k", "ingest_100k"] {
            assert!(design_workload(name).is_some(), "{name}");
        }
        assert!(design_workload("serve_mixed").is_none());
    }

    #[test]
    fn a_small_design_passes_every_check() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let inputs = design::set_up(&text::cell_array(2, 3), &dir).unwrap();
        let (_, outcome, out) = design::run_design(&inputs, &Generator::new()).unwrap();
        let d = &outcome.diagram;
        let counts = design::check(d, &d.check(), &outcome.report, &out).unwrap();
        assert_eq!(counts.routed, counts.nets);
        let (_, again, again_out) = design::run_design(&inputs, &Generator::new()).unwrap();
        assert!(out == again_out, "designs repeat exactly");
        assert_eq!(route_effort(&outcome), route_effort(&again));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
