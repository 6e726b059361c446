//! The `sim_hotpath` experiment binary: times the cursor-accelerated LUT fast
//! path against the retained allocating reference path, per model family and
//! drive form (analytic ramps, and the same ramps as PWL drives on the
//! engine's time grid), and writes `BENCH_sim.json`.
//!
//! ```text
//! sim_hotpath [--out PATH] [--min-speedup X] [--max-obs-overhead PCT]
//! ```
//!
//! * `--out PATH` — where to write the JSON report (default `BENCH_sim.json`
//!   in the working directory).
//! * `--min-speedup X` — CI perf gate: exit non-zero unless the fast path is
//!   at least `X` times faster than the reference path overall (and every
//!   family's outputs are bit-identical across the paths).
//! * `--max-obs-overhead PCT` — CI observability gate: re-run the
//!   complete-MCSM workload with `mcsm-obs` disarmed vs armed (interleaved,
//!   best-of) and exit non-zero if arming costs more than `PCT` percent —
//!   the "tracing is free when off" guarantee, measured within one process
//!   so shared-runner noise cancels.
//!
//! `MCSM_BENCH_FAST=1` shrinks circuits and grids for smoke runs.

use mcsm_bench::{measure_obs_overhead, run_sim_hotpath, write_json_report, SimHotpathOptions};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    out: PathBuf,
    min_speedup: Option<f64>,
    max_obs_overhead: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::from("BENCH_sim.json"),
        min_speedup: None,
        max_obs_overhead: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--min-speedup" => {
                args.min_speedup = Some(
                    value("--min-speedup")?
                        .parse()
                        .map_err(|e| format!("--min-speedup: {e}"))?,
                );
            }
            "--max-obs-overhead" => {
                args.max_obs_overhead = Some(
                    value("--max-obs-overhead")?
                        .parse()
                        .map_err(|e| format!("--max-obs-overhead: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sim_hotpath: {message}");
            return ExitCode::FAILURE;
        }
    };

    let options = SimHotpathOptions::default_sweep();
    println!(
        "# sim_hotpath experiment: LUT fast path vs reference{}",
        if mcsm_bench::fast_mode() {
            " (fast mode)"
        } else {
            ""
        }
    );
    let report = match run_sim_hotpath(&options) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("sim_hotpath: experiment failed: {error}");
            return ExitCode::FAILURE;
        }
    };

    println!("gates per family pass: {}", report.gates);
    for case in &report.cases {
        println!(
            "{:>13} {:>4}: {:.0} steps/s fast vs {:.0} steps/s reference ({:.2}x, {:.2}M evals/s, bit-identical: {})",
            case.family,
            case.drives,
            case.fast_steps_per_second(),
            case.reference_steps_per_second(),
            case.speedup(),
            case.fast_evals_per_second() / 1e6,
            case.bit_identical,
        );
    }
    println!("overall speedup: {:.2}x", report.overall_speedup());

    if let Err(message) = write_json_report(&args.out, &report.to_json()) {
        eprintln!("sim_hotpath: {message}");
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out.display());

    if !report.all_identical() {
        eprintln!("sim_hotpath: fast-path results differ from the reference path");
        return ExitCode::FAILURE;
    }
    if let Some(min) = args.min_speedup {
        let speedup = report.overall_speedup();
        if speedup < min {
            eprintln!("sim_hotpath: overall speedup {speedup:.2}x is below the {min:.2}x gate");
            return ExitCode::FAILURE;
        }
    }
    if let Some(max) = args.max_obs_overhead {
        let overhead = match measure_obs_overhead(&options) {
            Ok(overhead) => overhead,
            Err(error) => {
                eprintln!("sim_hotpath: obs-overhead measurement failed: {error}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "obs overhead: {:.2}% (disarmed {:.3}s, armed {:.3}s)",
            overhead.overhead_percent(),
            overhead.disabled_seconds,
            overhead.armed_seconds
        );
        if overhead.overhead_percent() > max {
            eprintln!(
                "sim_hotpath: obs overhead {:.2}% exceeds the {max:.2}% gate",
                overhead.overhead_percent()
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
