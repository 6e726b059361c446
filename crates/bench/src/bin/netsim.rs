//! The `netsim` experiment binary: times the event-driven netlist transient
//! simulator over generated chains, trees and random DAGs per model family
//! and writes `BENCH_netsim.json`.
//!
//! ```text
//! netsim [--threads N] [--out PATH] [--min-speedup X] [--min-gates-per-sec R]
//! ```
//!
//! * `--threads N` — worker threads for the parallel passes (default `0` =
//!   auto from `MCSM_THREADS` / the machine).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_netsim.json` in the working directory).
//! * `--min-speedup X` — CI perf gate: exit non-zero unless the aggregate
//!   sequential-over-parallel speedup of the full-activity tree/DAG cases is
//!   at least `X` (chains are width-1, so level parallelism cannot apply to
//!   them; bit-identity failures always exit non-zero).
//! * `--min-gates-per-sec R` — CI throughput floor: exit non-zero unless the
//!   complete-MCSM full-activity chain with the most gates
//!   (`nand_chain_48` in fast mode) runs at least `R` gates per second.
//!   Set well below the committed figure, it trips on a several-fold
//!   slowdown of the engine or its drive lookups, not on a slow runner.
//!
//! `MCSM_BENCH_FAST=1` shrinks sizes and grids for smoke runs.

use mcsm_bench::{run_netsim_sweep, write_json_report, NetsimSweepOptions};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    threads: usize,
    out: PathBuf,
    min_speedup: Option<f64>,
    min_gates_per_sec: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        threads: 0,
        out: PathBuf::from("BENCH_netsim.json"),
        min_speedup: None,
        min_gates_per_sec: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--min-speedup" => {
                args.min_speedup = Some(
                    value("--min-speedup")?
                        .parse()
                        .map_err(|e| format!("--min-speedup: {e}"))?,
                );
            }
            "--min-gates-per-sec" => {
                args.min_gates_per_sec = Some(
                    value("--min-gates-per-sec")?
                        .parse()
                        .map_err(|e| format!("--min-gates-per-sec: {e}"))?,
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
            eprintln!("netsim: {message}");
            return ExitCode::FAILURE;
        }
    };

    let options = NetsimSweepOptions::for_threads(args.threads);
    println!(
        "# netsim experiment: sizes {:?}, {} threads{}",
        options.sizes,
        mcsm_num::par::resolve_threads(args.threads),
        if mcsm_bench::fast_mode() {
            " (fast mode)"
        } else {
            ""
        }
    );
    let report = match run_netsim_sweep(&options) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("netsim: experiment failed: {error}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "family | topology | circuit | activity | gates | simulated | skipped | seq s | par s | gates/s | speedup | identical"
    );
    for case in &report.cases {
        println!(
            "{} | {} | {} | {} | {} | {} | {} | {:.4} | {:.4} | {:.1} | {:.2}x | {}",
            case.family,
            case.topology,
            case.circuit,
            case.activity,
            case.gates,
            case.gates_simulated,
            case.gates_skipped,
            case.seq_seconds,
            case.par_seconds,
            case.gates_per_second(),
            case.speedup(),
            case.bit_identical,
        );
    }
    println!(
        "overall speedup (full-activity cases): {:.2}x",
        report.overall_speedup()
    );
    println!(
        "parallel speedup (full-activity trees/DAGs): {:.2}x",
        report.parallel_speedup()
    );

    if let Err(message) = write_json_report(&args.out, &report.to_json()) {
        eprintln!("netsim: {message}");
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out.display());

    if !report.all_identical() {
        eprintln!("netsim: parallel waveforms differ from the sequential run");
        return ExitCode::FAILURE;
    }
    if let Some(min) = args.min_speedup {
        let speedup = report.parallel_speedup();
        if speedup < min {
            eprintln!("netsim: parallel speedup {speedup:.2}x is below the {min:.2}x gate");
            return ExitCode::FAILURE;
        }
    }
    if let Some(min) = args.min_gates_per_sec {
        let Some(case) = report.floor_case() else {
            eprintln!("netsim: no complete-MCSM full-activity chain to check the gates/s floor on");
            return ExitCode::FAILURE;
        };
        let rate = case.gates_per_second();
        if rate < min {
            eprintln!(
                "netsim: {} (complete_mcsm, full) ran {rate:.1} gates/s, below the {min:.1} gates/s floor",
                case.circuit
            );
            return ExitCode::FAILURE;
        }
        println!(
            "gates/s floor: {} (complete_mcsm, full) {rate:.1} >= {min:.1}",
            case.circuit
        );
    }
    ExitCode::SUCCESS
}
