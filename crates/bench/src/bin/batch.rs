//! The `batch` experiment binary: times whole-library characterization,
//! sequential vs parallel, and writes `BENCH_batch.json`.
//!
//! ```text
//! batch [--threads N] [--out PATH] [--min-speedup X]
//! ```
//!
//! * `--threads N` — worker threads for the parallel passes (default `0` =
//!   auto from `MCSM_THREADS` / the machine).
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_batch.json` in the working directory).
//! * `--min-speedup X` — CI perf gate: exit non-zero unless the parallel
//!   characterization is at least `X` times faster than sequential (and its
//!   stores are bit-identical to the sequential reference).
//!
//! `MCSM_BENCH_FAST=1` shrinks grids for smoke runs.

use mcsm_bench::{run_batch, write_json_report, BatchOptions};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    threads: usize,
    out: PathBuf,
    min_speedup: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        threads: 0,
        out: PathBuf::from("BENCH_batch.json"),
        min_speedup: None,
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
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("batch: {message}");
            return ExitCode::FAILURE;
        }
    };

    let options = BatchOptions::for_threads(args.threads);
    println!(
        "# batch experiment: {} cells, {} threads{}",
        options.kinds.len(),
        mcsm_num::par::resolve_threads(args.threads),
        if mcsm_bench::fast_mode() {
            " (fast mode)"
        } else {
            ""
        }
    );
    let report = match run_batch(&options) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("batch: experiment failed: {error}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "characterization: {:.2}s sequential, {:.2}s on {} threads ({:.2}x, bit-identical: {})",
        report.characterize_sequential_seconds,
        report.characterize_parallel_seconds,
        report.threads,
        report.characterize_speedup(),
        report.characterization_identical,
    );

    if let Err(message) = write_json_report(&args.out, &report.to_json()) {
        eprintln!("batch: {message}");
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out.display());

    if !report.characterization_identical {
        eprintln!("batch: parallel results differ from sequential results");
        return ExitCode::FAILURE;
    }
    if let Some(min) = args.min_speedup {
        let speedup = report.characterize_speedup();
        if speedup < min {
            eprintln!("batch: characterization speedup {speedup:.2}x is below the {min:.2}x gate");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
