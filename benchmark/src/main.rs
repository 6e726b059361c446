//! End-to-end benchmark of the MCSM stack.
//!
//! ```text
//! mcsm-e2e-bench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Characterizes the cell library (timed as set-up), generates the
//! workload's inputs from the seed, drives the program through its public
//! entry points as one client in a closed loop for at least `S` seconds of
//! whole rounds, checks every output, and prints a digest line and, last,
//! one JSON result line. `--trace 1` runs one round with span tracing armed,
//! replays the engine layer, writes a Chrome trace under `benchmark/out/`
//! and prints per-layer metrics instead. Workloads: `deep_transient`,
//! `eco_session`, `clocked_pipeline` (see README.md). Exits non-zero when
//! any check fails.

mod client;
mod clocked;
mod deep;
mod eco;
mod gen;
mod layers;
mod logic;
mod reference;
mod report;

use mcsm_cells::cell::CellKind;
use mcsm_cells::tech::Technology;
use mcsm_core::characterize::RegisterCharacterizationConfig;
use mcsm_core::config::CharacterizationConfig;
use mcsm_sta::models::ModelLibrary;
use report::{quantile, result_line, Run, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// What every workload gets.
pub struct Ctx {
    pub library: ModelLibrary,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// `VmHWM` / `VmRSS` of this process, MiB.
fn memory_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with(field))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The set-up `mcsm-serve` runs at start: 3 combinational and 2 register
/// kinds on the standard grids, one thread. Returns the library and the two
/// phase times.
fn characterize() -> Result<(ModelLibrary, f64, f64), String> {
    let _span = mcsm_obs::span("bench.setup");
    let technology = Technology::cmos_130nm();
    let started = Instant::now();
    let mut library = ModelLibrary::characterize_parallel(
        &technology,
        &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
        &CharacterizationConfig::standard(),
        1,
    )
    .map_err(|e| format!("characterization failed: {e}"))?;
    let comb_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    library
        .characterize_registers(
            &technology,
            &[CellKind::Dff, CellKind::DffRb],
            &RegisterCharacterizationConfig::standard(),
        )
        .map_err(|e| format!("register characterization failed: {e}"))?;
    Ok((library, comb_s, started.elapsed().as_secs_f64()))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("mcsm-e2e-bench: {message}");
            eprintln!(
                "usage: mcsm-e2e-bench --workload deep_transient|eco_session|clocked_pipeline \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::FAILURE;
        }
    };
    let workload: fn(&Ctx, &mut Run) -> Result<(), String> = match args.workload.as_str() {
        "deep_transient" => deep::run,
        "eco_session" => eco::run,
        "clocked_pipeline" => clocked::run,
        other => {
            eprintln!("mcsm-e2e-bench: unknown workload `{other}`");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        // Room for every span of a traced round; a dropped span fails the run.
        std::env::set_var("MCSM_TRACE_BUF", "4194304");
        mcsm_obs::set_metrics(true);
        mcsm_obs::set_trace(true);
    }

    let (library, comb_s, registers_s) = match characterize() {
        Ok(setup) => setup,
        Err(message) => {
            eprintln!("mcsm-e2e-bench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let setup_s = process_start.elapsed().as_secs_f64();
    let rss_setup = memory_mib("VmRSS:");
    let ctx = Ctx {
        library,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut run = Run::default();
    let workload_started = Instant::now();
    if let Err(message) = workload(&ctx, &mut run) {
        run.op::<()>(Err(message));
    }
    let workload_s = workload_started.elapsed().as_secs_f64();
    // Peak memory of the timed phase, read before the reference checks run.
    let peak_rss = memory_mib("VmHWM:");

    let accuracy = reference::compare(&ctx.library, args.seed);
    let accuracy = run.op(accuracy.and_then(|acc| match acc.failures.first() {
        None => Ok(acc),
        Some(first) => Err(format!("reference check: {first}")),
    }));
    if let Some(acc) = &accuracy {
        for &value in &acc.digest_values {
            run.digest.f64(Some(value));
        }
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        run.layer("characterize.comb_s", comb_s);
        run.layer("characterize.registers_s", registers_s);
        run.layer("spice.tran_s", accuracy.as_ref().map_or(0.0, |a| a.spice_s));
        run.layer("rss.setup_mib", rss_setup);
        run.layer("rss.growth_mib", (peak_rss - rss_setup).max(0.0));
        let (events, _) = mcsm_obs::span::collect();
        layers::report_netsim_spans(&events, &mut run);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let checked = layers::write_and_check(&path, &[]);
        if run.op(checked).is_some() {
            eprintln!(
                "mcsm-e2e-bench: traced round took {workload_s:.3} s; trace at {}",
                path.display()
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, run.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let values = [
            setup_s,
            run.work_units / run.work_seconds.max(f64::MIN_POSITIVE),
            quantile(&run.latencies_ms, 0.5),
            quantile(&run.latencies_ms, 0.9),
            peak_rss,
            accuracy.as_ref().map_or(0.0, |a| a.nrmse_max),
            accuracy
                .as_ref()
                .map_or(0.0, |a| a.arrival_err_max_s * 1e12),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    };
    let mut metrics = metrics;
    for (name, _, value) in &mut metrics {
        if !value.is_finite() {
            run.failures.push(format!("metric {name} is not finite"));
            *value = 0.0;
        }
    }
    eprintln!(
        "mcsm-e2e-bench: {} seed {}: {} latency samples, {:.3} work units/s, workload phase {workload_s:.1} s",
        args.workload,
        args.seed,
        run.latencies_ms.len(),
        run.work_units / run.work_seconds.max(f64::MIN_POSITIVE),
    );
    for failure in &run.failures {
        eprintln!("mcsm-e2e-bench: FAILED: {failure}");
    }
    println!(
        "digest {} {} {}",
        args.workload,
        args.seed,
        run.digest.hex()
    );
    println!("{}", result_line(&run, &metrics));
    if run.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
