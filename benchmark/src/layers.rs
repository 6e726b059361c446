//! Per-layer measurement for traced runs: replaying netsim's gate solves
//! through the engine, timing drive evaluation on the same handoffs, reading
//! the program's own spans and counters, and writing and checking the trace.

use crate::report::{mean, ms_since, Run};
use mcsm_core::sim::DriveWaveform;
use mcsm_net::{NetRef, Netlist};
use mcsm_netsim::{effective_load, NetsimResult, DEFAULT_EVENT_THRESHOLD};
use mcsm_obs::SpanEvent;
use mcsm_sta::delaycalc::{DelayCache, DelayCalculator};
use mcsm_sta::models::ModelLibrary;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Engine and drive-evaluation figures gathered by [`replay`].
#[derive(Debug, Default)]
pub struct Replay {
    pub solves: u64,
    pub solve_s: f64,
    pub steps: u64,
    pub lut_evals: u64,
    pub drive_evals: u64,
    pub drive_eval_s: f64,
    pub pwl_drives: u64,
    pub pwl_samples: u64,
}

impl Replay {
    pub fn report(&self, run: &mut Run) {
        let solves = self.solves.max(1) as f64;
        run.layer("core.solve_ms", self.solve_s * 1e3 / solves);
        run.layer(
            "core.step_ns",
            self.solve_s * 1e9 / self.steps.max(1) as f64,
        );
        run.layer("core.steps", self.steps as f64 / solves);
        run.layer("core.lut_evals", self.lut_evals as f64 / solves);
        run.layer(
            "drive.eval_ns",
            self.drive_eval_s * 1e9 / self.drive_evals.max(1) as f64,
        );
        run.layer(
            "drive.samples",
            self.pwl_samples as f64 / self.pwl_drives.max(1) as f64,
        );
    }
}

fn counter(name: &str) -> u64 {
    mcsm_obs::global().snapshot().counter(name)
}

/// Replays every gate netsim solved in `result` (a full-retention run of
/// `netlist` under `drives`): rebuilds each gate's handoff drives and
/// effective load exactly as netsim does, re-solves it through
/// [`DelayCalculator::gate_output`], and requires the bits to match netsim's
/// output. Also times [`DriveWaveform::eval`] over those handoffs at the
/// engine's step times.
///
/// # Errors
///
/// Names the first gate whose replay differs from netsim or fails.
pub fn replay(
    netlist: &Netlist,
    library: &ModelLibrary,
    drives: &HashMap<NetRef, DriveWaveform>,
    calculator: &DelayCalculator,
    primary_output_load: f64,
    result: &NetsimResult,
    acc: &mut Replay,
) -> Result<(), String> {
    let _span = mcsm_obs::span("bench.replay");
    let cache = DelayCache::new();
    // Each net's handoff as netsim commits it: primary inputs keep their
    // drive; eventful outputs hand their samples on, quiet ones a DC level.
    let mut handoff: Vec<Option<(DriveWaveform, bool)>> = vec![None; netlist.net_count()];
    for (&net, drive) in drives {
        let swing = (0..=64)
            .map(|k| drive.eval(calculator.sim.t_stop * f64::from(k) / 64.0))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
        let active = swing.1 - swing.0 >= DEFAULT_EVENT_THRESHOLD;
        handoff[net.index()] = Some((drive.clone(), active));
    }
    for level in netlist.levels().iter() {
        for &gate in level {
            let out = netlist.output_of(gate);
            let produced = result
                .waveform(out)
                .ok_or("replay needs a full-retention run")?;
            let mut inputs = Vec::with_capacity(2);
            let mut any_active = false;
            for &net in netlist.inputs_of(gate) {
                let (drive, active) = handoff[net.index()]
                    .clone()
                    .ok_or("replay reached a gate before its drivers")?;
                any_active |= active;
                inputs.push(drive);
            }
            let active = any_active
                && produced.max_value() - produced.min_value() >= DEFAULT_EVENT_THRESHOLD;
            handoff[out.index()] = Some(if active {
                (DriveWaveform::from_waveform(produced.clone()), true)
            } else {
                (DriveWaveform::dc(produced.final_value()), false)
            });
            if !any_active {
                continue; // netsim resolved this gate to DC without the engine
            }
            let kind = netlist.gate_kind(gate);
            let load = effective_load(netlist, library, &cache, out, primary_output_load)
                .map_err(|e| e.to_string())?;
            let store = library.store(kind).map_err(|e| e.to_string())?;
            let (steps0, luts0) = (counter("core.sim.steps"), counter("core.sim.lut_evals"));
            let started = Instant::now();
            let replayed = calculator
                .gate_output(store, kind, &inputs, load)
                .map_err(|e| format!("replay of `{}` failed: {e}", netlist.gate_name(gate)))?;
            acc.solve_s += started.elapsed().as_secs_f64();
            acc.steps += counter("core.sim.steps") - steps0;
            acc.lut_evals += counter("core.sim.lut_evals") - luts0;
            acc.solves += 1;
            if replayed.times() != produced.times() || replayed.values() != produced.values() {
                return Err(format!(
                    "replayed solve of gate `{}` differs from netsim's output",
                    netlist.gate_name(gate)
                ));
            }
            let times = replayed.times();
            let started = Instant::now();
            let mut sum = 0.0;
            for drive in &inputs {
                for &t in times {
                    sum += drive.eval(t);
                }
            }
            black_box(sum);
            acc.drive_eval_s += started.elapsed().as_secs_f64();
            acc.drive_evals += (inputs.len() * times.len()) as u64;
            for drive in &inputs {
                if let DriveWaveform::Pwl(w) = drive {
                    acc.pwl_drives += 1;
                    acc.pwl_samples += w.len() as u64;
                }
            }
        }
    }
    Ok(())
}

/// Times the netlist IR on each netlist the way the server meets it:
/// `Netlist::from_json_str` (what `load_netlist` runs) and
/// `Netlist::levels`; reports the means.
///
/// # Errors
///
/// A netlist that does not parse back.
pub fn time_netlist_ir(run: &mut Run, netlists: &[&Netlist]) -> Result<(), String> {
    let mut build_ms = Vec::new();
    let mut levelize_ms = Vec::new();
    for netlist in netlists {
        let json = netlist.to_json_string();
        let started = Instant::now();
        let built = {
            let _span = mcsm_obs::span("bench.net.build");
            Netlist::from_json_str(&json).map_err(|e| e.to_string())?
        };
        build_ms.push(ms_since(started));
        let started = Instant::now();
        {
            let _span = mcsm_obs::span("bench.net.levelize");
            black_box(built.levels());
        }
        levelize_ms.push(ms_since(started));
    }
    run.layer("net.build_ms", mean(&build_ms));
    run.layer("net.levelize_ms", mean(&levelize_ms));
    Ok(())
}

/// Counter and gauge readings taken before a traced phase, so the phase's
/// own activity can be reported as deltas.
pub struct Counters(mcsm_obs::Snapshot);

impl Counters {
    pub fn now() -> Self {
        Counters(mcsm_obs::global().snapshot())
    }

    fn delta(&self, name: &str) -> f64 {
        (counter(name) - self.0.counter(name)) as f64
    }

    /// Per-run netsim activity since `self`: solved and skipped gates per
    /// run, the skip ratio, recoveries, and the live-waveform high-water mark.
    pub fn report_netsim(&self, run: &mut Run) {
        let runs = self.delta("netsim.runs").max(1.0);
        let solved = self.delta("netsim.gates_simulated");
        let skipped = self.delta("netsim.gates_skipped");
        run.layer("netsim.gates_solved", solved / runs);
        run.layer("netsim.gates_skipped", skipped / runs);
        run.layer(
            "netsim.skip_ratio",
            if solved + skipped > 0.0 {
                skipped / (solved + skipped)
            } else {
                0.0
            },
        );
        run.layer("netsim.recoveries", self.delta("netsim.recoveries"));
        let peak = mcsm_obs::global()
            .snapshot()
            .gauges
            .iter()
            .find(|(name, _)| name == "netsim.peak_live_waveforms")
            .map_or(0.0, |(_, v)| *v);
        run.layer("netsim.peak_live_waveforms", peak);
    }

    /// Engine figures where the solves run inside the server and cannot be
    /// replayed: time in the program's `netsim.gate` spans (memo lookups
    /// included) per engine call, and the engine's own step and LUT
    /// counters.
    pub fn report_core(&self, run: &mut Run) {
        let calls = self.delta("core.sim.calls").max(1.0);
        let steps = self.delta("core.sim.steps");
        let (events, _) = mcsm_obs::span::collect();
        let gate_s: f64 = events
            .iter()
            .filter(|e| e.name == "netsim.gate")
            .map(|e| (e.end_ns - e.start_ns) as f64 * 1e-9)
            .sum();
        run.layer("core.solve_ms", gate_s * 1e3 / calls);
        run.layer("core.step_ns", gate_s * 1e9 / steps.max(1.0));
        run.layer("core.steps", steps / calls);
        run.layer("core.lut_evals", self.delta("core.sim.lut_evals") / calls);
    }
}

/// Memo figures from a `stats` answer's `waveform_cache` block.
pub fn report_memo(stats: &mcsm_num::json::JsonValue, run: &mut Run) {
    let cache = stats.get("waveform_cache");
    let field = |k: &str| {
        cache
            .and_then(|c| c.get(k))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    let (hits, misses) = (field("hits"), field("misses"));
    run.layer("memo.hits", hits);
    run.layer("memo.misses", misses);
    run.layer("memo.hit_ratio", hits / (hits + misses).max(1.0));
    run.layer("memo.entries", field("len"));
}

/// Mean `netsim.run` span duration and mean self time (the run minus its
/// `netsim.gate` solves), from the program's own spans.
pub fn report_netsim_spans(events: &[SpanEvent], run: &mut Run) {
    let by_id: HashMap<u64, &SpanEvent> = events.iter().map(|e| (e.id, e)).collect();
    let mut gate_ns: HashMap<u64, u64> = HashMap::new();
    for event in events.iter().filter(|e| e.name == "netsim.gate") {
        // gate -> level -> run
        let run_id = by_id
            .get(&event.parent)
            .map(|level| level.parent)
            .unwrap_or(0);
        *gate_ns.entry(run_id).or_default() += event.end_ns - event.start_ns;
    }
    let mut run_ms = Vec::new();
    let mut self_ms = Vec::new();
    for event in events.iter().filter(|e| e.name == "netsim.run") {
        let total = event.end_ns - event.start_ns;
        let solves = gate_ns.get(&event.id).copied().unwrap_or(0);
        run_ms.push(total as f64 / 1e6);
        self_ms.push(total.saturating_sub(solves) as f64 / 1e6);
    }
    run.layer("netsim.run_ms", mean(&run_ms));
    run.layer("netsim.self_ms", mean(&self_ms));
}

/// Span names every traced run must contain: the benchmark's own, plus the
/// program's netsim spans.
pub const REQUIRED_SPANS: [&str; 4] = [
    "bench.setup",
    "bench.workload",
    "bench.reference",
    "netsim.run",
];

/// Writes the Chrome trace and runs the repository's `trace_check` on it
/// with [`REQUIRED_SPANS`] and the workload's own span names required.
///
/// # Errors
///
/// A failed write, build or check.
pub fn write_and_check(path: &Path, extra: &[&str]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let summary = mcsm_obs::write_trace(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if summary.dropped > 0 {
        return Err(format!("trace dropped {} spans", summary.dropped));
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let mut command = Command::new(cargo);
    command
        .args([
            "run",
            "--release",
            "--quiet",
            "--bin",
            "trace_check",
            "--manifest-path",
        ])
        .arg(&manifest)
        .arg("--")
        .arg(path)
        .args(["--min-spans", "10"]);
    for name in REQUIRED_SPANS.iter().chain(extra) {
        command.args(["--require", name]);
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start trace_check: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stdout));
    if output.status.success() {
        Ok(())
    } else {
        Err(format!(
            "trace_check rejected {}: {}",
            path.display(),
            String::from_utf8_lossy(&output.stderr).trim()
        ))
    }
}
