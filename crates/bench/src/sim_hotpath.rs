//! The `sim_hotpath` experiment: engine throughput of the LUT fast path.
//!
//! The runtime cost of a current-source model is dominated by lookup-table
//! evaluations — every explicit/predictor–corrector sub-step (paper
//! Eqs. (4)–(5)) queries the current, Miller-cap and internal-cap tables. This
//! experiment replays every gate of the generated chain/tree/dag netlists
//! (`mcsm-net` generators, the same circuits the `netsim` sweep times) through
//! the generic simulation engine **twice per model family**: once on the
//! cursor-accelerated allocation-free fast path ([`EvalMode::Fast`]) and once
//! on the retained allocating `LutNd::eval` reference path
//! ([`EvalMode::Reference`]). Every family runs twice more with each ramp
//! rendered on the engine's time grid as a PWL drive
//! ([`DriveWaveform::from_waveform`]), the form netsim hands a driver's
//! output to its fanout, so the sampled-drive lookup is timed too. It
//! reports engine steps/sec and LUT evals/sec per family and drive form,
//! checks the two paths **bit-identical**, and the `sim_hotpath` binary
//! gates CI on a minimum fast-over-reference speedup (`BENCH_sim.json`).
//!
//! Honors `MCSM_BENCH_FAST=1` (see [`crate::report::fast_mode`]).

use crate::netsim::sweep_netlists;
use crate::report::fast_or;
use mcsm_cells::cell::CellKind;
use mcsm_cells::tech::Technology;
use mcsm_core::config::CharacterizationConfig;
use mcsm_core::eval::EvalMode;
use mcsm_core::model::CellModel;
use mcsm_core::sim::{simulate, CsmSimOptions, DriveWaveform, SimResult};
use mcsm_num::json::JsonValue;
use mcsm_spice::waveform::Waveform;
use mcsm_sta::models::ModelLibrary;
use mcsm_sta::StaError;
use std::sync::Arc;
use std::time::Instant;

/// Model families the experiment times, in report order.
pub const HOTPATH_FAMILIES: [&str; 3] = ["sis", "baseline_mis", "complete_mcsm"];

/// Drive forms each family runs with, in report order: analytic ramps, and
/// the same ramps as PWL drives sampled on the engine's time grid.
pub const HOTPATH_DRIVES: [&str; 2] = ["ramp", "pwl"];

/// Configuration of one sim-hotpath run.
#[derive(Debug, Clone)]
pub struct SimHotpathOptions {
    /// Gate budgets for the generated circuits (one chain/tree/dag triple per
    /// entry, shared with the `netsim` sweep's generators).
    pub sizes: Vec<usize>,
    /// Characterization grids for the model library.
    pub config: CharacterizationConfig,
    /// Time step of the per-gate engine runs (seconds).
    pub dt: f64,
    /// Simulated window per gate (seconds).
    pub t_stop: f64,
    /// Timed repetitions per (family, mode) pass; best (minimum) wall clock
    /// is reported.
    pub repeats: usize,
}

impl SimHotpathOptions {
    /// The default sweep; `MCSM_BENCH_FAST=1` shrinks circuits and coarsens
    /// grids/steps so the smoke run finishes in seconds.
    pub fn default_sweep() -> Self {
        SimHotpathOptions {
            sizes: fast_or(vec![6, 12], vec![16, 48]),
            config: fast_or(
                CharacterizationConfig::coarse(),
                CharacterizationConfig::standard(),
            ),
            dt: fast_or(4e-12, 1e-12),
            t_stop: 2.4e-9,
            repeats: fast_or(3, 2),
        }
    }
}

/// One gate replay: which model runs, with what stimuli and load.
struct GateTask<'a> {
    model: &'a dyn CellModel,
    inputs: Vec<DriveWaveform>,
    load: f64,
    v_out_initial: f64,
}

/// Measured results of one model family.
#[derive(Debug, Clone)]
pub struct HotpathCase {
    /// Family key (one of [`HOTPATH_FAMILIES`]).
    pub family: String,
    /// Drive form (one of [`HOTPATH_DRIVES`]).
    pub drives: String,
    /// Gate simulations per timed pass.
    pub sims: usize,
    /// Engine sub-steps per pass (identical for both paths).
    pub steps: u64,
    /// LUT evaluations per pass (identical for both paths).
    pub lut_evals: u64,
    /// Best wall-clock seconds of the fast-path pass.
    pub fast_seconds: f64,
    /// Best wall-clock seconds of the reference-path pass.
    pub reference_seconds: f64,
    /// Whether every simulation result matched bit-for-bit across the paths.
    pub bit_identical: bool,
}

impl HotpathCase {
    /// Engine steps/sec on the fast path.
    pub fn fast_steps_per_second(&self) -> f64 {
        self.steps as f64 / self.fast_seconds.max(1e-12)
    }

    /// Engine steps/sec on the reference path.
    pub fn reference_steps_per_second(&self) -> f64 {
        self.steps as f64 / self.reference_seconds.max(1e-12)
    }

    /// LUT evaluations/sec on the fast path.
    pub fn fast_evals_per_second(&self) -> f64 {
        self.lut_evals as f64 / self.fast_seconds.max(1e-12)
    }

    /// Fast-over-reference throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.reference_seconds / self.fast_seconds.max(1e-12)
    }
}

/// The full experiment result, written to `BENCH_sim.json`.
#[derive(Debug, Clone)]
pub struct SimHotpathReport {
    /// Gates replayed per family pass.
    pub gates: usize,
    /// One case per model family.
    pub cases: Vec<HotpathCase>,
}

impl SimHotpathReport {
    /// Whether every family's fast path reproduced the reference path
    /// bit-for-bit.
    pub fn all_identical(&self) -> bool {
        self.cases.iter().all(|case| case.bit_identical)
    }

    /// Total-time fast-over-reference speedup across all families — the
    /// number the CI perf gate checks. Equal to the ratio of overall engine
    /// steps/sec, since both paths execute identical step counts.
    pub fn overall_speedup(&self) -> f64 {
        let reference: f64 = self.cases.iter().map(|c| c.reference_seconds).sum();
        let fast: f64 = self.cases.iter().map(|c| c.fast_seconds).sum();
        reference / fast.max(1e-12)
    }

    /// The machine-readable report.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("experiment".into(), JsonValue::String("sim_hotpath".into())),
            (
                "fast_mode".into(),
                JsonValue::Bool(crate::report::fast_mode()),
            ),
            ("gates".into(), JsonValue::Number(self.gates as f64)),
            (
                "overall_speedup".into(),
                JsonValue::Number(self.overall_speedup()),
            ),
            (
                "cases".into(),
                JsonValue::Array(
                    self.cases
                        .iter()
                        .map(|case| {
                            JsonValue::Object(vec![
                                ("family".into(), JsonValue::String(case.family.clone())),
                                ("drives".into(), JsonValue::String(case.drives.clone())),
                                ("sims".into(), JsonValue::Number(case.sims as f64)),
                                ("steps".into(), JsonValue::Number(case.steps as f64)),
                                ("lut_evals".into(), JsonValue::Number(case.lut_evals as f64)),
                                ("fast_seconds".into(), JsonValue::Number(case.fast_seconds)),
                                (
                                    "reference_seconds".into(),
                                    JsonValue::Number(case.reference_seconds),
                                ),
                                (
                                    "fast_steps_per_second".into(),
                                    JsonValue::Number(case.fast_steps_per_second()),
                                ),
                                (
                                    "reference_steps_per_second".into(),
                                    JsonValue::Number(case.reference_steps_per_second()),
                                ),
                                (
                                    "fast_evals_per_second".into(),
                                    JsonValue::Number(case.fast_evals_per_second()),
                                ),
                                ("speedup".into(), JsonValue::Number(case.speedup())),
                                ("bit_identical".into(), JsonValue::Bool(case.bit_identical)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Builds the per-family gate workload from the generated netlists: staggered
/// falling ramps on every pin (a MIS event per multi-input gate), loads spread
/// by fanout and position, and the family's model per gate (single-input gates
/// always run their SIS model; wider gates run the family under test).
fn family_tasks<'a>(
    library: &'a ModelLibrary,
    netlists: &[(String, mcsm_net::Netlist)],
    family: &str,
    vdd: f64,
) -> Result<Vec<GateTask<'a>>, StaError> {
    let mut tasks = Vec::new();
    let mut index = 0usize;
    for (_, netlist) in netlists {
        for gate in netlist.iter_gates() {
            let store = library.store(gate.kind)?;
            let missing =
                |what: &str| StaError::MissingModel(format!("{what} for {}", gate.kind.name()));
            let model: &dyn CellModel = if gate.kind.input_count() == 1 || family == "sis" {
                store
                    .sis_for_pin(0)
                    .ok_or_else(|| missing("no SIS model"))?
            } else if family == "baseline_mis" {
                store
                    .mis_baseline
                    .as_ref()
                    .ok_or_else(|| missing("no baseline MIS model"))?
            } else {
                store.mcsm.as_ref().ok_or_else(|| missing("no MCSM"))?
            };
            // All pins start high and fall with per-pin skew; the initial
            // output level follows from the initial logic state.
            let inputs: Vec<DriveWaveform> = (0..model.num_pins())
                .map(|pin| {
                    let start = 0.2e-9 + 25e-12 * ((index + pin) % 5) as f64;
                    let transition = 60e-12 + 20e-12 * (index % 3) as f64;
                    DriveWaveform::falling_ramp(vdd, start, transition)
                })
                .collect();
            let high = vec![true; gate.kind.input_count()];
            let v_out_initial = if gate.kind.evaluate(&high) { vdd } else { 0.0 };
            let fanout = netlist.fanout_of(gate.output).len();
            let load = 1e-15 * (1 + fanout) as f64 + 0.5e-15 * (index % 4) as f64;
            tasks.push(GateTask {
                model,
                inputs,
                load,
                v_out_initial,
            });
            index += 1;
        }
    }
    Ok(tasks)
}

/// The same tasks with every drive rendered on the engine's time grid for
/// `options` (`k · dt`, with `dt` derived from `t_stop` as the engine does)
/// and handed over as [`DriveWaveform::from_waveform`], as netsim hands a
/// solved output to its fanout gates.
fn pwl_tasks<'a>(tasks: &[GateTask<'a>], options: &CsmSimOptions) -> Vec<GateTask<'a>> {
    let steps = (options.t_stop / options.dt).ceil() as usize;
    let dt = options.t_stop / steps as f64;
    let times = Arc::new((0..=steps).map(|k| k as f64 * dt).collect::<Vec<_>>());
    tasks
        .iter()
        .map(|task| GateTask {
            inputs: task
                .inputs
                .iter()
                .map(|drive| {
                    let values = times.iter().map(|&t| drive.eval(t)).collect();
                    let waveform = Waveform::with_shared_times(Arc::clone(&times), values)
                        .expect("the engine grid is strictly increasing");
                    DriveWaveform::from_waveform(waveform)
                })
                .collect(),
            ..*task
        })
        .collect()
}

/// Runs every task once in the given evaluation mode, returning the results
/// and the wall-clock seconds of the pass.
fn run_pass(
    tasks: &[GateTask<'_>],
    options: &CsmSimOptions,
    mode: EvalMode,
) -> Result<(Vec<SimResult>, f64), StaError> {
    let opts = options.clone().with_eval(mode);
    let start = Instant::now();
    let mut results = Vec::with_capacity(tasks.len());
    for task in tasks {
        results.push(simulate(
            task.model,
            &task.inputs,
            task.load,
            task.v_out_initial,
            None,
            &opts,
        )?);
    }
    Ok((results, start.elapsed().as_secs_f64()))
}

/// Runs the experiment: characterize once, then time every family and drive
/// form fast vs reference over the generated gate workload.
///
/// # Errors
///
/// Propagates characterization and simulation failures.
pub fn run_sim_hotpath(options: &SimHotpathOptions) -> Result<SimHotpathReport, StaError> {
    let technology = Technology::cmos_130nm();
    let library = ModelLibrary::characterize_parallel(
        &technology,
        &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
        &options.config,
        0,
    )?;
    let netlists = sweep_netlists(&options.sizes);
    let gates: usize = netlists.iter().map(|(_, n)| n.gate_count()).sum();
    let sim_options = CsmSimOptions::new(options.t_stop, options.dt);

    let mut cases = Vec::new();
    for family in HOTPATH_FAMILIES {
        let ramp_tasks = family_tasks(&library, &netlists, family, technology.vdd)?;
        let pwl_tasks = pwl_tasks(&ramp_tasks, &sim_options);
        for (drives, tasks) in HOTPATH_DRIVES.into_iter().zip([ramp_tasks, pwl_tasks]) {
            let mut fast_seconds = f64::INFINITY;
            let mut reference_seconds = f64::INFINITY;
            let mut fast_results = Vec::new();
            let mut reference_results = Vec::new();
            for _ in 0..options.repeats.max(1) {
                let (results, seconds) = run_pass(&tasks, &sim_options, EvalMode::Fast)?;
                fast_seconds = fast_seconds.min(seconds);
                fast_results = results;
                let (results, seconds) = run_pass(&tasks, &sim_options, EvalMode::Reference)?;
                reference_seconds = reference_seconds.min(seconds);
                reference_results = results;
            }
            let bit_identical = fast_results == reference_results;
            let steps: u64 = fast_results.iter().map(|r| r.steps).sum();
            let lut_evals: u64 = fast_results.iter().map(|r| r.lut_evals).sum();
            cases.push(HotpathCase {
                family: family.to_string(),
                drives: drives.to_string(),
                sims: tasks.len(),
                steps,
                lut_evals,
                fast_seconds,
                reference_seconds,
                bit_identical,
            });
        }
    }

    Ok(SimHotpathReport { gates, cases })
}

/// Result of the observability-overhead measurement: best wall-clock of the
/// complete-MCSM fast-path pass with obs fully disarmed vs with metrics and
/// tracing armed, interleaved within one process so machine noise cancels.
#[derive(Debug, Clone, Copy)]
pub struct ObsOverheadReport {
    /// Best pass seconds with metrics and tracing disarmed.
    pub disabled_seconds: f64,
    /// Best pass seconds with metrics and tracing armed.
    pub armed_seconds: f64,
}

impl ObsOverheadReport {
    /// Armed-over-disabled overhead in percent (negative when armed happened
    /// to run faster). The CI gate checks this stays under a small bound —
    /// and since the disarmed path does strictly less work than the armed one
    /// (one relaxed flag load per probe), armed-within-bound implies the
    /// disabled instrumentation is free within the same bound.
    pub fn overhead_percent(&self) -> f64 {
        (self.armed_seconds / self.disabled_seconds.max(1e-12) - 1.0) * 100.0
    }
}

/// Measures instrumentation overhead on the engine hot path: replays the
/// complete-MCSM gate workload with obs disarmed and armed, alternating per
/// repeat, and reports the best time of each. Leaves obs disarmed on return.
///
/// # Errors
///
/// Propagates characterization and simulation failures.
pub fn measure_obs_overhead(options: &SimHotpathOptions) -> Result<ObsOverheadReport, StaError> {
    let technology = Technology::cmos_130nm();
    let library = ModelLibrary::characterize_parallel(
        &technology,
        &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
        &options.config,
        0,
    )?;
    let netlists = sweep_netlists(&options.sizes);
    let sim_options = CsmSimOptions::new(options.t_stop, options.dt);
    let tasks = family_tasks(&library, &netlists, "complete_mcsm", technology.vdd)?;

    let mut disabled_seconds = f64::INFINITY;
    let mut armed_seconds = f64::INFINITY;
    for _ in 0..options.repeats.max(2) {
        mcsm_obs::set_metrics(false);
        mcsm_obs::set_trace(false);
        let (_, seconds) = run_pass(&tasks, &sim_options, EvalMode::Fast)?;
        disabled_seconds = disabled_seconds.min(seconds);

        mcsm_obs::set_metrics(true);
        mcsm_obs::set_trace(true);
        let (_, seconds) = run_pass(&tasks, &sim_options, EvalMode::Fast)?;
        armed_seconds = armed_seconds.min(seconds);
    }
    mcsm_obs::set_metrics(false);
    mcsm_obs::set_trace(false);
    mcsm_obs::span::clear();

    Ok(ObsOverheadReport {
        disabled_seconds,
        armed_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_and_derives_rates() {
        let report = SimHotpathReport {
            gates: 10,
            cases: vec![HotpathCase {
                family: "complete_mcsm".into(),
                drives: "pwl".into(),
                sims: 10,
                steps: 2000,
                lut_evals: 16000,
                fast_seconds: 0.5,
                reference_seconds: 1.5,
                bit_identical: true,
            }],
        };
        assert!(report.all_identical());
        assert!((report.overall_speedup() - 3.0).abs() < 1e-9);
        let case = &report.cases[0];
        assert!((case.fast_steps_per_second() - 4000.0).abs() < 1e-9);
        assert!((case.fast_evals_per_second() - 32000.0).abs() < 1e-9);
        assert!((case.speedup() - 3.0).abs() < 1e-9);
        let json = report.to_json();
        assert_eq!(json.require("gates").unwrap().as_f64(), Some(10.0));
        let cases = json.require("cases").unwrap().as_array().unwrap();
        assert_eq!(cases[0].require("speedup").unwrap().as_f64(), Some(3.0));
        assert_eq!(cases[0].require("drives").unwrap().as_str(), Some("pwl"));
        let reparsed = JsonValue::parse(&json.to_string_pretty()).unwrap();
        assert_eq!(reparsed, json);
    }

    #[test]
    fn tiny_hotpath_run_is_bit_identical_across_paths() {
        let options = SimHotpathOptions {
            sizes: vec![3],
            config: CharacterizationConfig::coarse(),
            dt: 8e-12,
            t_stop: 1.2e-9,
            repeats: 1,
        };
        let report = run_sim_hotpath(&options).unwrap();
        assert_eq!(report.cases.len(), 6);
        assert_eq!(report.cases[1].drives, "pwl");
        assert!(report.all_identical(), "fast path diverged from reference");
        for case in &report.cases {
            assert!(case.sims > 0);
            assert!(case.steps > 0);
            assert!(case.lut_evals > 0);
            assert!(case.fast_seconds > 0.0 && case.reference_seconds > 0.0);
        }
    }
}
