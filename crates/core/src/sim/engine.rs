//! Output-waveform computation from a characterized model.
//!
//! This is the run-time half of the paper: given the pre-characterized tables,
//! the input waveforms and a load, integrate the KCL equations (paper
//! Eqs. (1)–(2)) forward in time. The integration loop lives in exactly one
//! place — [`simulate`] — and is generic over [`CellModel`], so the SIS model
//! (1 pin, no state), the baseline MIS model (2 pins, no state), the complete
//! MCSM (2 pins, 1 internal node) and any future N-input model all share the
//! same sub-stepping, clamping and predictor–corrector logic. Which family runs
//! is data, not code.
//!
//! Two integration schemes are provided:
//!
//! * [`CsmIntegration::Explicit`] — the paper's update (Eqs. (4)–(5)): evaluate
//!   all tables at the previous time point and step forward;
//! * [`CsmIntegration::PredictorCorrector`] — an inexpensive refinement that
//!   re-evaluates the currents at the predicted end point and averages
//!   (trapezoidal in the current), which tolerates larger time steps.
//!
//! Each time step first probes the whole step to choose how many sub-steps
//! to split it into, then takes them. Every time point is evaluated once:
//! the probe starts where the first sub-step starts, so its table lookups
//! serve that sub-step too; the pin voltages at a step's end start the next
//! step; and each sampled drive is read through a search hint that follows
//! the run forward ([`DriveWaveform::eval_hinted`]). An evaluation is two
//! grouped table lookups, one per grid the model's tables are sampled on:
//! the point is located once on the current grid and once on the
//! capacitance grid, through one cursor per grid, and every table of a grid
//! is summed from the same corner weights ([`crate::table::TableGroup`]).
//! None of this changes a result bit — every sub-step time is computed as it
//! always was, a value is reused only where it was computed at the same time
//! bits, and each grouped table value has the bits of looking its table up
//! alone.
//!
//! The entry point for callers is the [`Simulation`] builder:
//!
//! ```no_run
//! # use mcsm_core::model::McsmModel;
//! # use mcsm_core::sim::{CsmSimOptions, DriveWaveform, Simulation};
//! # fn demo(model: &McsmModel) -> Result<(), mcsm_core::CsmError> {
//! let waves = [
//!     DriveWaveform::falling_ramp(1.2, 0.2e-9, 50e-12),
//!     DriveWaveform::falling_ramp(1.2, 0.2e-9, 50e-12),
//! ];
//! let result = Simulation::of(model)
//!     .inputs(&waves)
//!     .load(4e-15)
//!     .initial_output(0.0)
//!     .options(CsmSimOptions::new(2e-9, 0.5e-12))
//!     .run()?;
//! println!("50% crossing: {:?}", result.output.crossing(0.6, true));
//! # Ok(())
//! # }
//! ```

use super::drive::DriveWaveform;
use crate::error::CsmError;
use crate::eval::{EvalMode, EvalState};
use crate::model::CellModel;
use mcsm_spice::waveform::Waveform;
use std::sync::Arc;

/// Integration scheme for the CSM state equations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CsmIntegration {
    /// The paper's explicit update (Eq. 4 / Eq. 5).
    #[default]
    Explicit,
    /// Explicit predictor followed by one trapezoidal corrector pass.
    PredictorCorrector,
}

/// Options for a model simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CsmSimOptions {
    /// Time step (seconds). The explicit scheme needs `dt` small compared to the
    /// smallest `C / (dI/dV)` time constant; 0.5 ps is a safe default for the
    /// synthetic 130 nm library.
    pub dt: f64,
    /// Stop time (seconds); simulation starts at `t = 0`.
    pub t_stop: f64,
    /// Integration scheme.
    pub integration: CsmIntegration,
    /// Which lookup-table evaluation path the model hot loop uses. The default
    /// [`EvalMode::Fast`] runs the grouped, cursor-accelerated, allocation-free
    /// lookups; [`EvalMode::Reference`] retains the historical allocating
    /// `LutNd::eval` path, bit-identical by construction — benchmarks gate the
    /// speedup and tests pin the equality.
    pub eval: EvalMode,
}

impl CsmSimOptions {
    /// Creates options with the default explicit integration.
    pub fn new(t_stop: f64, dt: f64) -> Self {
        CsmSimOptions {
            dt,
            t_stop,
            integration: CsmIntegration::Explicit,
            eval: EvalMode::Fast,
        }
    }

    /// The same options with the given table-evaluation mode.
    pub fn with_eval(mut self, eval: EvalMode) -> Self {
        self.eval = eval;
        self
    }

    fn validate(&self) -> Result<(), CsmError> {
        if !(self.dt > 0.0) || !(self.t_stop > 0.0) || self.t_stop < self.dt {
            return Err(CsmError::InvalidParameter(format!(
                "simulation needs 0 < dt <= t_stop (got dt = {}, t_stop = {})",
                self.dt, self.t_stop
            )));
        }
        Ok(())
    }
}

impl Default for CsmSimOptions {
    /// A 2 ns window at the 0.5 ps step used throughout the paper experiments.
    fn default() -> Self {
        CsmSimOptions::new(2e-9, 0.5e-12)
    }
}

/// Result of a generic model simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Output voltage waveform.
    pub output: Waveform,
    /// One waveform per internal state node the model tracked, in model order
    /// (empty for stateless models). Every trace shares one time vector with
    /// `output` — an N-state model does not clone the time axis N+1 times.
    pub state_traces: Vec<Waveform>,
    /// Engine sub-steps executed: per time step, the probe that picks the
    /// sub-step count plus every sub-step — the unit the `sim_hotpath`
    /// benchmark reports as steps/sec. The probe shares its table evaluation
    /// with the first sub-step, so `steps` minus the number of time steps is
    /// the number of model evaluations.
    pub steps: u64,
    /// Lookup-table evaluations the model performed during the run: one
    /// model evaluation (every current and capacitance table) per sub-step,
    /// plus, under [`CsmIntegration::PredictorCorrector`], one evaluation of
    /// the current tables per counted step for the corrector.
    pub lut_evals: u64,
}

impl SimResult {
    /// The first internal-node waveform, if the model had one.
    pub fn internal(&self) -> Option<&Waveform> {
        self.state_traces.first()
    }
}

/// Clamp helper: keeps the state inside the characterized voltage range plus a
/// little headroom so a coarse step cannot launch the explicit integration into
/// the flat extrapolation region and stall there.
fn clamp_voltage(v: f64, vdd: f64) -> f64 {
    v.clamp(-0.3, vdd + 0.3)
}

/// Largest per-(sub)step voltage change the explicit update is allowed to take.
/// The internal-node capacitance is only a couple of femtofarads, so its time
/// constant can be shorter than a comfortable output time step; sub-stepping
/// keeps the update accurate without forcing the caller to shrink `dt` globally.
const MAX_STEP_VOLTAGE: f64 = 0.02;

/// Maximum number of sub-steps one time step may be split into.
const MAX_SUBSTEPS: usize = 64;

/// Number of sub-steps needed so no state variable moves more than
/// [`MAX_STEP_VOLTAGE`] per sub-step.
fn substeps_for(deltas: &[f64]) -> usize {
    let worst = deltas.iter().fold(0.0_f64, |acc, d| acc.max(d.abs()));
    ((worst / MAX_STEP_VOLTAGE).ceil() as usize).clamp(1, MAX_SUBSTEPS)
}

/// Scratch buffers and the per-substep update shared by every model family.
///
/// A sub-step is two calls. [`Stepper::evaluate`] looks up every capacitance
/// and current at the sub-step's start (pins, state, output), and
/// [`Stepper::step`] applies the paper's explicit update (Eq. 4 for the
/// output node, Eq. 5 for each internal state node) over `h` seconds from
/// those values, optionally refined by one trapezoidal corrector pass. The
/// split lets the engine's probe and its first sub-step, which start from the
/// same point, share one evaluation: the model evaluates as a pure function
/// of (pins, state, output) (see [`CellModel`]).
///
/// The stepper owns the model's [`EvalState`] — one lookup cursor per table
/// grid — so every table query across the whole run goes through cursors that
/// follow the trajectory cell to cell (the allocation-free fast path).
struct Stepper<'m> {
    model: &'m dyn CellModel,
    load: f64,
    vdd: f64,
    corrector: bool,
    eval: EvalState,
    c_o: f64,
    miller: Vec<f64>,
    state_caps: Vec<f64>,
    currents: Vec<f64>,
    pred_state: Vec<f64>,
    pred_currents: Vec<f64>,
}

impl<'m> Stepper<'m> {
    fn new(model: &'m dyn CellModel, load: f64, corrector: bool, mode: EvalMode) -> Self {
        let n_pins = model.num_pins();
        let n_state = model.num_state_nodes();
        let mut eval = model.make_eval_state();
        eval.set_mode(mode);
        Stepper {
            model,
            load,
            vdd: model.vdd(),
            corrector,
            eval,
            c_o: 0.0,
            miller: vec![0.0; n_pins],
            state_caps: vec![0.0; n_state],
            currents: vec![0.0; 1 + n_state],
            pred_state: vec![0.0; n_state],
            pred_currents: vec![0.0; 1 + n_state],
        }
    }

    /// Evaluates the model's capacitances and currents at (`pins`, `state`,
    /// `v_out`), the start point of the following [`Stepper::step`] calls.
    fn evaluate(&mut self, pins: &[f64], state: &[f64], v_out: f64) {
        self.c_o = self.model.capacitances(
            &mut self.eval,
            pins,
            state,
            v_out,
            &mut self.miller,
            &mut self.state_caps,
        );
        self.model
            .currents(&mut self.eval, pins, state, v_out, &mut self.currents);
    }

    /// Advances the state from (`state`, `v_out`) over `h` seconds while the pin
    /// voltages move from `pins0` to `pins1`, using the last
    /// [`Stepper::evaluate`], which must have been at (`pins0`, `state`,
    /// `v_out`). Writes the (unclamped) next state into `next_state` and
    /// returns the (unclamped) next output voltage.
    fn step(
        &mut self,
        pins0: &[f64],
        pins1: &[f64],
        state: &[f64],
        v_out: f64,
        h: f64,
        next_state: &mut [f64],
    ) -> f64 {
        let mut denom = self.load + self.c_o;
        let mut miller_kick = 0.0;
        for (i, &cm) in self.miller.iter().enumerate() {
            denom += cm;
            miller_kick += cm * (pins1[i] - pins0[i]);
        }
        let denom = denom.max(1e-21);

        let io_prev = self.currents[0];
        let mut v_out_next = v_out + (miller_kick - io_prev * h) / denom;
        for (j, next) in next_state.iter_mut().enumerate() {
            *next = state[j] - self.currents[1 + j] * h / self.state_caps[j].max(1e-21);
        }

        if self.corrector {
            for (j, pred) in self.pred_state.iter_mut().enumerate() {
                *pred = clamp_voltage(next_state[j], self.vdd);
            }
            let v_out_pred = clamp_voltage(v_out_next, self.vdd);
            self.model.currents(
                &mut self.eval,
                pins1,
                &self.pred_state,
                v_out_pred,
                &mut self.pred_currents,
            );
            v_out_next =
                v_out + (miller_kick - 0.5 * (io_prev + self.pred_currents[0]) * h) / denom;
            for (j, next) in next_state.iter_mut().enumerate() {
                *next = state[j]
                    - 0.5 * (self.currents[1 + j] + self.pred_currents[1 + j]) * h
                        / self.state_caps[j].max(1e-21);
            }
        }
        v_out_next
    }
}

/// Integrates any [`CellModel`] forward in time — the single engine behind
/// every model family.
///
/// * `inputs` — one drive waveform per model pin, in pin order;
/// * `load_capacitance` — the lumped load `C_L` at the output (farads);
/// * `v_out_initial` — output voltage at `t = 0`;
/// * `initial_state` — internal-state voltages at `t = 0`, or `None` to use the
///   DC equilibrium implied by the initial input/output voltages.
///
/// Prefer the [`Simulation`] builder over calling this directly.
///
/// # Errors
///
/// Returns [`CsmError::InvalidParameter`] for invalid options, a non-finite or
/// negative load, non-finite initial conditions, or input/state dimensions
/// that do not match the model.
///
/// # Panics
///
/// Panics if a drive waveform evaluates to NaN (only possible when one was
/// constructed from NaN parameters): the table layer rejects NaN coordinates
/// rather than silently clamping them.
pub fn simulate(
    model: &dyn CellModel,
    inputs: &[DriveWaveform],
    load_capacitance: f64,
    v_out_initial: f64,
    initial_state: Option<&[f64]>,
    options: &CsmSimOptions,
) -> Result<SimResult, CsmError> {
    options.validate()?;
    // Finiteness is validated up front: the table fast paths reject NaN
    // coordinates with a panic (they cannot occur from finite inputs — every
    // stored sample is finite and all updates are guarded), so a NaN smuggled
    // in through the load or initial conditions must be reported here as an
    // error, not 500 sub-steps later as an abort.
    if !(load_capacitance >= 0.0) || !load_capacitance.is_finite() {
        return Err(CsmError::InvalidParameter(format!(
            "load capacitance must be finite and non-negative, got {load_capacitance}"
        )));
    }
    if !v_out_initial.is_finite() {
        return Err(CsmError::InvalidParameter(format!(
            "initial output voltage must be finite, got {v_out_initial}"
        )));
    }
    let n_pins = model.num_pins();
    if inputs.len() != n_pins {
        return Err(CsmError::InvalidParameter(format!(
            "model `{}` has {n_pins} pins, got {} input waveforms",
            model.cell_name(),
            inputs.len()
        )));
    }
    let n_state = model.num_state_nodes();

    let vdd = model.vdd();
    let steps = (options.t_stop / options.dt).ceil() as usize;
    let dt = options.t_stop / steps as f64;

    // One search hint per pin: the engine reads every drive forward in time,
    // so a sampled drive finds each time point from the last one in O(1).
    let mut hints = vec![0; n_pins];
    let mut sample_pins = |t: f64, out: &mut [f64]| {
        for ((pin, drive), hint) in out.iter_mut().zip(inputs).zip(&mut hints) {
            *pin = drive.eval_hinted(t, hint);
        }
    };

    // Pin voltages at the start of the current (sub-)step, at its end, and
    // at the end of the current time step.
    let mut pins0 = vec![0.0; n_pins];
    let mut pins1 = vec![0.0; n_pins];
    let mut pins_next = vec![0.0; n_pins];
    sample_pins(0.0, &mut pins0);

    let mut v_out = v_out_initial;
    let mut state = match initial_state {
        Some(s) => {
            if s.len() != n_state {
                return Err(CsmError::InvalidParameter(format!(
                    "model `{}` has {n_state} state nodes, got {} initial values",
                    model.cell_name(),
                    s.len()
                )));
            }
            if let Some(bad) = s.iter().find(|v| !v.is_finite()) {
                return Err(CsmError::InvalidParameter(format!(
                    "initial state voltages must be finite, got {bad}"
                )));
            }
            s.to_vec()
        }
        None => {
            let mut s = vec![0.0; n_state];
            model.equilibrium_state(&pins0, v_out_initial, &mut s);
            s
        }
    };

    let mut times = Vec::with_capacity(steps + 1);
    let mut out_values = Vec::with_capacity(steps + 1);
    let mut state_values: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); n_state];
    times.push(0.0);
    out_values.push(v_out);
    for (j, trace) in state_values.iter_mut().enumerate() {
        trace.push(state[j]);
    }

    let corrector = options.integration == CsmIntegration::PredictorCorrector;
    let mut stepper = Stepper::new(model, load_capacitance, corrector, options.eval);
    let mut probe_state = vec![0.0; n_state];
    let mut next_state = vec![0.0; n_state];
    let mut deltas = vec![0.0; 1 + n_state];
    let mut substeps: u64 = 0;

    // Every time point is sampled and evaluated once. `pins0` enters each
    // step holding the pins at `t_prev`: the previous step's `t_next` has the
    // same bits. A sub-step time is computed exactly as the sub-step count
    // dictates, and a pin vector is reused only when it was sampled at the
    // same bits, so results do not depend on the reuse.
    for k in 0..steps {
        let t_prev = k as f64 * dt;
        let t_next = (k + 1) as f64 * dt;
        sample_pins(t_next, &mut pins_next);

        // Probe the full step to decide how finely to subdivide it: an
        // internal-node time constant can be much shorter than `dt`. The
        // probe starts where sub-step 0 starts (`t_prev + 0 · h == t_prev`),
        // so its evaluation serves sub-step 0 as well.
        stepper.evaluate(&pins0, &state, v_out);
        let probe_out = stepper.step(&pins0, &pins_next, &state, v_out, dt, &mut probe_state);
        deltas[0] = probe_out - v_out;
        for j in 0..n_state {
            deltas[1 + j] = probe_state[j] - state[j];
        }
        let n_sub = substeps_for(&deltas);
        substeps += 1 + n_sub as u64;
        let h = dt / n_sub as f64;
        // The time `pins0` was sampled at.
        let mut t_sampled = t_prev;
        for s in 0..n_sub {
            let t0 = t_prev + s as f64 * h;
            let t1 = t0 + h;
            if s > 0 {
                if t0.to_bits() != t_sampled.to_bits() {
                    sample_pins(t0, &mut pins0);
                }
                stepper.evaluate(&pins0, &state, v_out);
            }
            if t1.to_bits() == t_next.to_bits() {
                pins1.copy_from_slice(&pins_next);
            } else {
                sample_pins(t1, &mut pins1);
            }
            let next_out = stepper.step(&pins0, &pins1, &state, v_out, h, &mut next_state);
            v_out = clamp_voltage(next_out, vdd);
            for j in 0..n_state {
                state[j] = clamp_voltage(next_state[j], vdd);
            }
            std::mem::swap(&mut pins0, &mut pins1);
            t_sampled = t1;
        }
        std::mem::swap(&mut pins0, &mut pins_next);

        // Divergence check: `clamp_voltage` bounds finite values but passes
        // NaN through unchanged (IEEE-754 `clamp` of NaN is NaN), so a
        // runaway explicit step must be caught here — as a descriptive error
        // the degraded-mode retry chains upstream can act on — rather than
        // leak poisoned samples into a committed waveform.
        if !v_out.is_finite() || state.iter().any(|v| !v.is_finite()) {
            return Err(CsmError::Diverged(format!(
                "cell `{}`: non-finite state at t = {:.3e} s (dt = {:.3e} s); \
                 retry with a smaller step or degraded settings",
                model.cell_name(),
                t_next,
                dt
            )));
        }

        times.push(t_next);
        out_values.push(v_out);
        for (j, trace) in state_values.iter_mut().enumerate() {
            trace.push(state[j]);
        }
    }

    let lut_evals = stepper.eval.lookups();
    mcsm_obs::counters(&[
        ("core.sim.calls", 1),
        ("core.sim.steps", substeps),
        ("core.sim.lut_evals", lut_evals),
    ]);

    // One shared time vector for the output and every state trace: an N-state
    // model must not clone the time axis N+1 times.
    let times = Arc::new(times);
    Ok(SimResult {
        output: Waveform::with_shared_times(Arc::clone(&times), out_values)?,
        state_traces: state_values
            .into_iter()
            .map(|values| Waveform::with_shared_times(Arc::clone(&times), values))
            .collect::<Result<_, _>>()?,
        steps: substeps,
        lut_evals,
    })
}

/// Builder for one model simulation — the front door of the runtime API.
///
/// Collects the inputs, load, initial conditions and stepping options, then
/// [`run`](Simulation::run)s the generic engine. Works with any [`CellModel`]
/// (concrete model structs, [`crate::selective::SelectiveModel`], or a
/// `&dyn CellModel` resolved from a [`crate::store::ModelStore`]).
#[derive(Clone)]
pub struct Simulation<'a> {
    model: &'a dyn CellModel,
    inputs: Vec<DriveWaveform>,
    load_capacitance: f64,
    v_out_initial: f64,
    initial_state: Option<Vec<f64>>,
    options: CsmSimOptions,
}

impl<'a> Simulation<'a> {
    /// Starts a simulation of `model` with no inputs, zero load, a grounded
    /// initial output, equilibrium initial state and default options.
    pub fn of(model: &'a dyn CellModel) -> Self {
        Simulation {
            model,
            inputs: Vec::new(),
            load_capacitance: 0.0,
            v_out_initial: 0.0,
            initial_state: None,
            options: CsmSimOptions::default(),
        }
    }

    /// Sets all input drive waveforms at once, in pin order.
    pub fn inputs(mut self, waves: &[DriveWaveform]) -> Self {
        self.inputs = waves.to_vec();
        self
    }

    /// Appends one input drive waveform (next pin in order).
    pub fn input(mut self, wave: impl Into<DriveWaveform>) -> Self {
        self.inputs.push(wave.into());
        self
    }

    /// Sets the lumped load capacitance at the output (farads).
    pub fn load(mut self, farads: f64) -> Self {
        self.load_capacitance = farads;
        self
    }

    /// Sets the output voltage at `t = 0`.
    pub fn initial_output(mut self, volts: f64) -> Self {
        self.v_out_initial = volts;
        self
    }

    /// Sets the internal-state voltages at `t = 0` (one per state node). When
    /// not called, the engine uses the model's DC equilibrium for the initial
    /// inputs — call this to inject input *history*, the effect the paper
    /// studies.
    pub fn initial_state(mut self, state: &[f64]) -> Self {
        self.initial_state = Some(state.to_vec());
        self
    }

    /// Sets the time stepping and integration scheme.
    pub fn options(mut self, options: CsmSimOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the generic engine.
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::InvalidParameter`] for invalid options, a negative
    /// load, or input/state dimensions that do not match the model.
    pub fn run(self) -> Result<SimResult, CsmError> {
        simulate(
            self.model,
            &self.inputs,
            self.load_capacitance,
            self.v_out_initial,
            self.initial_state.as_deref(),
            &self.options,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::mcsm::synthetic_model;
    use crate::model::mis_baseline::synthetic_baseline;
    use crate::model::sis::synthetic_sis;
    use crate::model::McsmModel;

    fn mcsm_sim<'a>(
        model: &'a McsmModel,
        inputs: &[DriveWaveform],
        load: f64,
        options: &CsmSimOptions,
    ) -> Simulation<'a> {
        Simulation::of(model)
            .inputs(inputs)
            .load(load)
            .initial_output(0.0)
            .options(options.clone())
    }

    fn falling_pair() -> [DriveWaveform; 2] {
        [
            DriveWaveform::falling_ramp(1.2, 0.2e-9, 50e-12),
            DriveWaveform::falling_ramp(1.2, 0.2e-9, 50e-12),
        ]
    }

    #[test]
    fn options_validation() {
        let m = synthetic_model();
        let inputs = [DriveWaveform::dc(0.0), DriveWaveform::dc(0.0)];
        let bad = CsmSimOptions::new(0.0, 1e-12);
        assert!(mcsm_sim(&m, &inputs, 1e-15, &bad).run().is_err());
        let good = CsmSimOptions::new(1e-9, 1e-12);
        // Negative load.
        assert!(mcsm_sim(&m, &inputs, -1.0, &good).run().is_err());
        // Wrong input arity.
        assert!(Simulation::of(&m)
            .input(DriveWaveform::dc(0.0))
            .options(good.clone())
            .run()
            .is_err());
        // Wrong state dimension.
        assert!(mcsm_sim(&m, &inputs, 1e-15, &good)
            .initial_state(&[0.0, 0.0])
            .run()
            .is_err());
        // Non-finite inputs are errors, not downstream panics in the table
        // layer (regression for the NaN-rejecting locate).
        assert!(mcsm_sim(&m, &inputs, f64::NAN, &good).run().is_err());
        assert!(mcsm_sim(&m, &inputs, f64::INFINITY, &good).run().is_err());
        assert!(mcsm_sim(&m, &inputs, 1e-15, &good)
            .initial_output(f64::NAN)
            .run()
            .is_err());
        assert!(mcsm_sim(&m, &inputs, 1e-15, &good)
            .initial_state(&[f64::NAN])
            .run()
            .is_err());
    }

    #[test]
    fn mcsm_output_rises_when_inputs_fall() {
        let m = synthetic_model();
        // NOR2-like synthetic model: both inputs falling → output should rise.
        let inputs = falling_pair();
        let opts = CsmSimOptions::new(3e-9, 0.5e-12);
        let result = mcsm_sim(&m, &inputs, 2e-15, &opts).run().unwrap();
        assert!(result.output.value_at(0.0) < 0.1);
        assert!(
            result.output.final_value() > 1.0,
            "final = {}",
            result.output.final_value()
        );
        // The internal node also ends near the rail.
        assert_eq!(result.state_traces.len(), 1);
        assert!(result.internal().unwrap().final_value() > 0.8);
    }

    #[test]
    fn mcsm_initial_internal_state_matters() {
        let m = synthetic_model();
        let inputs = falling_pair();
        let opts = CsmSimOptions::new(2e-9, 0.5e-12);
        let cl = 1e-15;
        let fast = mcsm_sim(&m, &inputs, cl, &opts)
            .initial_state(&[1.2])
            .run()
            .unwrap();
        let slow = mcsm_sim(&m, &inputs, cl, &opts)
            .initial_state(&[0.2])
            .run()
            .unwrap();
        let t_fast = fast.output.crossing(0.6, true).unwrap();
        let t_slow = slow.output.crossing(0.6, true).unwrap();
        assert!(
            t_slow > t_fast,
            "discharged internal node must slow the transition ({t_slow} !> {t_fast})"
        );
    }

    #[test]
    fn fast_and_reference_eval_modes_are_bit_identical() {
        // The cursor fast path must reproduce the retained allocating
        // `LutNd::eval` path to the bit — waveforms, state traces, step count
        // and lookup count — for every model family and both integrators.
        let mcsm = synthetic_model();
        let baseline = synthetic_baseline();
        let sis = synthetic_sis();
        let models: [&dyn crate::model::CellModel; 3] = [&mcsm, &baseline, &sis];
        for model in models {
            let inputs: Vec<DriveWaveform> = (0..model.num_pins())
                .map(|_| DriveWaveform::falling_ramp(1.2, 0.2e-9, 50e-12))
                .collect();
            for integration in [CsmIntegration::Explicit, CsmIntegration::PredictorCorrector] {
                let mut opts = CsmSimOptions::new(2e-9, 1e-12);
                opts.integration = integration;
                let fast = Simulation::of(model)
                    .inputs(&inputs)
                    .load(2e-15)
                    .options(opts.clone().with_eval(EvalMode::Fast))
                    .run()
                    .unwrap();
                let reference = Simulation::of(model)
                    .inputs(&inputs)
                    .load(2e-15)
                    .options(opts.with_eval(EvalMode::Reference))
                    .run()
                    .unwrap();
                assert_eq!(
                    fast,
                    reference,
                    "{} with {integration:?}",
                    model.cell_name()
                );
                assert!(fast.steps > 0);
                assert!(fast.lut_evals > 0);
            }
        }
    }

    #[test]
    fn state_traces_share_the_output_time_vector() {
        let m = synthetic_model();
        let inputs = falling_pair();
        let result = mcsm_sim(&m, &inputs, 2e-15, &CsmSimOptions::new(1e-9, 1e-12))
            .run()
            .unwrap();
        let internal = result.internal().unwrap();
        assert_eq!(result.output.times(), internal.times());
        // Same allocation, not merely equal contents.
        assert_eq!(result.output.times().as_ptr(), internal.times().as_ptr());
    }

    #[test]
    fn predictor_corrector_matches_explicit_at_small_steps() {
        let m = synthetic_model();
        let inputs = falling_pair();
        let fine = CsmSimOptions::new(2e-9, 0.2e-12);
        let mut pc = fine.clone();
        pc.integration = CsmIntegration::PredictorCorrector;
        let explicit = mcsm_sim(&m, &inputs, 2e-15, &fine).run().unwrap();
        let corrected = mcsm_sim(&m, &inputs, 2e-15, &pc).run().unwrap();
        let nrmse = corrected
            .output
            .normalized_rmse_against(&explicit.output, 1.2)
            .unwrap();
        assert!(nrmse < 0.02, "schemes diverge: nrmse = {nrmse}");
    }

    #[test]
    fn baseline_output_rises_when_inputs_fall() {
        let m = synthetic_baseline();
        let inputs = falling_pair();
        let opts = CsmSimOptions::new(3e-9, 0.5e-12);
        let result = Simulation::of(&m)
            .inputs(&inputs)
            .load(2e-15)
            .initial_output(0.0)
            .options(opts)
            .run()
            .unwrap();
        assert!(result.output.final_value() > 1.0);
        // Stateless model: no internal traces.
        assert!(result.state_traces.is_empty());
        assert!(result.internal().is_none());
    }

    #[test]
    fn sis_inverter_like_response() {
        let m = synthetic_sis();
        let opts = CsmSimOptions::new(3e-9, 0.5e-12);
        let out = Simulation::of(&m)
            .input(DriveWaveform::rising_ramp(1.2, 0.2e-9, 50e-12))
            .load(2e-15)
            .initial_output(1.2)
            .options(opts)
            .run()
            .unwrap()
            .output;
        assert!(out.value_at(0.0) > 1.1);
        assert!(out.final_value() < 0.2);
    }

    /// One staggered falling ramp per pin: analytic, or rendered as a PWL
    /// drive sampled at `times`.
    fn staggered_ramps(n_pins: usize, times: Option<&[f64]>) -> Vec<DriveWaveform> {
        (0..n_pins)
            .map(|pin| {
                let ramp = DriveWaveform::falling_ramp(1.2, 0.2e-9 + 30e-12 * pin as f64, 60e-12);
                match times {
                    None => ramp,
                    Some(times) => DriveWaveform::from_waveform(
                        Waveform::new(
                            times.to_vec(),
                            times.iter().map(|&t| ramp.eval(t)).collect(),
                        )
                        .unwrap(),
                    ),
                }
            })
            .collect()
    }

    /// The engine's own time grid for `options`: `k · dt` with the step it
    /// derives from `t_stop`.
    fn engine_grid(options: &CsmSimOptions) -> Vec<f64> {
        let steps = (options.t_stop / options.dt).ceil() as usize;
        let dt = options.t_stop / steps as f64;
        (0..=steps).map(|k| k as f64 * dt).collect()
    }

    /// Digest of everything a run computes: the output trace, every state
    /// trace and the engine step count.
    fn result_digest(result: &SimResult) -> u64 {
        let mut hasher = mcsm_num::hash::ByteHasher::new();
        hasher.write_f64_slice(result.output.times());
        hasher.write_f64_slice(result.output.values());
        for trace in &result.state_traces {
            hasher.write_f64_slice(trace.values());
        }
        hasher.write_u64(result.steps);
        hasher.finish()
    }

    #[test]
    fn results_match_digests_recorded_before_the_probe_shared_its_evaluation() {
        let mcsm = synthetic_model();
        let baseline = synthetic_baseline();
        let sis = synthetic_sis();
        let models: [(&str, &dyn CellModel); 3] =
            [("mcsm", &mcsm), ("baseline", &baseline), ("sis", &sis)];
        let fine = CsmSimOptions::new(1.2e-9, 1e-12);
        let coarse = CsmSimOptions::new(1.2e-9, 8e-12);
        let off_grid: Vec<f64> = (0..1700).map(|i| 0.37e-12 + i as f64 * 0.71e-12).collect();
        let mut digests = Vec::new();
        for (family, model) in models {
            let n_pins = model.num_pins();
            let cases = [
                ("ramp", &fine, staggered_ramps(n_pins, None)),
                (
                    "pwl_on_grid",
                    &fine,
                    staggered_ramps(n_pins, Some(&engine_grid(&fine))),
                ),
                (
                    "pwl_off_grid",
                    &fine,
                    staggered_ramps(n_pins, Some(&off_grid)),
                ),
                (
                    "pwl_substeps",
                    &coarse,
                    staggered_ramps(n_pins, Some(&engine_grid(&coarse))),
                ),
            ];
            for integration in [CsmIntegration::Explicit, CsmIntegration::PredictorCorrector] {
                for (drive, options, inputs) in &cases {
                    let mut options = (*options).clone();
                    options.integration = integration;
                    let result = Simulation::of(model)
                        .inputs(inputs)
                        .load(2e-15)
                        .options(options.clone())
                        .run()
                        .unwrap();
                    if *drive == "pwl_substeps" {
                        let outer = engine_grid(&options).len() as u64 - 1;
                        assert!(result.steps > 2 * outer, "no step was subdivided");
                    }
                    digests.push(format!(
                        "{family} {integration:?} {drive} {:016x}",
                        result_digest(&result)
                    ));
                }
            }
        }
        // Recorded from the engine that evaluated every probe afresh and
        // binary-searched every PWL sample (the same cases, run before the
        // engine change).
        let recorded = [
            "mcsm Explicit ramp bac47c9f8b7eb4f6",
            "mcsm Explicit pwl_on_grid fec526812206faed",
            "mcsm Explicit pwl_off_grid 51e37bc1057a9d17",
            "mcsm Explicit pwl_substeps 99ed2c0e7880b4a5",
            "mcsm PredictorCorrector ramp 639bb13610a02f5f",
            "mcsm PredictorCorrector pwl_on_grid 469b56bb442caa1d",
            "mcsm PredictorCorrector pwl_off_grid 8922791b6e5e909f",
            "mcsm PredictorCorrector pwl_substeps c80b1b60acdea255",
            "baseline Explicit ramp 29dcfaeed179fdd8",
            "baseline Explicit pwl_on_grid 777a72374da61f42",
            "baseline Explicit pwl_off_grid 60725e30502e1bc8",
            "baseline Explicit pwl_substeps 3e5fd5091476c637",
            "baseline PredictorCorrector ramp d0a55d782cc8c8f8",
            "baseline PredictorCorrector pwl_on_grid 22526a9ab73697d9",
            "baseline PredictorCorrector pwl_off_grid caf7b71df73b8d11",
            "baseline PredictorCorrector pwl_substeps 64027c1226894e59",
            "sis Explicit ramp b55e10df7c0712dd",
            "sis Explicit pwl_on_grid c94d2ab20573c7c8",
            "sis Explicit pwl_off_grid 43956853c8fbd32c",
            "sis Explicit pwl_substeps 0952e9ed37bb625f",
            "sis PredictorCorrector ramp eb1468b125982bfb",
            "sis PredictorCorrector pwl_on_grid 5abb5932a2be8d0b",
            "sis PredictorCorrector pwl_off_grid 1fefc11eb8825948",
            "sis PredictorCorrector pwl_substeps 6ae2efbddebe20a5",
        ];
        assert_eq!(digests, recorded);
    }

    #[test]
    fn each_sub_step_evaluates_the_tables_once_and_the_probe_adds_nothing() {
        let mcsm = synthetic_model();
        let baseline = synthetic_baseline();
        let sis = synthetic_sis();
        let models: [&dyn CellModel; 3] = [&mcsm, &baseline, &sis];
        for model in models {
            let pins = vec![0.6; model.num_pins()];
            let state = vec![0.6; model.num_state_nodes()];
            let (mut miller, mut caps) = (pins.clone(), state.clone());
            let mut currents = vec![0.0; 1 + state.len()];
            let mut eval = model.make_eval_state();
            model.currents(&mut eval, &pins, &state, 0.6, &mut currents);
            let per_currents = eval.lookups();
            model.capacitances(&mut eval, &pins, &state, 0.6, &mut miller, &mut caps);
            let per_evaluation = eval.lookups();

            for integration in [CsmIntegration::Explicit, CsmIntegration::PredictorCorrector] {
                let mut options = CsmSimOptions::new(1.2e-9, 8e-12);
                options.integration = integration;
                let result = Simulation::of(model)
                    .inputs(&staggered_ramps(model.num_pins(), None))
                    .load(2e-15)
                    .options(options.clone())
                    .run()
                    .unwrap();
                // `steps` counts each time step's probe plus its sub-steps.
                let outer = engine_grid(&options).len() as u64 - 1;
                let sub_steps = result.steps - outer;
                assert!(sub_steps > outer, "no step was subdivided");
                let corrector = match integration {
                    CsmIntegration::Explicit => 0,
                    CsmIntegration::PredictorCorrector => per_currents * result.steps,
                };
                assert_eq!(
                    result.lut_evals,
                    per_evaluation * sub_steps + corrector,
                    "{integration:?}: one evaluation per sub-step, none for the probe"
                );
            }
        }
    }

    #[test]
    fn heavier_load_slows_the_transition() {
        let m = synthetic_model();
        let inputs = falling_pair();
        let opts = CsmSimOptions::new(4e-9, 0.5e-12);
        let light = mcsm_sim(&m, &inputs, 1e-15, &opts).run().unwrap();
        let heavy = mcsm_sim(&m, &inputs, 8e-15, &opts).run().unwrap();
        let t_light = light.output.crossing(0.6, true).unwrap();
        let t_heavy = heavy.output.crossing(0.6, true).unwrap();
        assert!(t_heavy > t_light);
    }
}
