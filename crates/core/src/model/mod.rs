//! The cell-model families compared in the paper, behind one polymorphic trait.
//!
//! * [`sis::SisModel`] — single input switching, no internal node (the model of
//!   reference \[5\]; Section 2.1).
//! * [`mis_baseline::MisBaselineModel`] — multiple input switching without the
//!   internal node (Section 3.1; the ~20 %-error baseline).
//! * [`mcsm::McsmModel`] — the paper's contribution: multiple input switching
//!   with the internal (stack) node modeled explicitly (Sections 3.2–3.4).
//! * [`crate::selective::SelectiveModel`] — the §3.4 selective-modeling wrapper
//!   that picks the complete or the simple model per instance from the load.
//!
//! All four implement [`CellModel`], the uniform evaluation surface consumed by
//! the generic simulation engine ([`crate::sim::simulate`]): a cell is a set of
//! input pins, one output, and zero or more internal state nodes, with
//! voltage-dependent current sources and capacitances attached. The engine never
//! learns which family it is integrating — model choice is data, not code.

pub mod mcsm;
pub mod mis_baseline;
pub mod sis;

pub use mcsm::McsmModel;
pub use mis_baseline::MisBaselineModel;
pub use sis::SisModel;

use crate::error::CsmError;
use crate::eval::EvalState;

/// Uniform evaluation interface over every cell-model family.
///
/// A model exposes `num_pins()` input pins and `num_state_nodes()` internal
/// (stack) nodes next to its output node. All evaluation methods take the pin
/// voltages, the internal-state voltages and the output voltage, and either
/// fill caller-provided buffers (`currents`, `capacitances`,
/// `equilibrium_state`) or return a scalar. Buffer-filling keeps the inner
/// integration loop allocation-free regardless of the model dimensionality,
/// and the [`EvalState`] scratch (one lookup cursor per model table, built
/// once per run by [`make_eval_state`]) keeps the table lookups themselves
/// allocation-free and O(1) amortized across consecutive sub-steps.
///
/// [`currents`] and [`capacitances`] must be pure functions of (pins, state,
/// output voltage): the [`EvalState`] only speeds the lookups up and never
/// changes a result bit. The simulation engine relies on this when one
/// evaluation serves both its step-size probe and its first sub-step.
///
/// The sign convention for every current is *into the cell*: positive output
/// current discharges the output, positive state current discharges its state
/// node — matching the paper's Eqs. (4)–(5).
///
/// [`make_eval_state`]: CellModel::make_eval_state
/// [`currents`]: CellModel::currents
/// [`capacitances`]: CellModel::capacitances
pub trait CellModel {
    /// Name of the characterized cell (e.g. `"NOR2"`).
    fn cell_name(&self) -> &str;

    /// Supply voltage the model was characterized at (volts).
    fn vdd(&self) -> f64;

    /// Number of input pins the model expects to be driven.
    fn num_pins(&self) -> usize;

    /// Number of internal state nodes the model integrates (0 for SIS and
    /// baseline-MIS models, 1 for the complete two-input MCSM).
    fn num_state_nodes(&self) -> usize;

    /// Builds the per-run evaluation scratch: one lookup cursor per table this
    /// model queries from [`currents`] / [`capacitances`]. Create it once per
    /// simulation run and thread it through every evaluation — the cursors are
    /// what make consecutive lookups O(1) amortized.
    ///
    /// [`currents`]: CellModel::currents
    /// [`capacitances`]: CellModel::capacitances
    fn make_eval_state(&self) -> EvalState;

    /// Evaluates the current sources at one operating point.
    ///
    /// Fills `buf[0]` with the output current and `buf[1 + j]` with the current
    /// of state node `j` (amps, into the cell). `eval` must come from this
    /// model's [`make_eval_state`](CellModel::make_eval_state).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `pins`, `state` or `buf` have the wrong
    /// length (`num_pins`, `num_state_nodes`, `1 + num_state_nodes`), or if
    /// `eval` was built for a different model family.
    fn currents(
        &self,
        eval: &mut EvalState,
        pins: &[f64],
        state: &[f64],
        v_out: f64,
        buf: &mut [f64],
    );

    /// Evaluates the capacitances at one operating point.
    ///
    /// Fills `miller[i]` with the Miller coupling between pin `i` and the
    /// output, `state_caps[j]` with the grounded capacitance of state node `j`,
    /// and returns the output parasitic capacitance `C_o` (all farads).
    /// `eval` must come from this model's
    /// [`make_eval_state`](CellModel::make_eval_state).
    ///
    /// # Panics
    ///
    /// Implementations may panic on wrong buffer lengths, as for [`currents`].
    ///
    /// [`currents`]: CellModel::currents
    fn capacitances(
        &self,
        eval: &mut EvalState,
        pins: &[f64],
        state: &[f64],
        v_out: f64,
        miller: &mut [f64],
        state_caps: &mut [f64],
    ) -> f64;

    /// Fills `state` with the DC-equilibrium internal-state voltages implied by
    /// the given pin and output voltages — how a simulation derives its initial
    /// internal condition from the pre-transition logic state, the quantity
    /// whose history dependence the paper studies. A no-op for stateless models.
    fn equilibrium_state(&self, pins: &[f64], v_out: f64, state: &mut [f64]);

    /// Input pin capacitance at the given input voltage, used for receiver
    /// loading (paper Eq. 3).
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::InvalidParameter`] for a pin the model does not have.
    fn input_capacitance(&self, pin: usize, v_in: f64) -> Result<f64, CsmError>;

    /// Sum of the capacitances loading the output node at a representative
    /// mid-transition point — the quantity the §3.4 selective-modeling policy
    /// compares against the external load.
    fn representative_output_capacitance(&self) -> f64 {
        let mid = 0.5 * self.vdd();
        let pins = vec![mid; self.num_pins()];
        let state = vec![mid; self.num_state_nodes()];
        let mut miller = vec![0.0; self.num_pins()];
        let mut state_caps = vec![0.0; self.num_state_nodes()];
        let mut eval = self.make_eval_state();
        let c_o = self.capacitances(&mut eval, &pins, &state, mid, &mut miller, &mut state_caps);
        c_o + miller.iter().sum::<f64>()
    }
}

/// References to a model evaluate like the model itself, so `Box<dyn CellModel>`
/// handles produced by [`crate::store::ModelStore::resolve`] can wrap borrowed
/// models without cloning their tables.
impl<M: CellModel + ?Sized> CellModel for &M {
    fn cell_name(&self) -> &str {
        (**self).cell_name()
    }
    fn vdd(&self) -> f64 {
        (**self).vdd()
    }
    fn num_pins(&self) -> usize {
        (**self).num_pins()
    }
    fn num_state_nodes(&self) -> usize {
        (**self).num_state_nodes()
    }
    fn make_eval_state(&self) -> EvalState {
        (**self).make_eval_state()
    }
    fn currents(
        &self,
        eval: &mut EvalState,
        pins: &[f64],
        state: &[f64],
        v_out: f64,
        buf: &mut [f64],
    ) {
        (**self).currents(eval, pins, state, v_out, buf);
    }
    fn capacitances(
        &self,
        eval: &mut EvalState,
        pins: &[f64],
        state: &[f64],
        v_out: f64,
        miller: &mut [f64],
        state_caps: &mut [f64],
    ) -> f64 {
        (**self).capacitances(eval, pins, state, v_out, miller, state_caps)
    }
    fn equilibrium_state(&self, pins: &[f64], v_out: f64, state: &mut [f64]) {
        (**self).equilibrium_state(pins, v_out, state);
    }
    fn input_capacitance(&self, pin: usize, v_in: f64) -> Result<f64, CsmError> {
        (**self).input_capacitance(pin, v_in)
    }
    fn representative_output_capacitance(&self) -> f64 {
        (**self).representative_output_capacitance()
    }
}
