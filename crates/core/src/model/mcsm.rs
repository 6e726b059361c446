//! The complete MCSM: the paper's multiple-input-switching current-source model
//! with an explicit internal (stack) node.
//!
//! The model consists of (Fig. 8 of the paper):
//!
//! * two nonlinear current sources, `I_o(V_A, V_B, V_N, V_o)` at the output and
//!   `I_N(V_A, V_B, V_N, V_o)` at the internal node,
//! * six nonlinear capacitances: the Miller couplings `C_mA`, `C_mB`, the output
//!   capacitance `C_o`, the internal-node capacitance `C_N` (all 4-dimensional),
//!   and the input pin capacitances `C_A`, `C_B` (1-dimensional, Eq. 3).
//!
//! The sign convention for both current sources is *current flowing from the node
//! into the cell*: positive `I_o` discharges the output, positive `I_N`
//! discharges the internal node, matching Eqs. (4) and (5).

use crate::error::CsmError;
use crate::eval::EvalState;
use crate::model::{CellModel, CAP_GRID, CURRENT_GRID, GRIDS};
use crate::table::{Table1, TableGroup};
use mcsm_num::json::{FromJson, JsonError, JsonValue, ToJson};

/// The complete multiple-input-switching current-source model of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct McsmModel {
    /// Name of the characterized cell (e.g. `"NOR2"`).
    pub cell_name: String,
    /// Supply voltage the model was characterized at (volts).
    pub vdd: f64,
    /// The current sources over `(V_A, V_B, V_N, V_o)`, in this order: the
    /// output current `I_o` and the internal-node current `I_N` (amps, into
    /// the cell).
    pub current_tables: TableGroup<4, 2>,
    /// The capacitances over `(V_A, V_B, V_N, V_o)`, in this order: the
    /// Miller capacitances `C_mA` and `C_mB` between each input and the
    /// output, the output parasitic capacitance `C_o` and the internal-node
    /// capacitance `C_N` (farads).
    pub cap_tables: TableGroup<4, 4>,
    /// Input pin capacitance of A (farads), used for receiver loading.
    pub c_in_a: Table1,
    /// Input pin capacitance of B (farads), used for receiver loading.
    pub c_in_b: Table1,
}

impl McsmModel {
    /// Model-document keys of [`McsmModel::current_tables`], in group order.
    pub(crate) const CURRENT_TABLES: [&'static str; 2] = ["io", "i_n"];
    /// Model-document keys of [`McsmModel::cap_tables`], in group order.
    pub(crate) const CAP_TABLES: [&'static str; 4] = ["cm_a", "cm_b", "c_o", "c_n"];

    /// Output current source at the given node voltages (amps, into the cell).
    pub fn output_current(&self, v_a: f64, v_b: f64, v_n: f64, v_o: f64) -> f64 {
        self.current_tables.eval([v_a, v_b, v_n, v_o])[0]
    }

    /// Internal-node current source at the given node voltages (amps, into the cell).
    pub fn internal_current(&self, v_a: f64, v_b: f64, v_n: f64, v_o: f64) -> f64 {
        self.current_tables.eval([v_a, v_b, v_n, v_o])[1]
    }

    /// The four capacitances `(C_mA, C_mB, C_o, C_N)` at the given node voltages.
    pub fn capacitances(&self, v_a: f64, v_b: f64, v_n: f64, v_o: f64) -> (f64, f64, f64, f64) {
        let [cm_a, cm_b, c_o, c_n] = self.cap_tables.eval([v_a, v_b, v_n, v_o]);
        (cm_a, cm_b, c_o, c_n)
    }

    /// Input pin capacitance of pin `A` (`pin = 0`) or `B` (`pin = 1`) at the given
    /// input voltage.
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::InvalidParameter`] for other pin indices.
    pub fn input_capacitance(&self, pin: usize, v_in: f64) -> Result<f64, CsmError> {
        match pin {
            0 => Ok(self.c_in_a.eval(v_in)),
            1 => Ok(self.c_in_b.eval(v_in)),
            _ => Err(CsmError::InvalidParameter(format!(
                "MCSM has two inputs; pin {pin} does not exist"
            ))),
        }
    }

    /// Finds the DC-equilibrium internal-node voltage for the given input and
    /// output voltages by locating the `V_N` that minimizes `|I_N|` over the
    /// characterized range (refined with a local bisection when a sign change
    /// exists).
    ///
    /// This is how a simulation decides the *initial* internal-node voltage from
    /// the pre-transition logic state — the quantity whose history dependence the
    /// paper studies.
    pub fn equilibrium_internal_voltage(&self, v_a: f64, v_b: f64, v_o: f64) -> f64 {
        // The scan walks V_N monotonically with every other coordinate fixed,
        // and the bisection stays inside one bracketing cell — exactly the
        // temporally coherent access pattern the lookup cursor turns into O(1)
        // lookups (bit-identical to the reference evaluation).
        let mut eval = EvalState::fast(GRIDS);
        let mut i_at = |v_n: f64| {
            self.current_tables
                .eval_with(&mut eval, CURRENT_GRID, [v_a, v_b, v_n, v_o])[1]
        };
        let points = self.current_tables.axes()[2].points();
        // Coarse scan for the minimum |I_N| and for a sign change.
        let mut best_v = points[0];
        let mut best_abs = f64::INFINITY;
        let mut bracket: Option<(f64, f64, f64, f64)> = None;
        let mut prev: Option<(f64, f64)> = None;
        for &v_n in points {
            let i = i_at(v_n);
            if i.abs() < best_abs {
                best_abs = i.abs();
                best_v = v_n;
            }
            if let Some((pv, pi)) = prev {
                if pi.signum() != i.signum() && pi != 0.0 && i != 0.0 && bracket.is_none() {
                    bracket = Some((pv, v_n, pi, i));
                }
            }
            prev = Some((v_n, i));
        }
        if let Some((lo, hi, _, _)) = bracket {
            // Bisection refinement inside the bracketing cell.
            let mut lo = lo;
            let mut hi = hi;
            let mut f_lo = i_at(lo);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                let f_mid = i_at(mid);
                if f_mid == 0.0 || (hi - lo) < 1e-9 {
                    return mid;
                }
                if f_mid.signum() == f_lo.signum() {
                    lo = mid;
                    f_lo = f_mid;
                } else {
                    hi = mid;
                }
            }
            return 0.5 * (lo + hi);
        }
        best_v
    }

    /// Sum of the capacitances loading the output node at a representative
    /// mid-transition point — used by the selective-modeling policy to compare
    /// the cell's own (diffusion) capacitance against the external load.
    pub fn representative_output_capacitance(&self) -> f64 {
        let mid = 0.5 * self.vdd;
        let (cm_a, cm_b, c_o, _) = self.capacitances(mid, mid, mid, mid);
        cm_a + cm_b + c_o
    }
}

impl CellModel for McsmModel {
    fn cell_name(&self) -> &str {
        &self.cell_name
    }

    fn vdd(&self) -> f64 {
        self.vdd
    }

    fn num_pins(&self) -> usize {
        2
    }

    fn num_state_nodes(&self) -> usize {
        1
    }

    fn currents(
        &self,
        eval: &mut EvalState,
        pins: &[f64],
        state: &[f64],
        v_out: f64,
        buf: &mut [f64],
    ) {
        let coords = [pins[0], pins[1], state[0], v_out];
        let [io, i_n] = self.current_tables.eval_with(eval, CURRENT_GRID, coords);
        buf[0] = io;
        buf[1] = i_n;
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
        let coords = [pins[0], pins[1], state[0], v_out];
        let [cm_a, cm_b, c_o, c_n] = self.cap_tables.eval_with(eval, CAP_GRID, coords);
        miller[0] = cm_a;
        miller[1] = cm_b;
        state_caps[0] = c_n;
        c_o
    }

    fn equilibrium_state(&self, pins: &[f64], v_out: f64, state: &mut [f64]) {
        state[0] = self.equilibrium_internal_voltage(pins[0], pins[1], v_out);
    }

    fn input_capacitance(&self, pin: usize, v_in: f64) -> Result<f64, CsmError> {
        McsmModel::input_capacitance(self, pin, v_in)
    }

    fn representative_output_capacitance(&self) -> f64 {
        McsmModel::representative_output_capacitance(self)
    }
}

impl ToJson for McsmModel {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            (
                "cell_name".into(),
                JsonValue::String(self.cell_name.clone()),
            ),
            ("vdd".into(), JsonValue::Number(self.vdd)),
        ];
        self.current_tables
            .to_json_fields(Self::CURRENT_TABLES, &mut fields);
        self.cap_tables
            .to_json_fields(Self::CAP_TABLES, &mut fields);
        fields.push(("c_in_a".into(), self.c_in_a.to_json()));
        fields.push(("c_in_b".into(), self.c_in_b.to_json()));
        JsonValue::Object(fields)
    }
}

impl FromJson for McsmModel {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let cell_name = value
            .require("cell_name")?
            .as_str()
            .ok_or_else(|| JsonError("`cell_name` must be a string".into()))?
            .to_string();
        let model = format!("{cell_name} MCSM");
        Ok(McsmModel {
            vdd: value
                .require("vdd")?
                .as_f64()
                .ok_or_else(|| JsonError("`vdd` must be a number".into()))?,
            current_tables: TableGroup::from_json_fields(&model, Self::CURRENT_TABLES, value)?,
            cap_tables: TableGroup::from_json_fields(&model, Self::CAP_TABLES, value)?,
            c_in_a: Table1::from_json(value.require("c_in_a")?)?,
            c_in_b: Table1::from_json(value.require("c_in_b")?)?,
            cell_name,
        })
    }
}

#[cfg(test)]
pub(crate) use tests::synthetic_model;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{voltage_axis, Table1};
    use mcsm_num::lut::LutNd;

    /// Builds a synthetic model whose components are simple analytic functions —
    /// enough to test the evaluation plumbing without running characterization.
    pub(crate) fn synthetic_model() -> McsmModel {
        let vdd = 1.2;
        let axes = || vec![voltage_axis(vdd, 0.1, 5).unwrap(); 4];
        // A NOR2-like output current: pulls down when any input is high, pulls up
        // when both are low, scaled to ~100 µA. The pull-up strength depends on
        // the internal-node voltage (a discharged stack node weakens the drive),
        // which is the mechanism the MCSM exists to capture.
        let io = LutNd::from_fn(axes(), |v| {
            let (va, vb, vn, vo) = (v[0], v[1], v[2], v[3]);
            let stack_strength = 0.25 + 0.75 * (vn / vdd).clamp(0.0, 1.0);
            let pull_down = 1e-4 * ((va / vdd).max(0.0) + (vb / vdd).max(0.0)) * (vo / vdd);
            let pull_up = -1e-4
                * ((1.0 - va / vdd).max(0.0) * (1.0 - vb / vdd).max(0.0))
                * ((vdd - vo) / vdd)
                * stack_strength;
            pull_down + pull_up
        })
        .unwrap();
        // Internal node current: drives V_N towards Vdd when both inputs are low,
        // towards V_o when A is low and B is high.
        let i_n = LutNd::from_fn(axes(), |v| {
            let (va, vb, vn, vo) = (v[0], v[1], v[2], v[3]);
            let to_vdd = (1.0 - vb / vdd).max(0.0) * (vn - vdd) * 1e-4 / vdd;
            let to_out = (1.0 - va / vdd).max(0.0) * (vn - vo) * 1e-4 / vdd;
            to_vdd + to_out
        })
        .unwrap();
        let cap = |value: f64| LutNd::from_fn(axes(), move |_| value).unwrap();
        let cin = |value: f64| {
            Table1::from_fn([voltage_axis(vdd, 0.1, 3).unwrap()], move |_| value).unwrap()
        };
        let model = "NOR2 MCSM";
        McsmModel {
            cell_name: "NOR2".into(),
            vdd,
            current_tables: TableGroup::new(model, McsmModel::CURRENT_TABLES, [io, i_n]).unwrap(),
            cap_tables: TableGroup::new(
                model,
                McsmModel::CAP_TABLES,
                [cap(0.5e-15), cap(0.4e-15), cap(2e-15), cap(1e-15)],
            )
            .unwrap(),
            c_in_a: cin(1.5e-15),
            c_in_b: cin(1.4e-15),
        }
    }

    #[test]
    fn component_evaluation() {
        let m = synthetic_model();
        // Both inputs high, output high → strong pull-down (positive I_o).
        assert!(m.output_current(1.2, 1.2, 1.2, 1.2) > 0.0);
        // Both inputs low, output low → pull-up (negative I_o).
        assert!(m.output_current(0.0, 0.0, 1.2, 0.0) < 0.0);
        let (cma, cmb, co, cn) = m.capacitances(0.6, 0.6, 0.6, 0.6);
        assert!((cma - 0.5e-15).abs() < 1e-20);
        assert!((cmb - 0.4e-15).abs() < 1e-20);
        assert!((co - 2e-15).abs() < 1e-20);
        assert!((cn - 1e-15).abs() < 1e-20);
    }

    #[test]
    fn input_capacitance_lookup() {
        let m = synthetic_model();
        assert!((m.input_capacitance(0, 0.6).unwrap() - 1.5e-15).abs() < 1e-20);
        assert!((m.input_capacitance(1, 0.6).unwrap() - 1.4e-15).abs() < 1e-20);
        assert!(m.input_capacitance(2, 0.6).is_err());
    }

    #[test]
    fn equilibrium_internal_voltage_follows_input_state() {
        let m = synthetic_model();
        // With B low the internal node is pulled towards Vdd (table interpolation
        // on the coarse synthetic grid leaves a small offset).
        let v_10 = m.equilibrium_internal_voltage(1.2, 0.0, 0.0);
        assert!(v_10 > 0.9 * 1.2, "v_10 = {v_10}");
        // With A low and B high it is pulled to the output voltage (here 0).
        let v_01 = m.equilibrium_internal_voltage(0.0, 1.2, 0.0);
        assert!(v_01 < 0.3, "v_01 = {v_01}");
    }

    #[test]
    fn representative_capacitance_is_positive() {
        let m = synthetic_model();
        let c = m.representative_output_capacitance();
        assert!(c > 0.0 && c < 1e-12);
    }

    #[test]
    fn json_round_trip() {
        let m = synthetic_model();
        let text = m.to_json().to_string_pretty();
        let back = McsmModel::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn a_document_whose_grouped_tables_differ_in_grid_is_rejected() {
        // Swap `c_o` for a table of the right shape on a finer grid: the
        // capacitance group would evaluate it at another table's cells.
        let mut doc = synthetic_model().to_json();
        let finer = LutNd::from_fn(vec![voltage_axis(1.2, 0.1, 6).unwrap(); 4], |_| 2e-15).unwrap();
        let JsonValue::Object(fields) = &mut doc else {
            unreachable!("a model serializes to an object")
        };
        let c_o = fields.iter_mut().find(|(k, _)| k == "c_o").unwrap();
        c_o.1 = finer.to_json();
        let text = doc.to_string_pretty();
        let err = McsmModel::from_json(&JsonValue::parse(&text).unwrap())
            .unwrap_err()
            .to_string();
        assert!(err.contains("NOR2 MCSM"), "{err}");
        assert!(
            err.contains("`c_o` is not sampled on the grid of `cm_a`"),
            "{err}"
        );
    }

    #[test]
    fn cell_model_trait_matches_inherent_methods() {
        let m = synthetic_model();
        let model: &dyn CellModel = &m;
        assert_eq!(model.num_pins(), 2);
        assert_eq!(model.num_state_nodes(), 1);
        assert_eq!(model.cell_name(), "NOR2");
        assert!((model.vdd() - 1.2).abs() < 1e-12);

        let pins = [0.9, 0.4];
        let state = [0.7];
        let v_o = 0.5;
        let mut eval = model.make_eval_state();
        assert_eq!(eval.grids(), 2);
        let mut currents = [0.0; 2];
        model.currents(&mut eval, &pins, &state, v_o, &mut currents);
        assert_eq!(currents[0], m.output_current(0.9, 0.4, 0.7, 0.5));
        assert_eq!(currents[1], m.internal_current(0.9, 0.4, 0.7, 0.5));

        let mut miller = [0.0; 2];
        let mut state_caps = [0.0; 1];
        let c_o = model.capacitances(&mut eval, &pins, &state, v_o, &mut miller, &mut state_caps);
        let (cm_a, cm_b, c_o_direct, c_n) = m.capacitances(0.9, 0.4, 0.7, 0.5);
        assert_eq!(
            (miller[0], miller[1], c_o, state_caps[0]),
            (cm_a, cm_b, c_o_direct, c_n)
        );

        let mut eq = [0.0];
        model.equilibrium_state(&[1.2, 0.0], 0.0, &mut eq);
        assert_eq!(eq[0], m.equilibrium_internal_voltage(1.2, 0.0, 0.0));
    }
}
