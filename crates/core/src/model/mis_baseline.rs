//! The baseline MIS current-source model (Section 3.1 of the paper): multiple
//! input switching is modeled, but the internal stack node is **not** — every
//! component depends only on `(V_A, V_B, V_o)`.
//!
//! This is the model the paper shows to mis-predict delay by ~20 % for lightly
//! loaded cells whose internal node carries history; it exists here as the
//! comparison baseline for Fig. 9.

use crate::error::CsmError;
use crate::eval::EvalState;
use crate::model::{CellModel, CAP_GRID, CURRENT_GRID};
use crate::table::{Table1, TableGroup};
use mcsm_num::json::{FromJson, JsonError, JsonValue, ToJson};

/// A MIS current-source model without internal-node state.
#[derive(Debug, Clone, PartialEq)]
pub struct MisBaselineModel {
    /// Name of the characterized cell.
    pub cell_name: String,
    /// Supply voltage the model was characterized at (volts).
    pub vdd: f64,
    /// The output current source `I_o(V_A, V_B, V_o)` (amps, into the cell),
    /// alone on its grid.
    pub current_tables: TableGroup<3, 1>,
    /// The capacitances over `(V_A, V_B, V_o)`, in this order: the Miller
    /// capacitances `C_mA` and `C_mB` between each input and the output, and
    /// the output parasitic capacitance `C_o` (farads).
    pub cap_tables: TableGroup<3, 3>,
    /// Input pin capacitance of A (farads).
    pub c_in_a: Table1,
    /// Input pin capacitance of B (farads).
    pub c_in_b: Table1,
}

impl MisBaselineModel {
    /// Model-document key of [`MisBaselineModel::current_tables`].
    pub(crate) const CURRENT_TABLES: [&'static str; 1] = ["io"];
    /// Model-document keys of [`MisBaselineModel::cap_tables`], in group order.
    pub(crate) const CAP_TABLES: [&'static str; 3] = ["cm_a", "cm_b", "c_o"];

    /// Output current source (amps, into the cell).
    pub fn output_current(&self, v_a: f64, v_b: f64, v_o: f64) -> f64 {
        let [io] = self.current_tables.eval([v_a, v_b, v_o]);
        io
    }

    /// The capacitances `(C_mA, C_mB, C_o)` at the given node voltages.
    pub fn capacitances(&self, v_a: f64, v_b: f64, v_o: f64) -> (f64, f64, f64) {
        let [cm_a, cm_b, c_o] = self.cap_tables.eval([v_a, v_b, v_o]);
        (cm_a, cm_b, c_o)
    }

    /// Input pin capacitance of pin `A` (`pin = 0`) or `B` (`pin = 1`).
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::InvalidParameter`] for other pin indices.
    pub fn input_capacitance(&self, pin: usize, v_in: f64) -> Result<f64, CsmError> {
        match pin {
            0 => Ok(self.c_in_a.eval(v_in)),
            1 => Ok(self.c_in_b.eval(v_in)),
            _ => Err(CsmError::InvalidParameter(format!(
                "baseline MIS model has two inputs; pin {pin} does not exist"
            ))),
        }
    }
}

impl CellModel for MisBaselineModel {
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
        0
    }

    fn currents(
        &self,
        eval: &mut EvalState,
        pins: &[f64],
        _state: &[f64],
        v_out: f64,
        buf: &mut [f64],
    ) {
        let [io] = self
            .current_tables
            .eval_with(eval, CURRENT_GRID, [pins[0], pins[1], v_out]);
        buf[0] = io;
    }

    fn capacitances(
        &self,
        eval: &mut EvalState,
        pins: &[f64],
        _state: &[f64],
        v_out: f64,
        miller: &mut [f64],
        _state_caps: &mut [f64],
    ) -> f64 {
        let [cm_a, cm_b, c_o] =
            self.cap_tables
                .eval_with(eval, CAP_GRID, [pins[0], pins[1], v_out]);
        miller[0] = cm_a;
        miller[1] = cm_b;
        c_o
    }

    fn equilibrium_state(&self, _pins: &[f64], _v_out: f64, _state: &mut [f64]) {}

    fn input_capacitance(&self, pin: usize, v_in: f64) -> Result<f64, CsmError> {
        MisBaselineModel::input_capacitance(self, pin, v_in)
    }
}

impl ToJson for MisBaselineModel {
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

impl FromJson for MisBaselineModel {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let cell_name = value
            .require("cell_name")?
            .as_str()
            .ok_or_else(|| JsonError("`cell_name` must be a string".into()))?
            .to_string();
        let model = format!("{cell_name} baseline MIS");
        Ok(MisBaselineModel {
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
pub(crate) use tests::synthetic_baseline;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::voltage_axis;
    use mcsm_num::lut::LutNd;

    pub(crate) fn synthetic_baseline() -> MisBaselineModel {
        let vdd = 1.2;
        let axes = || vec![voltage_axis(vdd, 0.1, 5).unwrap(); 3];
        let io = LutNd::from_fn(axes(), |v| {
            let (va, vb, vo) = (v[0], v[1], v[2]);
            1e-4 * ((va + vb) / vdd) * (vo / vdd)
                - 1e-4 * ((vdd - va) / vdd) * ((vdd - vb) / vdd) * ((vdd - vo) / vdd)
        })
        .unwrap();
        let cap = |value: f64| LutNd::from_fn(axes(), move |_| value).unwrap();
        let cin = |value: f64| {
            Table1::from_fn([voltage_axis(vdd, 0.1, 3).unwrap()], move |_| value).unwrap()
        };
        let model = "NOR2 baseline MIS";
        MisBaselineModel {
            cell_name: "NOR2".into(),
            vdd,
            current_tables: TableGroup::new(model, MisBaselineModel::CURRENT_TABLES, [io]).unwrap(),
            cap_tables: TableGroup::new(
                model,
                MisBaselineModel::CAP_TABLES,
                [cap(0.5e-15), cap(0.4e-15), cap(2e-15)],
            )
            .unwrap(),
            c_in_a: cin(1.5e-15),
            c_in_b: cin(1.4e-15),
        }
    }

    #[test]
    fn evaluation_and_errors() {
        let m = synthetic_baseline();
        assert!(m.output_current(1.2, 1.2, 1.2) > 0.0);
        assert!(m.output_current(0.0, 0.0, 0.0) < 0.0);
        let (a, b, o) = m.capacitances(0.6, 0.6, 0.6);
        assert!(a > 0.0 && b > 0.0 && o > 0.0);
        assert!(m.input_capacitance(0, 0.6).is_ok());
        assert!(m.input_capacitance(3, 0.6).is_err());
    }

    #[test]
    fn json_round_trip() {
        let m = synthetic_baseline();
        let text = m.to_json().to_string_pretty();
        let back = MisBaselineModel::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn cell_model_trait_shape() {
        let m = synthetic_baseline();
        let model: &dyn CellModel = &m;
        assert_eq!((model.num_pins(), model.num_state_nodes()), (2, 0));
        let mut eval = model.make_eval_state();
        assert_eq!(eval.grids(), 2);
        let mut buf = [0.0];
        model.currents(&mut eval, &[1.2, 1.2], &[], 1.2, &mut buf);
        assert_eq!(buf[0], m.output_current(1.2, 1.2, 1.2));
        let mut miller = [0.0; 2];
        let c_o = model.capacitances(&mut eval, &[0.6, 0.6], &[], 0.6, &mut miller, &mut []);
        let (cm_a, cm_b, c_o_direct) = m.capacitances(0.6, 0.6, 0.6);
        assert_eq!((miller[0], miller[1], c_o), (cm_a, cm_b, c_o_direct));
    }
}
