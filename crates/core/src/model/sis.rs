//! The single-input-switching (SIS) current-source model of Section 2.1
//! (the model of reference \[5\] in the paper).
//!
//! One input is the switching input; every other input is assumed to sit at its
//! non-controlling value. All components depend only on `(V_in, V_o)`. The paper
//! uses this model as the second comparison point (Fig. 11): when a real MIS
//! event occurs, the SIS model is significantly wrong.

use crate::error::CsmError;
use crate::eval::EvalState;
use crate::model::{CellModel, CAP_GRID, CURRENT_GRID};
use crate::table::{Table1, TableGroup};
use mcsm_num::json::{FromJson, JsonError, JsonValue, ToJson};

/// A single-input-switching current-source model.
#[derive(Debug, Clone, PartialEq)]
pub struct SisModel {
    /// Name of the characterized cell.
    pub cell_name: String,
    /// Supply voltage the model was characterized at (volts).
    pub vdd: f64,
    /// Index of the switching input pin this model was characterized for.
    pub switching_pin: usize,
    /// Logic value the non-switching inputs were held at during characterization.
    pub other_inputs_high: bool,
    /// The output current source `I_o(V_in, V_o)` (amps, into the cell),
    /// alone on its grid.
    pub current_tables: TableGroup<2, 1>,
    /// The capacitances over `(V_in, V_o)`, in this order: the Miller
    /// capacitance `C_m` between the switching input and the output, and the
    /// output parasitic capacitance `C_o` (farads).
    pub cap_tables: TableGroup<2, 2>,
    /// Input pin capacitance of the switching input (farads).
    pub c_in: Table1,
}

impl SisModel {
    /// Model-document key of [`SisModel::current_tables`].
    pub(crate) const CURRENT_TABLES: [&'static str; 1] = ["io"];
    /// Model-document keys of [`SisModel::cap_tables`], in group order.
    pub(crate) const CAP_TABLES: [&'static str; 2] = ["cm", "c_o"];

    /// Output current source (amps, into the cell).
    pub fn output_current(&self, v_in: f64, v_o: f64) -> f64 {
        let [io] = self.current_tables.eval([v_in, v_o]);
        io
    }

    /// The capacitances `(C_m, C_o)` at the given voltages.
    pub fn capacitances(&self, v_in: f64, v_o: f64) -> (f64, f64) {
        let [cm, c_o] = self.cap_tables.eval([v_in, v_o]);
        (cm, c_o)
    }

    /// Input pin capacitance of the switching input.
    pub fn input_capacitance(&self, v_in: f64) -> f64 {
        self.c_in.eval(v_in)
    }
}

impl CellModel for SisModel {
    fn cell_name(&self) -> &str {
        &self.cell_name
    }

    fn vdd(&self) -> f64 {
        self.vdd
    }

    fn num_pins(&self) -> usize {
        1
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
            .eval_with(eval, CURRENT_GRID, [pins[0], v_out]);
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
        let [cm, c_o] = self.cap_tables.eval_with(eval, CAP_GRID, [pins[0], v_out]);
        miller[0] = cm;
        c_o
    }

    fn equilibrium_state(&self, _pins: &[f64], _v_out: f64, _state: &mut [f64]) {}

    fn input_capacitance(&self, pin: usize, v_in: f64) -> Result<f64, CsmError> {
        if pin != 0 {
            return Err(CsmError::InvalidParameter(format!(
                "a SIS model drives one pin; pin {pin} does not exist"
            )));
        }
        Ok(SisModel::input_capacitance(self, v_in))
    }
}

impl ToJson for SisModel {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            (
                "cell_name".into(),
                JsonValue::String(self.cell_name.clone()),
            ),
            ("vdd".into(), JsonValue::Number(self.vdd)),
            (
                "switching_pin".into(),
                JsonValue::Number(self.switching_pin as f64),
            ),
            (
                "other_inputs_high".into(),
                JsonValue::Bool(self.other_inputs_high),
            ),
        ];
        self.current_tables
            .to_json_fields(Self::CURRENT_TABLES, &mut fields);
        self.cap_tables
            .to_json_fields(Self::CAP_TABLES, &mut fields);
        fields.push(("c_in".into(), self.c_in.to_json()));
        JsonValue::Object(fields)
    }
}

impl FromJson for SisModel {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let cell_name = value
            .require("cell_name")?
            .as_str()
            .ok_or_else(|| JsonError("`cell_name` must be a string".into()))?
            .to_string();
        let switching_pin = value
            .require("switching_pin")?
            .as_usize()
            .ok_or_else(|| JsonError("`switching_pin` must be an index".into()))?;
        let model = format!("{cell_name} SIS (pin {switching_pin})");
        Ok(SisModel {
            vdd: value
                .require("vdd")?
                .as_f64()
                .ok_or_else(|| JsonError("`vdd` must be a number".into()))?,
            switching_pin,
            other_inputs_high: value
                .require("other_inputs_high")?
                .as_bool()
                .ok_or_else(|| JsonError("`other_inputs_high` must be a bool".into()))?,
            current_tables: TableGroup::from_json_fields(&model, Self::CURRENT_TABLES, value)?,
            cap_tables: TableGroup::from_json_fields(&model, Self::CAP_TABLES, value)?,
            c_in: Table1::from_json(value.require("c_in")?)?,
            cell_name,
        })
    }
}

#[cfg(test)]
pub(crate) use tests::synthetic_sis;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::voltage_axis;
    use mcsm_num::lut::LutNd;

    pub(crate) fn synthetic_sis() -> SisModel {
        let vdd = 1.2;
        let axes = || vec![voltage_axis(vdd, 0.1, 5).unwrap(); 2];
        // Inverter-like: input high pulls output down.
        let io = LutNd::from_fn(axes(), |v| {
            let (vin, vo) = (v[0], v[1]);
            1e-4 * (vin / vdd) * (vo / vdd) - 1e-4 * ((vdd - vin) / vdd) * ((vdd - vo) / vdd)
        })
        .unwrap();
        let cap = |value: f64| LutNd::from_fn(axes(), move |_| value).unwrap();
        let model = "NOR2 SIS (pin 0)";
        SisModel {
            cell_name: "NOR2".into(),
            vdd,
            switching_pin: 0,
            other_inputs_high: false,
            current_tables: TableGroup::new(model, SisModel::CURRENT_TABLES, [io]).unwrap(),
            cap_tables: TableGroup::new(model, SisModel::CAP_TABLES, [cap(0.5e-15), cap(2e-15)])
                .unwrap(),
            c_in: Table1::from_fn([voltage_axis(vdd, 0.1, 3).unwrap()], |_| 1.5e-15).unwrap(),
        }
    }

    #[test]
    fn evaluation() {
        let m = synthetic_sis();
        assert!(m.output_current(1.2, 1.2) > 0.0);
        assert!(m.output_current(0.0, 0.0) < 0.0);
        let (cm, co) = m.capacitances(0.6, 0.6);
        assert!(cm > 0.0 && co > cm);
        assert!((m.input_capacitance(0.6) - 1.5e-15).abs() < 1e-20);
        assert_eq!(m.switching_pin, 0);
    }

    #[test]
    fn json_round_trip() {
        let m = synthetic_sis();
        let text = m.to_json().to_string_pretty();
        let back = SisModel::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn cell_model_trait_shape() {
        let m = synthetic_sis();
        let model: &dyn CellModel = &m;
        assert_eq!(model.num_pins(), 1);
        assert_eq!(model.num_state_nodes(), 0);
        let mut eval = model.make_eval_state();
        assert_eq!(eval.grids(), 2);
        let mut buf = [0.0];
        model.currents(&mut eval, &[1.2], &[], 1.2, &mut buf);
        assert_eq!(buf[0], m.output_current(1.2, 1.2));
        let mut miller = [0.0];
        let c_o = model.capacitances(&mut eval, &[0.6], &[], 0.6, &mut miller, &mut []);
        let (cm_direct, c_o_direct) = m.capacitances(0.6, 0.6);
        assert_eq!((miller[0], c_o), (cm_direct, c_o_direct));
        assert!(model.input_capacitance(0, 0.6).is_ok());
        assert!(model.input_capacitance(1, 0.6).is_err());
        assert!(model.representative_output_capacitance() > 0.0);
    }
}
