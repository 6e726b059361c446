//! Voltage-indexed lookup tables used by the current-source models.
//!
//! All model components are stored as [`LutNd`] tables over voltage axes. The
//! wrappers here fix the axis count per use and give the query sites readable
//! names:
//!
//! * [`TableGroup`] — the tables of one model that characterization samples
//!   on one grid, looked up together: the currents and the capacitances of
//!   the paper's 4-dimensional MCSM over `(V_A, V_B, V_N, V_o)`, of the
//!   baseline MIS model over `(V_A, V_B, V_o)` (Section 3.1) and of the
//!   single-input-switching model over `(V_in, V_o)` (Section 2.1);
//! * [`Table1`] — `(V_in)`, input pin capacitances (Eq. 3).

use crate::eval::{EvalMode, EvalState};
use mcsm_num::grid::Axis;
use mcsm_num::json::{FromJson, JsonError, JsonValue, ToJson};
use mcsm_num::lut::{LutCursor, LutGroup, LutNd};
use mcsm_num::NumError;

/// Why a table lookup cannot fail: the constructors fix the axis count, and
/// the callers pass finite voltages.
const VALID_QUERY: &str = "constructor guarantees the axis count; coordinates must be finite";

/// `N` tables of `D` voltage axes sampled on one grid, looked up together.
///
/// A model evaluates all of them at the same point on every engine sub-step,
/// so one lookup locates the point once and returns every table's value (see
/// `mcsm_num::lut::LutGroup`). [`TableGroup::new`] rejects tables with the
/// wrong axis count or on another grid, naming the model and the table, so a
/// group can only hold tables it evaluates correctly.
#[derive(Debug, Clone, PartialEq)]
pub struct TableGroup<const D: usize, const N: usize> {
    luts: LutGroup<N>,
}

impl<const D: usize, const N: usize> TableGroup<D, N> {
    /// Groups `luts`; `model` and `names` only label the errors.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidGrid`] naming `model` and the table if a
    /// table does not have `D` axes or is not sampled on the first table's
    /// grid.
    pub fn new(model: &str, names: [&str; N], luts: [LutNd; N]) -> Result<Self, NumError> {
        if let Some((name, lut)) = names.iter().zip(&luts).find(|(_, l)| l.dimensions() != D) {
            return Err(NumError::InvalidGrid(format!(
                "{model}: table `{name}` needs {D} axes, got {}",
                lut.dimensions()
            )));
        }
        let luts = LutGroup::new(luts).map_err(|e| match e {
            NumError::MismatchedAxes { table } => NumError::InvalidGrid(format!(
                "{model}: table `{}` is not sampled on the grid of `{}`",
                names[table], names[0]
            )),
            other => other,
        })?;
        Ok(TableGroup { luts })
    }

    /// Reads the group from a model document, table `names[j]` from the key of
    /// that name.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if a key is missing or holds no valid table,
    /// or if the tables do not form a group (see [`TableGroup::new`]).
    pub fn from_json_fields(
        model: &str,
        names: [&str; N],
        doc: &JsonValue,
    ) -> Result<Self, JsonError> {
        let luts: Vec<LutNd> = names
            .iter()
            .map(|name| LutNd::from_json(doc.require(name)?))
            .collect::<Result<_, _>>()?;
        let luts = luts.try_into().expect("one table per name");
        TableGroup::new(model, names, luts).map_err(|e| JsonError(format!("invalid model: {e}")))
    }

    /// Appends one `(name, table)` field per table to a model document.
    pub fn to_json_fields(&self, names: [&str; N], fields: &mut Vec<(String, JsonValue)>) {
        for (name, lut) in names.iter().zip(self.luts.tables()) {
            fields.push((name.to_string(), lut.to_json()));
        }
    }

    /// Table `table` of the group, in construction order.
    ///
    /// # Panics
    ///
    /// Panics if `table >= N`.
    pub fn lut(&self, table: usize) -> &LutNd {
        &self.luts.tables()[table]
    }

    /// The grid every table of the group is sampled on.
    pub fn axes(&self) -> &[Axis] {
        self.luts.axes()
    }

    /// Every table at `coords`, through a fresh cursor — the cold-path lookup
    /// for queries outside a simulation run.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is NaN.
    pub fn eval(&self, coords: [f64; D]) -> [f64; N] {
        self.luts
            .eval_with_cursor(&mut LutCursor::new(), &coords)
            .expect(VALID_QUERY)
    }

    /// Every table at `coords`, through the cursor of `grid` in `st`, counting
    /// one lookup per table. Bit-identical to [`eval`](Self::eval) and O(1)
    /// amortized on the temporally coherent queries of a simulation run. In
    /// [`EvalMode::Reference`] each table runs the allocating `LutNd::eval`
    /// instead (the benchmark baseline).
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is NaN or `grid` is out of range for the
    /// state.
    pub fn eval_with(&self, st: &mut EvalState, grid: usize, coords: [f64; D]) -> [f64; N] {
        st.count_lookups(N as u64);
        match st.mode() {
            EvalMode::Fast => self
                .luts
                .eval_with_cursor(st.cursor(grid), &coords)
                .expect(VALID_QUERY),
            EvalMode::Reference => self
                .luts
                .tables()
                .each_ref()
                .map(|lut| lut.eval(&coords).expect(VALID_QUERY)),
        }
    }
}

/// A 1-D table over `(V_in)` — input pin capacitances.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    lut: LutNd,
}

impl Table1 {
    /// Wraps a lookup table, checking its dimensionality.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidQuery`] if the table does not have one axis.
    pub fn new(lut: LutNd) -> Result<Self, NumError> {
        if lut.dimensions() != 1 {
            return Err(NumError::InvalidQuery(format!(
                "Table1 needs 1 axis, got {}",
                lut.dimensions()
            )));
        }
        Ok(Table1 { lut })
    }

    /// Builds a table by sampling `f` on the given axis.
    ///
    /// # Errors
    ///
    /// Propagates grid-construction errors.
    pub fn from_fn<F: FnMut(&[f64]) -> f64>(axes: [Axis; 1], f: F) -> Result<Self, NumError> {
        Table1::new(LutNd::from_fn(axes.to_vec(), f)?)
    }

    /// Evaluates the table by linear interpolation (allocation-free
    /// fixed-arity path).
    ///
    /// # Panics
    ///
    /// Panics if `v_in` is NaN.
    pub fn eval(&self, v_in: f64) -> f64 {
        self.lut.eval_fixed(&[v_in]).expect(VALID_QUERY)
    }

    /// The underlying lookup table.
    pub fn lut(&self) -> &LutNd {
        &self.lut
    }
}

impl ToJson for Table1 {
    fn to_json(&self) -> JsonValue {
        self.lut.to_json()
    }
}

impl FromJson for Table1 {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let lut = LutNd::from_json(value)?;
        Table1::new(lut).map_err(|e| JsonError(format!("invalid table: {e}")))
    }
}

/// Builds the voltage axis used by every table: `[-margin, vdd + margin]` with
/// `points` samples.
///
/// # Errors
///
/// Propagates axis-construction errors.
pub fn voltage_axis(vdd: f64, margin: f64, points: usize) -> Result<Axis, NumError> {
    Axis::voltage_with_margin(vdd, margin, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis(n: usize) -> Axis {
        Axis::uniform(0.0, 1.2, n).unwrap()
    }

    fn lut(axes: Vec<Axis>, f: impl Fn(&[f64]) -> f64) -> LutNd {
        LutNd::from_fn(axes, f).unwrap()
    }

    #[test]
    fn group_evaluates_every_table_at_one_point() {
        let grid = vec![axis(3), axis(3), axis(3), axis(3)];
        let group = TableGroup::<4, 2>::new(
            "NOR2 MCSM",
            ["io", "i_n"],
            [
                lut(grid.clone(), |v| {
                    v[0] + 2.0 * v[1] + 3.0 * v[2] + 4.0 * v[3]
                }),
                lut(grid.clone(), |v| v[3] - v[2]),
            ],
        )
        .unwrap();
        let [io, i_n] = group.eval([0.3, 0.6, 0.9, 1.2]);
        assert!((io - (0.3 + 1.2 + 2.7 + 4.8)).abs() < 1e-12);
        assert!((i_n - 0.3).abs() < 1e-12);
        assert_eq!(group.lut(1).dimensions(), 4);
        assert_eq!(group.axes(), &grid[..]);
    }

    #[test]
    fn group_rejects_wrong_dimensions_and_foreign_grids_by_name() {
        let grid = vec![axis(3), axis(3)];
        let err = TableGroup::<3, 2>::new(
            "INV SIS",
            ["cm", "c_o"],
            [lut(grid.clone(), |v| v[0]), lut(grid.clone(), |v| v[0])],
        )
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("INV SIS") && err.contains("`cm` needs 3 axes"),
            "{err}"
        );

        let err = TableGroup::<2, 2>::new(
            "INV SIS",
            ["cm", "c_o"],
            [lut(grid, |v| v[0]), lut(vec![axis(3), axis(4)], |v| v[0])],
        )
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("INV SIS") && err.contains("`c_o` is not sampled on the grid of `cm`"),
            "{err}"
        );
    }

    #[test]
    fn table1_evaluates_and_checks_its_axis_count() {
        let t1 = Table1::from_fn([axis(5)], |v| 2.0 * v[0]).unwrap();
        assert!((t1.eval(0.6) - 1.2).abs() < 1e-12);
        assert!(Table1::new(lut(vec![axis(3), axis(3)], |v| v[0])).is_err());
    }

    #[test]
    fn voltage_axis_covers_margin() {
        let a = voltage_axis(1.2, 0.1, 5).unwrap();
        assert!((a.min() + 0.1).abs() < 1e-12);
        assert!((a.max() - 1.3).abs() < 1e-12);
        assert!(voltage_axis(1.2, 0.1, 1).is_err());
    }

    #[test]
    fn eval_with_matches_eval_in_both_modes() {
        let grid = vec![axis(3), axis(4), axis(3), axis(5)];
        let group = TableGroup::<4, 2>::new(
            "test",
            ["a", "b"],
            [
                lut(grid.clone(), |v| (v[0] - 0.3) * v[1] + v[2] * v[3]),
                lut(grid, |v| v[0] * v[3] - v[1]),
            ],
        )
        .unwrap();
        let mut fast = EvalState::fast(1);
        let mut reference = EvalState::fast(1);
        reference.set_mode(EvalMode::Reference);
        let mut q = [0.0, 1.2, 0.6, 0.9];
        for step in 0..50 {
            q[0] = 0.02 * step as f64;
            q[3] = 1.2 - 0.02 * step as f64;
            let want = group.eval(q).map(f64::to_bits);
            let got_fast = group.eval_with(&mut fast, 0, q).map(f64::to_bits);
            let got_ref = group.eval_with(&mut reference, 0, q).map(f64::to_bits);
            assert_eq!(want, got_fast, "fast at {q:?}");
            assert_eq!(want, got_ref, "reference at {q:?}");
            for (j, &bits) in want.iter().enumerate() {
                assert_eq!(bits, group.lut(j).eval(&q).unwrap().to_bits());
            }
        }
        // One lookup per table value.
        assert_eq!(fast.lookups(), 100);
        assert_eq!(reference.lookups(), 100);
    }

    #[test]
    fn json_fields_round_trip() {
        let grid = vec![axis(3), axis(3)];
        let group = TableGroup::<2, 2>::new(
            "INV SIS",
            ["cm", "c_o"],
            [lut(grid.clone(), |v| v[0] * v[1]), lut(grid, |v| v[1])],
        )
        .unwrap();
        let mut fields = Vec::new();
        group.to_json_fields(["cm", "c_o"], &mut fields);
        let doc = JsonValue::parse(&JsonValue::Object(fields).to_string_pretty()).unwrap();
        let back = TableGroup::<2, 2>::from_json_fields("INV SIS", ["cm", "c_o"], &doc).unwrap();
        assert_eq!(group, back);
        // A 2-axis document does not read as a 4-D group, and a missing key
        // is reported.
        assert!(TableGroup::<4, 2>::from_json_fields("INV SIS", ["cm", "c_o"], &doc).is_err());
        assert!(TableGroup::<2, 1>::from_json_fields("INV SIS", ["io"], &doc).is_err());
    }
}
