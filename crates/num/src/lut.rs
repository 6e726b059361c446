//! N-dimensional lookup tables with multilinear interpolation.
//!
//! The heart of a current-source model is a set of pre-characterized tables:
//! the paper stores `I_o`, `I_N`, `C_mA`, `C_mB`, `C_o` and `C_N` as
//! **4-dimensional** tables over `(V_A, V_B, V_N, V_o)` and evaluates them by
//! interpolation at simulation time (Section 3.3). [`LutNd`] is that container,
//! generic over the number of axes so the same type also serves the 2-D tables
//! of the single-input-switching model and the 1-D input-capacitance tables.
//!
//! # Evaluation paths
//!
//! [`LutNd::eval`] is the *reference* evaluator: it heap-allocates its locate
//! buffers and binary-searches every axis on every call. Table evaluation sits
//! under every explicit/predictor–corrector sub-step of the simulation engine
//! (paper Eqs. (4)–(5)), so hot code uses two allocation-free paths instead,
//! both **bit-identical** to `eval` (same containing cells, same corner order,
//! same arithmetic):
//!
//! * [`LutGroup::eval_with_cursor`] — the grouped lookup the simulation engine
//!   runs on. A model reads several tables sampled on one grid at one point;
//!   the group locates each coordinate once, through a [`LutCursor`], forms
//!   the corner weights and offsets once, and returns one corner sum per
//!   table;
//! * [`LutNd::eval_fixed`] — fixed-arity, stack-only evaluation of one table,
//!   for the cold lookups outside the engine.
//!
//! # Lookup cursors and the coherence assumption
//!
//! A [`LutCursor`] remembers the last containing cell per axis. Consecutive
//! simulation sub-steps move node voltages by at most a fraction of a grid
//! cell, so the next query almost always lands in the **same or an adjacent
//! cell**: the cursor re-locates by a bounded neighbor walk (O(1) amortized)
//! and only falls back to a full locate — analytic for uniform axes, binary
//! search otherwise — when the query jumps more than two cells at once (e.g.
//! a fresh transition re-starting from a rail, or one cursor shared between
//! unrelated query streams). The fallback is the only cost of a cold or
//! wrongly-hinted cursor; results never depend on the hint.

use crate::error::NumError;
use crate::grid::Axis;
use crate::json::{FromJson, JsonError, JsonValue, ToJson};

/// Most axes a [`LutCursor`] remembers, and so the largest dimensionality
/// [`LutGroup::eval_with_cursor`] serves.
const MAX_CURSOR_DIMS: usize = 8;

/// A per-grid lookup cursor: the last containing cell on every axis.
///
/// Feed it to [`LutGroup::eval_with_cursor`] to make repeated, temporally
/// coherent queries O(1) amortized instead of O(log n) per axis. A cursor
/// holds no reference to its tables — it is a plain hint, cheap to create and
/// `Copy` — and a stale or wrong hint only costs a fallback locate, never a
/// wrong result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LutCursor {
    cells: [usize; MAX_CURSOR_DIMS],
}

impl LutCursor {
    /// A cold cursor (hints at the first cell of every axis).
    pub fn new() -> Self {
        LutCursor::default()
    }
}

/// An N-dimensional lookup table evaluated by multilinear interpolation.
///
/// Data is stored in row-major order over the axes: the index of the sample at
/// grid coordinates `(i_0, i_1, …, i_{d-1})` is
/// `((i_0 * n_1 + i_1) * n_2 + i_2) * … + i_{d-1}`.
///
/// Queries outside the grid range are clamped to the boundary (flat
/// extrapolation), which is the conservative behaviour expected from
/// characterized device tables: beyond the characterized voltage range the
/// table holds its boundary value rather than extrapolating a slope that was
/// never measured.
///
/// # Example
///
/// ```
/// use mcsm_num::{grid::Axis, lut::LutNd};
///
/// # fn main() -> Result<(), mcsm_num::NumError> {
/// let axes = vec![
///     Axis::uniform(0.0, 1.0, 5)?,
///     Axis::uniform(0.0, 2.0, 5)?,
/// ];
/// // f(x, y) = 3 x - y is affine, so multilinear interpolation is exact.
/// let lut = LutNd::from_fn(axes, |v| 3.0 * v[0] - v[1])?;
/// assert!((lut.eval(&[0.3, 1.1])? - (0.9 - 1.1)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LutNd {
    axes: Vec<Axis>,
    values: Vec<f64>,
    /// Row-major strides per axis, precomputed at construction for the
    /// allocation-free evaluators (`strides[k]` = product of the axis lengths
    /// after `k`). Deterministic from `axes`, so derived equality is unaffected.
    strides: Vec<usize>,
}

fn compute_strides(axes: &[Axis]) -> Vec<usize> {
    let mut strides = vec![1usize; axes.len()];
    for k in (0..axes.len().saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * axes[k + 1].len();
    }
    strides
}

fn nan_query_error(axis: usize) -> NumError {
    NumError::InvalidQuery(format!("lut query coordinate for axis {axis} is NaN"))
}

/// The interpolated values of `N` tables sampled on one grid, at the point
/// whose containing cell is `base` and in-cell offset `frac` per axis.
///
/// The same arithmetic as the reference [`LutNd::eval`] loop, so every sum has
/// the bits of evaluating its table alone: corners are visited in ascending
/// order, a corner's weight is the product of its per-axis factors (`1 - t`
/// or `t`, each computed once) in ascending axis order, and a corner of zero
/// weight is skipped. The weight and flat offset of each corner are computed
/// once and serve all `N` tables.
fn corner_sums<const D: usize, const N: usize>(
    values: [&[f64]; N],
    strides: &[usize],
    base: &[usize; D],
    frac: &[f64; D],
) -> [f64; N] {
    let mut stride = [0usize; D];
    stride.copy_from_slice(strides);
    let mut w = [[0.0f64; 2]; D];
    for k in 0..D {
        w[k] = [1.0 - frac[k], frac[k]];
    }
    let mut acc = [0.0; N];
    for corner in 0..1usize << D {
        let mut weight = 1.0;
        let mut flat = 0usize;
        for k in 0..D {
            let high = (corner >> k) & 1;
            weight *= w[k][high];
            flat += (base[k] + high) * stride[k];
        }
        if weight != 0.0 {
            for (sum, table) in acc.iter_mut().zip(values) {
                *sum += weight * table[flat];
            }
        }
    }
    acc
}

impl LutNd {
    /// Wraps already-validated parts, computing the cached strides.
    fn from_parts(axes: Vec<Axis>, values: Vec<f64>) -> Self {
        let strides = compute_strides(&axes);
        LutNd {
            axes,
            values,
            strides,
        }
    }

    fn check_arity(&self, got: usize) -> Result<(), NumError> {
        if got != self.axes.len() {
            return Err(NumError::InvalidQuery(format!(
                "expected {} coordinates, got {got}",
                self.axes.len()
            )));
        }
        Ok(())
    }

    /// Creates a table from axes and a flat row-major value vector.
    ///
    /// # Errors
    ///
    /// * [`NumError::InvalidGrid`] if no axes are given.
    /// * [`NumError::DimensionMismatch`] if `values.len()` does not equal the
    ///   product of axis lengths.
    pub fn new(axes: Vec<Axis>, values: Vec<f64>) -> Result<Self, NumError> {
        if axes.is_empty() {
            return Err(NumError::InvalidGrid("lut needs at least one axis".into()));
        }
        let expected: usize = axes.iter().map(Axis::len).product();
        if values.len() != expected {
            return Err(NumError::DimensionMismatch {
                got: values.len(),
                expected,
                context: "LutNd::new values length",
            });
        }
        if let Some(bad) = values.iter().position(|v| !v.is_finite()) {
            return Err(NumError::InvalidGrid(format!(
                "lut sample {bad} is not finite ({})",
                values[bad]
            )));
        }
        Ok(LutNd::from_parts(axes, values))
    }

    /// Creates a table by evaluating `f` at every grid point.
    ///
    /// The closure receives the coordinates of the grid point, one per axis.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidGrid`] if no axes are given.
    pub fn from_fn<F>(axes: Vec<Axis>, mut f: F) -> Result<Self, NumError>
    where
        F: FnMut(&[f64]) -> f64,
    {
        if axes.is_empty() {
            return Err(NumError::InvalidGrid("lut needs at least one axis".into()));
        }
        let total: usize = axes.iter().map(Axis::len).product();
        let dims: Vec<usize> = axes.iter().map(Axis::len).collect();
        let mut values = Vec::with_capacity(total);
        let mut coord = vec![0.0; axes.len()];
        let mut idx = vec![0usize; axes.len()];
        for flat in 0..total {
            // Decode the flat index into per-axis indices (row-major).
            let mut rem = flat;
            for d in (0..dims.len()).rev() {
                idx[d] = rem % dims[d];
                rem /= dims[d];
            }
            for d in 0..dims.len() {
                coord[d] = axes[d].points()[idx[d]];
            }
            values.push(f(&coord));
        }
        LutNd::new(axes, values)
    }

    /// Creates a fallible variant of [`LutNd::from_fn`], aborting on the first error.
    ///
    /// This is used by characterization, where each grid point requires a SPICE
    /// analysis that can fail.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by `f`, or [`NumError::InvalidGrid`]
    /// if no axes are given.
    pub fn try_from_fn<F, E>(axes: Vec<Axis>, mut f: F) -> Result<Result<Self, E>, NumError>
    where
        F: FnMut(&[f64]) -> Result<f64, E>,
    {
        if axes.is_empty() {
            return Err(NumError::InvalidGrid("lut needs at least one axis".into()));
        }
        let total: usize = axes.iter().map(Axis::len).product();
        let dims: Vec<usize> = axes.iter().map(Axis::len).collect();
        let mut values = Vec::with_capacity(total);
        let mut coord = vec![0.0; axes.len()];
        let mut idx = vec![0usize; axes.len()];
        for flat in 0..total {
            let mut rem = flat;
            for d in (0..dims.len()).rev() {
                idx[d] = rem % dims[d];
                rem /= dims[d];
            }
            for d in 0..dims.len() {
                coord[d] = axes[d].points()[idx[d]];
            }
            match f(&coord) {
                Ok(v) => values.push(v),
                Err(e) => return Ok(Err(e)),
            }
        }
        Ok(Ok(LutNd::new(axes, values)?))
    }

    /// Number of dimensions (axes).
    pub fn dimensions(&self) -> usize {
        self.axes.len()
    }

    /// The sampling axes.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// The raw sample values in row-major order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Total number of stored samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table holds no samples (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns the stored sample at the given per-axis indices.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidQuery`] if the number of indices is wrong or
    /// any index is out of bounds.
    pub fn at(&self, indices: &[usize]) -> Result<f64, NumError> {
        if indices.len() != self.axes.len() {
            return Err(NumError::InvalidQuery(format!(
                "expected {} indices, got {}",
                self.axes.len(),
                indices.len()
            )));
        }
        let mut flat = 0usize;
        for (d, (&i, axis)) in indices.iter().zip(&self.axes).enumerate() {
            if i >= axis.len() {
                return Err(NumError::InvalidQuery(format!(
                    "index {i} out of bounds for axis {d} of length {}",
                    axis.len()
                )));
            }
            flat = flat * axis.len() + i;
        }
        Ok(self.values[flat])
    }

    /// Evaluates the table at `coords` by multilinear interpolation.
    ///
    /// This is the **reference path**: it allocates its locate buffers and
    /// binary-searches every axis on every call. Hot loops use the
    /// bit-identical allocation-free paths ([`LutGroup::eval_with_cursor`],
    /// [`LutNd::eval_fixed`]); this entry point is the oracle their tests
    /// compare against and the baseline the `sim_hotpath` benchmark gates them
    /// against.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidQuery`] if the number of coordinates differs
    /// from the number of axes or any coordinate is NaN.
    pub fn eval(&self, coords: &[f64]) -> Result<f64, NumError> {
        self.check_arity(coords.len())?;
        let d = self.axes.len();
        // Locate every coordinate on its axis.
        let mut base = vec![0usize; d];
        let mut frac = vec![0.0; d];
        for k in 0..d {
            if coords[k].is_nan() {
                return Err(nan_query_error(k));
            }
            let (i, t) = self.axes[k].locate(coords[k]);
            base[k] = i;
            frac[k] = t;
        }
        // Sum over the 2^d corners of the containing cell.
        let corners = 1usize << d;
        let mut acc = 0.0;
        for corner in 0..corners {
            let mut weight = 1.0;
            let mut flat = 0usize;
            for k in 0..d {
                let high = (corner >> k) & 1 == 1;
                let idx = base[k] + usize::from(high);
                weight *= if high { frac[k] } else { 1.0 - frac[k] };
                flat = flat * self.axes[k].len() + idx;
            }
            if weight != 0.0 {
                acc += weight * self.values[flat];
            }
        }
        Ok(acc)
    }

    /// Fixed-arity, stack-only evaluation — bit-identical to [`LutNd::eval`]
    /// with zero heap allocations (the arity is a compile-time constant, so the
    /// locate buffers live on the stack).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidQuery`] if `D` differs from the table
    /// dimensionality or any coordinate is NaN.
    pub fn eval_fixed<const D: usize>(&self, coords: &[f64; D]) -> Result<f64, NumError> {
        self.check_arity(D)?;
        let mut base = [0usize; D];
        let mut frac = [0.0; D];
        for k in 0..D {
            let (i, t) = self.axes[k]
                .try_locate(coords[k])
                .map_err(|_| nan_query_error(k))?;
            base[k] = i;
            frac[k] = t;
        }
        let [value] = corner_sums([&self.values], &self.strides, &base, &frac);
        Ok(value)
    }

    /// Applies a function to every stored value, returning a new table with the
    /// same axes (used e.g. to average capacitance tables over several slews).
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> LutNd {
        LutNd::from_parts(
            self.axes.clone(),
            self.values.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Combines two tables sample-by-sample (they must share identical axes).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidQuery`] if the axes differ.
    pub fn zip_with<F: FnMut(f64, f64) -> f64>(
        &self,
        other: &LutNd,
        mut f: F,
    ) -> Result<LutNd, NumError> {
        if self.axes != other.axes {
            return Err(NumError::InvalidQuery(
                "zip_with requires identical axes".into(),
            ));
        }
        Ok(LutNd::from_parts(
            self.axes.clone(),
            self.values
                .iter()
                .zip(&other.values)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        ))
    }

    /// Minimum stored sample value.
    pub fn min_value(&self) -> f64 {
        self.values.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Maximum stored sample value.
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl ToJson for LutNd {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "axes".into(),
                JsonValue::Array(self.axes.iter().map(ToJson::to_json).collect()),
            ),
            ("values".into(), JsonValue::from_f64_slice(&self.values)),
        ])
    }
}

impl FromJson for LutNd {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let axes = value
            .require("axes")?
            .as_array()
            .ok_or_else(|| JsonError("lut `axes` must be an array".into()))?
            .iter()
            .map(Axis::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let values = value.require("values")?.to_f64_vec()?;
        LutNd::new(axes, values).map_err(|e| JsonError(format!("invalid lut: {e}")))
    }
}

/// Tables sampled on one grid, looked up together.
///
/// A current-source model reads several tables at the same point on every
/// engine sub-step, and characterization samples related tables (the
/// currents, the capacitances) on one shared grid. For such tables the
/// containing cell, the corner weights and the corner offsets are the same, so
/// [`LutGroup::eval_with_cursor`] computes them once per query and returns
/// one value per table. [`LutGroup::new`] checks that every table has the
/// first table's axes, so a group on mismatched grids cannot be built.
///
/// # Example
///
/// ```
/// use mcsm_num::{grid::Axis, lut::{LutCursor, LutGroup, LutNd}};
///
/// # fn main() -> Result<(), mcsm_num::NumError> {
/// let axes = vec![Axis::uniform(0.0, 1.0, 5)?, Axis::uniform(0.0, 2.0, 5)?];
/// let sum = LutNd::from_fn(axes.clone(), |v| v[0] + v[1])?;
/// let diff = LutNd::from_fn(axes, |v| v[0] - v[1])?;
/// let group = LutGroup::new([sum.clone(), diff])?;
/// let mut cursor = LutCursor::new();
/// let [s, d] = group.eval_with_cursor(&mut cursor, &[0.3, 1.1])?;
/// assert_eq!(s.to_bits(), sum.eval(&[0.3, 1.1])?.to_bits());
/// assert!((d - (0.3 - 1.1)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LutGroup<const N: usize> {
    tables: [LutNd; N],
}

impl<const N: usize> LutGroup<N> {
    /// Groups tables sampled on one grid.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::MismatchedAxes`] naming the first table whose axes
    /// differ from the first table's.
    pub fn new(tables: [LutNd; N]) -> Result<Self, NumError> {
        const { assert!(N > 0, "a lut group holds at least one table") };
        if let Some(table) = tables.iter().position(|t| t.axes != tables[0].axes) {
            return Err(NumError::MismatchedAxes { table });
        }
        Ok(LutGroup { tables })
    }

    /// The grouped tables, in construction order.
    pub fn tables(&self) -> &[LutNd; N] {
        &self.tables
    }

    /// The grid every table of the group is sampled on.
    pub fn axes(&self) -> &[Axis] {
        &self.tables[0].axes
    }

    /// Evaluates every table at `coords`, locating each coordinate once from
    /// the cursor's remembered cell (a bounded neighbor walk, O(1) amortized
    /// on temporally coherent query streams) and updating the cursor. Each
    /// value is bit-identical to [`LutNd::eval`] of its table — the cursor
    /// only changes how fast the containing cell is found, never which cell
    /// it is, and the corner sums keep the reference arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidQuery`] if `D` differs from the group's
    /// dimensionality or any coordinate is NaN.
    pub fn eval_with_cursor<const D: usize>(
        &self,
        cursor: &mut LutCursor,
        coords: &[f64; D],
    ) -> Result<[f64; N], NumError> {
        const {
            assert!(
                D <= MAX_CURSOR_DIMS,
                "a cursor remembers MAX_CURSOR_DIMS axes"
            )
        };
        let grid = &self.tables[0];
        grid.check_arity(D)?;
        let mut base = [0usize; D];
        let mut frac = [0.0; D];
        for k in 0..D {
            let (i, t) = grid.axes[k]
                .try_locate_hinted(coords[k], cursor.cells[k])
                .map_err(|_| nan_query_error(k))?;
            cursor.cells[k] = i;
            base[k] = i;
            frac[k] = t;
        }
        let values = self.tables.each_ref().map(|t| t.values.as_slice());
        Ok(corner_sums(values, &grid.strides, &base, &frac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axis(n: usize) -> Axis {
        Axis::uniform(0.0, 1.0, n).unwrap()
    }

    #[test]
    fn one_dimensional_table_matches_interp() {
        let lut = LutNd::from_fn(vec![axis(5)], |v| v[0] * v[0]).unwrap();
        // At grid points the value is exact.
        assert!((lut.eval(&[0.5]).unwrap() - 0.25).abs() < 1e-12);
        // Between grid points it is the chord of x^2.
        let v = lut.eval(&[0.375]).unwrap();
        let expected = 0.5 * (0.0625 + 0.25);
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn affine_functions_are_exact_in_4d() {
        let axes = vec![axis(3), axis(4), axis(5), axis(3)];
        let f = |v: &[f64]| 1.0 + 2.0 * v[0] - 3.0 * v[1] + 0.5 * v[2] + 4.0 * v[3];
        let lut = LutNd::from_fn(axes, f).unwrap();
        let q = [0.21, 0.68, 0.43, 0.9];
        assert!((lut.eval(&q).unwrap() - f(&q)).abs() < 1e-12);
    }

    #[test]
    fn clamped_extrapolation_beyond_range() {
        let lut = LutNd::from_fn(vec![axis(3)], |v| v[0]).unwrap();
        assert!((lut.eval(&[-5.0]).unwrap() - 0.0).abs() < 1e-12);
        assert!((lut.eval(&[5.0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn at_retrieves_exact_samples() {
        let lut = LutNd::from_fn(vec![axis(3), axis(3)], |v| v[0] + 10.0 * v[1]).unwrap();
        assert!((lut.at(&[1, 2]).unwrap() - (0.5 + 10.0)).abs() < 1e-12);
        assert!(lut.at(&[3, 0]).is_err());
        assert!(lut.at(&[0]).is_err());
    }

    #[test]
    fn eval_rejects_wrong_arity() {
        let lut = LutNd::from_fn(vec![axis(3), axis(3)], |v| v[0]).unwrap();
        assert!(lut.eval(&[0.5]).is_err());
        assert!(lut.eval(&[0.5, 0.5, 0.5]).is_err());
    }

    #[test]
    fn new_validates_value_count() {
        let err = LutNd::new(vec![axis(3), axis(3)], vec![0.0; 8]);
        assert!(matches!(err, Err(NumError::DimensionMismatch { .. })));
    }

    #[test]
    fn non_finite_samples_rejected() {
        let err = LutNd::new(vec![axis(3)], vec![0.0, f64::NAN, 1.0]);
        assert!(matches!(err, Err(NumError::InvalidGrid(_))));
        let err = LutNd::new(vec![axis(3)], vec![0.0, f64::INFINITY, 1.0]);
        assert!(matches!(err, Err(NumError::InvalidGrid(_))));
    }

    #[test]
    fn empty_axes_rejected() {
        assert!(LutNd::new(vec![], vec![]).is_err());
        assert!(LutNd::from_fn(vec![], |_| 0.0).is_err());
    }

    #[test]
    fn nan_queries_are_rejected_with_a_descriptive_error() {
        // Regression for the NaN-unsafe locate fallback: every evaluator must
        // report the NaN instead of silently interpolating in cell 0.
        let lut = LutNd::from_fn(vec![axis(3), axis(3)], |v| v[0] + v[1]).unwrap();
        let is_nan_err =
            |e: NumError| matches!(e, NumError::InvalidQuery(msg) if msg.contains("NaN"));
        assert!(is_nan_err(lut.eval(&[0.5, f64::NAN]).unwrap_err()));
        assert!(is_nan_err(lut.eval_fixed(&[0.5, f64::NAN]).unwrap_err()));
        let group = LutGroup::new([lut.clone(), lut]).unwrap();
        assert!(is_nan_err(
            group
                .eval_with_cursor(&mut LutCursor::new(), &[f64::NAN, 0.5])
                .unwrap_err()
        ));
    }

    #[test]
    fn fast_paths_reject_wrong_arity_like_eval() {
        let lut = LutNd::from_fn(vec![axis(3), axis(3)], |v| v[0]).unwrap();
        assert!(lut.eval_fixed(&[0.5]).is_err());
        assert!(lut.eval_fixed(&[0.5, 0.5, 0.5, 0.5]).is_err());
        let group = LutGroup::new([lut]).unwrap();
        assert!(group
            .eval_with_cursor(&mut LutCursor::new(), &[0.5, 0.5, 0.5])
            .is_err());
    }

    #[test]
    fn a_group_is_only_built_on_one_grid() {
        let on = |axes: Vec<Axis>| LutNd::from_fn(axes, |v| v[0]).unwrap();
        let grid = vec![axis(3), axis(4)];
        let group = LutGroup::new([on(grid.clone()), on(grid.clone())]).unwrap();
        assert_eq!(group.axes(), &grid[..]);
        // Same shape, other points: still a different grid.
        let shifted = vec![axis(3), Axis::uniform(0.0, 1.1, 4).unwrap()];
        assert_eq!(
            LutGroup::new([on(grid.clone()), on(grid.clone()), on(shifted)]),
            Err(NumError::MismatchedAxes { table: 2 })
        );
        assert_eq!(
            LutGroup::new([on(grid), on(vec![axis(3)])]),
            Err(NumError::MismatchedAxes { table: 1 })
        );
    }

    #[test]
    fn map_and_zip_with() {
        let a = LutNd::from_fn(vec![axis(3)], |v| v[0]).unwrap();
        let b = a.map(|v| 2.0 * v);
        assert!((b.eval(&[1.0]).unwrap() - 2.0).abs() < 1e-12);
        let c = a.zip_with(&b, |x, y| x + y).unwrap();
        assert!((c.eval(&[1.0]).unwrap() - 3.0).abs() < 1e-12);
        let other_axes = LutNd::from_fn(vec![axis(4)], |v| v[0]).unwrap();
        assert!(a.zip_with(&other_axes, |x, _| x).is_err());
    }

    #[test]
    fn try_from_fn_propagates_errors() {
        let result: Result<Result<LutNd, &str>, NumError> =
            LutNd::try_from_fn(vec![axis(3)], |v| {
                if v[0] > 0.6 {
                    Err("boom")
                } else {
                    Ok(v[0])
                }
            });
        assert_eq!(result.unwrap().unwrap_err(), "boom");
    }

    #[test]
    fn min_max_values() {
        let lut = LutNd::from_fn(vec![axis(5)], |v| v[0] - 0.5).unwrap();
        assert!((lut.min_value() + 0.5).abs() < 1e-12);
        assert!((lut.max_value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip() {
        let lut = LutNd::from_fn(vec![axis(3), axis(3)], |v| v[0] * v[1]).unwrap();
        let doc = lut.to_json();
        let back = LutNd::from_json(&JsonValue::parse(&doc.to_string_pretty()).unwrap()).unwrap();
        assert_eq!(lut, back);
        // A corrupt document (wrong value count) is rejected.
        let bad = JsonValue::Object(vec![
            ("axes".into(), JsonValue::Array(vec![axis(3).to_json()])),
            ("values".into(), JsonValue::from_f64_slice(&[1.0, 2.0])),
        ]);
        assert!(LutNd::from_json(&bad).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testrand::TestRng;

    #[test]
    fn interpolation_stays_within_sample_bounds() {
        let mut rng = TestRng::new(0x1a2b3c);
        for _ in 0..200 {
            let values: Vec<f64> = (0..16).map(|_| rng.in_range(-10.0, 10.0)).collect();
            let qx = rng.in_range(-0.5, 1.5);
            let qy = rng.in_range(-0.5, 1.5);
            let axes = vec![
                Axis::uniform(0.0, 1.0, 4).unwrap(),
                Axis::uniform(0.0, 1.0, 4).unwrap(),
            ];
            let lut = LutNd::new(axes, values.clone()).unwrap();
            let v = lut.eval(&[qx, qy]).unwrap();
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(v >= min - 1e-9 && v <= max + 1e-9);
        }
    }

    /// A random grid of `dims` axes: uniform or explicitly non-uniform
    /// (random strictly increasing points), random lengths.
    fn random_grid(rng: &mut TestRng, dims: usize) -> Vec<Axis> {
        (0..dims)
            .map(|_| {
                let count = 2 + rng.index(5);
                if rng.index(2) == 0 {
                    let start = rng.in_range(-2.0, 0.0);
                    Axis::uniform(start, start + rng.in_range(0.5, 3.0), count).unwrap()
                } else {
                    let mut p = rng.in_range(-2.0, 0.0);
                    let points = (0..count)
                        .map(|_| {
                            p += rng.in_range(0.05, 1.0);
                            p
                        })
                        .collect();
                    Axis::new(points).unwrap()
                }
            })
            .collect()
    }

    /// `N` tables of random samples on one random grid of `D` axes.
    fn random_group<const D: usize, const N: usize>(rng: &mut TestRng) -> LutGroup<N> {
        let axes = random_grid(rng, D);
        let total: usize = axes.iter().map(Axis::len).product();
        let tables = [(); N].map(|_| {
            let values = (0..total).map(|_| rng.in_range(-10.0, 10.0)).collect();
            LutNd::new(axes.clone(), values).unwrap()
        });
        LutGroup::new(tables).unwrap()
    }

    /// One query per axis, randomly interior, at-a-grid-point, or out of range.
    fn random_query<const D: usize>(rng: &mut TestRng, axes: &[Axis]) -> [f64; D] {
        std::array::from_fn(|k| {
            let axis = &axes[k];
            match rng.index(4) {
                0 => axis.points()[rng.index(axis.len())],
                1 => axis.min() - rng.in_range(0.0, 1.0),
                2 => axis.max() + rng.in_range(0.0, 1.0),
                _ => rng.in_range(axis.min(), axis.max()),
            }
        })
    }

    /// Every evaluation path at `q` has the bits of [`LutNd::eval`], table by
    /// table: the grouped lookup through `cursor` (whatever cells it
    /// remembers), the grouped lookup through a cold cursor, and
    /// [`LutNd::eval_fixed`].
    fn assert_all_paths_match<const D: usize, const N: usize>(
        group: &LutGroup<N>,
        cursor: &mut LutCursor,
        q: &[f64; D],
    ) {
        let hinted = group.eval_with_cursor(cursor, q).unwrap();
        let cold = group.eval_with_cursor(&mut LutCursor::new(), q).unwrap();
        for (j, table) in group.tables().iter().enumerate() {
            let reference = table.eval(q).unwrap().to_bits();
            let fixed = table.eval_fixed(q).unwrap().to_bits();
            assert_eq!(reference, fixed, "eval_fixed, table {j} of {N}, at {q:?}");
            assert_eq!(
                reference,
                hinted[j].to_bits(),
                "grouped, table {j} of {N}, at {q:?}"
            );
            assert_eq!(
                reference,
                cold[j].to_bits(),
                "cold cursor, table {j} of {N}, at {q:?}"
            );
        }
    }

    /// Runs `$trial::<D, N>($rng)` for every dimensionality 1-4 and group size 1-4.
    macro_rules! for_every_shape {
        ($trial:ident($rng:expr)) => {
            for_every_shape!(@dims $trial($rng); 1 2 3 4)
        };
        (@dims $trial:ident($rng:expr); $($d:literal)*) => {
            $(
                $trial::<$d, 1>($rng);
                $trial::<$d, 2>($rng);
                $trial::<$d, 3>($rng);
                $trial::<$d, 4>($rng);
            )*
        };
    }

    /// Random query sequences on a random group. The cursor persists across
    /// the sequence, and starts from random cells that may lie outside the
    /// grid, so stale hints from arbitrary jumps are exercised too; now and
    /// then a coordinate is NaN, which every path must reject.
    fn random_sequence<const D: usize, const N: usize>(rng: &mut TestRng) {
        let group = random_group::<D, N>(rng);
        let mut cursor = LutCursor {
            cells: std::array::from_fn(|_| rng.index(8)),
        };
        for _ in 0..40 {
            let mut q = random_query::<D>(rng, group.axes());
            if rng.index(10) == 0 {
                let k = rng.index(D);
                q[k] = f64::NAN;
                let nan = |e: NumError| matches!(e, NumError::InvalidQuery(m) if m.contains("NaN"));
                assert!(nan(group.eval_with_cursor(&mut cursor, &q).unwrap_err()));
                assert!(nan(group.tables()[0].eval(&q).unwrap_err()));
                assert!(nan(group.tables()[0].eval_fixed(&q).unwrap_err()));
                continue;
            }
            assert_all_paths_match(&group, &mut cursor, &q);
        }
    }

    /// Monotone ramps across (and beyond) every axis, rising then falling:
    /// the coherent access pattern the cursor is built for, where every step
    /// lands in the same or an adjacent cell.
    fn monotone_sweep<const D: usize, const N: usize>(rng: &mut TestRng) {
        let group = random_group::<D, N>(rng);
        let mut cursor = LutCursor::new();
        let spans: [(f64, f64); D] = std::array::from_fn(|k| {
            let a = &group.axes()[k];
            let lo = a.min() - 0.2;
            (lo, a.max() + 0.2 - lo)
        });
        let steps = 64;
        let at = |s: usize| spans.map(|(lo, w)| lo + w * (s as f64 / steps as f64));
        for s in 0..=steps {
            assert_all_paths_match(&group, &mut cursor, &at(s));
        }
        for s in (0..=steps).rev() {
            assert_all_paths_match(&group, &mut cursor, &at(s));
        }
    }

    #[test]
    fn all_fast_paths_are_bit_identical_to_eval_on_random_sequences() {
        // `eval` == `eval_fixed` == the grouped lookup (running and cold
        // cursors), bit for bit and table by table, over random groups of 1-4
        // tables on random 1-4-D grids, with random queries including exact
        // grid points and out-of-range (clamped) coordinates.
        let mut rng = TestRng::new(0xFA57);
        for _ in 0..4 {
            for_every_shape!(random_sequence(&mut rng));
        }
    }

    #[test]
    fn all_fast_paths_are_bit_identical_to_eval_on_monotone_sweeps() {
        let mut rng = TestRng::new(0x510);
        for _ in 0..2 {
            for_every_shape!(monotone_sweep(&mut rng));
        }
    }

    #[test]
    fn grid_points_are_reproduced_exactly() {
        let mut rng = TestRng::new(0x7fe1);
        for _ in 0..200 {
            let values: Vec<f64> = (0..27).map(|_| rng.in_range(-10.0, 10.0)).collect();
            let (ix, iy, iz) = (rng.index(3), rng.index(3), rng.index(3));
            let axes = vec![
                Axis::uniform(0.0, 1.0, 3).unwrap(),
                Axis::uniform(-1.0, 1.0, 3).unwrap(),
                Axis::uniform(0.0, 2.0, 3).unwrap(),
            ];
            let lut = LutNd::new(axes.clone(), values).unwrap();
            let q = [
                axes[0].points()[ix],
                axes[1].points()[iy],
                axes[2].points()[iz],
            ];
            let direct = lut.at(&[ix, iy, iz]).unwrap();
            let interp = lut.eval(&q).unwrap();
            assert!((direct - interp).abs() < 1e-9);
        }
    }
}
