//! One-dimensional interpolation helpers.
//!
//! These are used for waveform resampling (comparing an MCSM waveform against a
//! SPICE reference requires evaluating both on a common time base) and for the
//! per-axis steps of multilinear table evaluation.

use crate::error::NumError;

/// Linear interpolation between two samples: `a + t (b - a)`.
#[inline]
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + t * (b - a)
}

/// Evaluates a piecewise-linear function defined by `(xs, ys)` at `x`.
///
/// Queries outside the sampled range are clamped to the end values (flat
/// extrapolation), matching the behaviour of the table lookups.
///
/// # Errors
///
/// * [`NumError::DimensionMismatch`] if `xs` and `ys` have different lengths.
/// * [`NumError::InvalidGrid`] if fewer than one sample is provided or `xs` is
///   not strictly increasing.
pub fn interp1(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, NumError> {
    validate_samples(xs, ys)?;
    Ok(interp1_increasing(xs, ys, x))
}

/// Checks the invariants [`interp1_hinted`] relies on: `xs` and `ys` are
/// equally long and non-empty, and `xs` is strictly increasing. O(n).
fn validate_samples(xs: &[f64], ys: &[f64]) -> Result<(), NumError> {
    if xs.len() != ys.len() {
        return Err(NumError::DimensionMismatch {
            got: ys.len(),
            expected: xs.len(),
            context: "interp1",
        });
    }
    if xs.is_empty() {
        return Err(NumError::InvalidGrid(
            "interp1 needs at least one sample".into(),
        ));
    }
    for w in xs.windows(2) {
        if w[1] <= w[0] {
            return Err(NumError::InvalidGrid(
                "interp1 abscissae must be strictly increasing".into(),
            ));
        }
    }
    Ok(())
}

/// [`interp1`] without its validation, for callers that already hold the
/// invariants: `xs` is non-empty, strictly increasing and as long as `ys`.
/// [`interp1_hinted`] with a fresh hint, so O(log n) per call where
/// [`interp1`]'s own check is O(n); the result is bit-identical to
/// [`interp1`]'s.
///
/// # Panics
///
/// May panic, or return a meaningless value, if the invariants do not hold.
pub fn interp1_increasing(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    interp1_hinted(xs, ys, x, &mut 0)
}

/// Cells [`interp1_hinted`] walks forward from its hint before it falls back
/// to a binary search.
const HINT_WALK: usize = 4;

/// [`interp1_increasing`] for a stream of queries that mostly move forward
/// by a few samples, such as a simulator reading a sampled drive at
/// successive time steps.
///
/// `hint` is the interval the previous query on the same samples landed in
/// (`0` for none); on return it holds this query's interval. The search
/// starts there: a query in that interval, the one before it or the next
/// few is found in O(1), and any other falls back to a binary search over
/// the rest. Any strictly increasing `xs` has exactly one interval containing
/// `x`, and the value is interpolated from it with the same arithmetic, so
/// the result is bit-identical to [`interp1_increasing`]'s for every hint;
/// the hint only decides how fast the interval is found.
///
/// # Panics
///
/// May panic, or return a meaningless value, if the invariants of
/// [`interp1_increasing`] do not hold.
pub fn interp1_hinted(xs: &[f64], ys: &[f64], x: f64, hint: &mut usize) -> f64 {
    let last = xs.len() - 1;
    if last == 0 || x <= xs[0] {
        return ys[0];
    }
    if x >= xs[last] {
        return ys[last];
    }
    // Now xs[0] < x < xs[last] (or x is NaN, which ends up in interval 0 like
    // a plain binary search): find `lo` with xs[lo] <= x < xs[lo + 1],
    // keeping xs[lo] <= x < xs[hi].
    let start = (*hint).min(last - 1);
    let (mut lo, mut hi) = (0, last);
    if xs[start] <= x {
        lo = start;
        for _ in 0..HINT_WALK {
            if x < xs[lo + 1] {
                hi = lo + 1;
                break;
            }
            lo += 1;
        }
    } else if start > 0 && xs[start - 1] <= x {
        (lo, hi) = (start - 1, start);
    } else {
        hi = start;
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if xs[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    *hint = lo;
    let t = (x - xs[lo]) / (xs[lo + 1] - xs[lo]);
    lerp(ys[lo], ys[lo + 1], t)
}

/// Resamples a piecewise-linear signal `(xs, ys)` onto the abscissae `new_xs`.
///
/// Validates the signal once, then reads it through one [`interp1_hinted`]
/// hint, so resampling onto an increasing time base is O(n + m); the values
/// are bit-identical to [`interp1`]'s at every point.
///
/// # Errors
///
/// Returns the validation errors of [`interp1`].
pub fn resample(xs: &[f64], ys: &[f64], new_xs: &[f64]) -> Result<Vec<f64>, NumError> {
    validate_samples(xs, ys)?;
    let mut hint = 0;
    Ok(new_xs
        .iter()
        .map(|&x| interp1_hinted(xs, ys, x, &mut hint))
        .collect())
}

/// Finds the first time at which a piecewise-linear signal crosses `level`,
/// searching from the beginning, with the requested direction.
///
/// Returns `None` if the signal never crosses the level in that direction.
///
/// # Errors
///
/// * [`NumError::DimensionMismatch`] if the slices differ in length.
pub fn first_crossing(
    xs: &[f64],
    ys: &[f64],
    level: f64,
    rising: bool,
) -> Result<Option<f64>, NumError> {
    if xs.len() != ys.len() {
        return Err(NumError::DimensionMismatch {
            got: ys.len(),
            expected: xs.len(),
            context: "first_crossing",
        });
    }
    for i in 1..xs.len() {
        let (y0, y1) = (ys[i - 1], ys[i]);
        let crosses = if rising {
            y0 < level && y1 >= level
        } else {
            y0 > level && y1 <= level
        };
        if crosses {
            if (y1 - y0).abs() < f64::EPSILON {
                return Ok(Some(xs[i]));
            }
            let t = (level - y0) / (y1 - y0);
            return Ok(Some(lerp(xs[i - 1], xs[i], t)));
        }
    }
    Ok(None)
}

/// Finds the last time at which a piecewise-linear signal crosses `level` in the
/// requested direction.
///
/// # Errors
///
/// * [`NumError::DimensionMismatch`] if the slices differ in length.
pub fn last_crossing(
    xs: &[f64],
    ys: &[f64],
    level: f64,
    rising: bool,
) -> Result<Option<f64>, NumError> {
    if xs.len() != ys.len() {
        return Err(NumError::DimensionMismatch {
            got: ys.len(),
            expected: xs.len(),
            context: "last_crossing",
        });
    }
    let mut found = None;
    for i in 1..xs.len() {
        let (y0, y1) = (ys[i - 1], ys[i]);
        let crosses = if rising {
            y0 < level && y1 >= level
        } else {
            y0 > level && y1 <= level
        };
        if crosses {
            let t = if (y1 - y0).abs() < f64::EPSILON {
                1.0
            } else {
                (level - y0) / (y1 - y0)
            };
            found = Some(lerp(xs[i - 1], xs[i], t));
        }
    }
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints_and_midpoint() {
        assert_eq!(lerp(1.0, 3.0, 0.0), 1.0);
        assert_eq!(lerp(1.0, 3.0, 1.0), 3.0);
        assert_eq!(lerp(1.0, 3.0, 0.5), 2.0);
    }

    #[test]
    fn interp1_reproduces_samples() {
        let xs = [0.0, 1.0, 2.0, 4.0];
        let ys = [0.0, 2.0, 1.0, 5.0];
        for (x, y) in xs.iter().zip(&ys) {
            assert!((interp1(&xs, &ys, *x).unwrap() - y).abs() < 1e-14);
        }
    }

    #[test]
    fn interp1_interpolates_between_samples() {
        let xs = [0.0, 1.0, 3.0];
        let ys = [0.0, 10.0, 30.0];
        assert!((interp1(&xs, &ys, 0.5).unwrap() - 5.0).abs() < 1e-12);
        assert!((interp1(&xs, &ys, 2.0).unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn interp1_clamps_outside_range() {
        let xs = [0.0, 1.0];
        let ys = [2.0, 4.0];
        assert_eq!(interp1(&xs, &ys, -10.0).unwrap(), 2.0);
        assert_eq!(interp1(&xs, &ys, 10.0).unwrap(), 4.0);
    }

    #[test]
    fn interp1_single_sample_is_constant() {
        assert_eq!(interp1(&[1.0], &[7.0], 100.0).unwrap(), 7.0);
    }

    #[test]
    fn interp1_increasing_answers_like_interp1_on_valid_grids() {
        let xs = [0.0, 1.0, 3.0, 3.5, 8.0];
        let ys = [1.0, -2.0, 4.0, 0.5, 9.0];
        for x in [-1.0, 0.0, 0.3, 1.0, 2.9, 3.25, 7.0, 8.0, 9.0, f64::NAN] {
            let checked = interp1(&xs, &ys, x).unwrap();
            let unchecked = interp1_increasing(&xs, &ys, x);
            assert_eq!(checked.to_bits(), unchecked.to_bits(), "x = {x}");
        }
        assert_eq!(interp1_increasing(&[1.0], &[7.0], f64::NAN), 7.0);
    }

    #[test]
    fn interp1_validates_inputs() {
        assert!(interp1(&[0.0, 1.0], &[0.0], 0.5).is_err());
        assert!(interp1(&[1.0, 0.5], &[0.0, 1.0], 0.7).is_err());
        assert!(interp1(&[], &[], 0.0).is_err());
        assert!(resample(&[0.0, 1.0], &[0.0], &[0.5]).is_err());
        assert!(resample(&[1.0, 0.5], &[0.0, 1.0], &[0.7, 0.8]).is_err());
    }

    #[test]
    fn resample_onto_denser_grid() {
        let xs = [0.0, 2.0];
        let ys = [0.0, 4.0];
        let out = resample(&xs, &ys, &[0.0, 0.5, 1.0, 1.5, 2.0]).unwrap();
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn first_crossing_rising_edge() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 0.4, 0.8, 1.2];
        let t = first_crossing(&xs, &ys, 0.6, true).unwrap().unwrap();
        assert!((t - 1.5).abs() < 1e-12);
    }

    #[test]
    fn first_crossing_falling_edge() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [1.2, 0.6, 0.0];
        let t = first_crossing(&xs, &ys, 0.6, false).unwrap().unwrap();
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crossing_absent_returns_none() {
        let xs = [0.0, 1.0];
        let ys = [0.0, 0.2];
        assert!(first_crossing(&xs, &ys, 0.6, true).unwrap().is_none());
        assert!(first_crossing(&xs, &ys, 0.6, false).unwrap().is_none());
    }

    #[test]
    fn last_crossing_of_glitch() {
        // A pulse that rises above and falls back below 0.5: two falling crossings? No —
        // one rising (index 1) and one falling (index 3); last falling is the tail.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.0, 1.0, 1.0, 0.0, 0.0];
        let rising = last_crossing(&xs, &ys, 0.5, true).unwrap().unwrap();
        let falling = last_crossing(&xs, &ys, 0.5, false).unwrap().unwrap();
        assert!((rising - 0.5).abs() < 1e-12);
        assert!((falling - 2.5).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testrand::TestRng;

    #[test]
    fn interp1_is_bounded_by_neighbour_samples() {
        let mut rng = TestRng::new(0x5eed);
        for _ in 0..300 {
            let n = 2 + rng.index(10);
            let ys: Vec<f64> = (0..n).map(|_| rng.in_range(-5.0, 5.0)).collect();
            let q = rng.unit();
            let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
            let v = interp1(&xs, &ys, q).unwrap();
            let min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(v >= min - 1e-12 && v <= max + 1e-12);
        }
    }

    /// The plain binary search the hinted routine replaced: the oracle the
    /// hinted lookups must match bit for bit.
    fn binary_search_interp(xs: &[f64], ys: &[f64], x: f64) -> f64 {
        let last = xs.len() - 1;
        if last == 0 || x <= xs[0] {
            return ys[0];
        }
        if x >= xs[last] {
            return ys[last];
        }
        let (mut lo, mut hi) = (0, last);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if xs[mid] <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let t = (x - xs[lo]) / (xs[lo + 1] - xs[lo]);
        lerp(ys[lo], ys[lo + 1], t)
    }

    #[test]
    fn hinted_lookups_match_a_plain_binary_search_bit_for_bit() {
        let mut rng = TestRng::new(0x41_4e_54);
        for _ in 0..300 {
            // A random strictly increasing grid of 1..=40 samples.
            let n = 1 + rng.index(40);
            let mut xs = Vec::with_capacity(n);
            let mut x = rng.in_range(-2.0, 2.0);
            for _ in 0..n {
                xs.push(x);
                x += rng.in_range(1e-3, 1.0);
            }
            let ys: Vec<f64> = (0..n).map(|_| rng.in_range(-5.0, 5.0)).collect();
            let (below, above) = (xs[0] - 1.0, xs[n - 1] + 1.0);
            // A monotone sweep in random strides (fine and coarse), queries
            // in random order, every sample hit exactly (forwards and
            // backwards), and out-of-range and NaN queries.
            let mut queries = Vec::new();
            let mut q = below;
            while q < above {
                queries.push(q);
                q += if rng.flip() {
                    rng.in_range(0.0, 0.05)
                } else {
                    rng.in_range(0.0, 3.0)
                };
            }
            queries.extend((0..60).map(|_| rng.in_range(below, above)));
            queries.extend(xs.iter().copied());
            queries.extend(xs.iter().rev().copied());
            queries.extend([below, above, f64::NEG_INFINITY, f64::INFINITY, f64::NAN]);
            let mut hint = 0;
            for &q in &queries {
                let want = binary_search_interp(&xs, &ys, q).to_bits();
                assert_eq!(
                    interp1_hinted(&xs, &ys, q, &mut hint).to_bits(),
                    want,
                    "q = {q}"
                );
                if xs[0] < q && q < xs[n - 1] {
                    assert!(
                        xs[hint] <= q && q < xs[hint + 1],
                        "hint left off q's interval"
                    );
                }
                let mut stale = rng.index(n + 3);
                assert_eq!(interp1_hinted(&xs, &ys, q, &mut stale).to_bits(), want);
                assert_eq!(interp1_increasing(&xs, &ys, q).to_bits(), want);
            }
            let resampled = resample(&xs, &ys, &queries).unwrap();
            for (&q, v) in queries.iter().zip(resampled) {
                assert_eq!(v.to_bits(), binary_search_interp(&xs, &ys, q).to_bits());
            }
        }
    }
}
