//! Sampled waveforms and timing measurements.
//!
//! Analyses produce [`Waveform`]s — time/value sample pairs — for every node (and
//! voltage-source branch current). The measurement helpers extract the numbers
//! the paper reports: 50 % propagation delay, transition (slew) times and the
//! normalized RMSE between a model waveform and a SPICE reference.

use crate::error::SpiceError;
use mcsm_num::interp::{first_crossing, interp1_hinted, interp1_increasing, resample};
use mcsm_num::stats;
use std::sync::Arc;

/// A sampled signal: strictly increasing times with one value per time point.
///
/// The time vector is reference-counted so families of waveforms sampled on
/// one time base (a simulation output plus its internal-node traces, every
/// signal of one transient analysis) can share a single allocation — see
/// [`Waveform::with_shared_times`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    times: Arc<Vec<f64>>,
    values: Vec<f64>,
}

impl Waveform {
    /// Creates a waveform from parallel time/value vectors.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] if the vectors differ in length,
    /// are empty, or the times are not strictly increasing.
    pub fn new(times: Vec<f64>, values: Vec<f64>) -> Result<Self, SpiceError> {
        Waveform::with_shared_times(Arc::new(times), values)
    }

    /// Creates a waveform that shares an existing time vector — clone the
    /// `Arc`, not the samples, to build N waveforms on one time base.
    ///
    /// # Errors
    ///
    /// As for [`Waveform::new`].
    pub fn with_shared_times(times: Arc<Vec<f64>>, values: Vec<f64>) -> Result<Self, SpiceError> {
        if times.len() != values.len() {
            return Err(SpiceError::InvalidParameter(format!(
                "waveform needs matching vectors (times {} vs values {})",
                times.len(),
                values.len()
            )));
        }
        if times.is_empty() {
            return Err(SpiceError::InvalidParameter(
                "waveform needs at least one sample".into(),
            ));
        }
        for w in times.windows(2) {
            if w[1] <= w[0] {
                return Err(SpiceError::InvalidParameter(
                    "waveform times must be strictly increasing".into(),
                ));
            }
        }
        Ok(Waveform { times, values })
    }

    /// Sample times (seconds).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The shared time vector, for building further waveforms on the same
    /// time base without cloning it.
    pub fn shared_times(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.times)
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the waveform has no samples (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// First sample time.
    pub fn t_start(&self) -> f64 {
        self.times[0]
    }

    /// Last sample time.
    pub fn t_end(&self) -> f64 {
        *self.times.last().expect("waveform is never empty")
    }

    /// Value at the final sample.
    pub fn final_value(&self) -> f64 {
        *self.values.last().expect("waveform is never empty")
    }

    /// Linearly interpolated value at time `t` (clamped outside the range).
    ///
    /// Construction already checked the times, so this is a search without
    /// the check ([`interp1_increasing`]): O(log n) per call, where
    /// re-checking the whole time vector on every call would make each drive
    /// evaluation O(n).
    pub fn value_at(&self, t: f64) -> f64 {
        interp1_increasing(&self.times, &self.values, t)
    }

    /// [`Waveform::value_at`] for a caller reading the waveform forward in
    /// time: `hint` carries the sample interval of the previous query to the
    /// next ([`interp1_hinted`]), so a query a few samples on from the last
    /// one costs O(1). Bit-identical to `value_at` for any hint.
    pub fn value_at_hinted(&self, t: f64, hint: &mut usize) -> f64 {
        interp1_hinted(&self.times, &self.values, t, hint)
    }

    /// Canonical content hash of the waveform: a seed-free FNV-1a over the
    /// exact IEEE-754 bit patterns of the time and value samples
    /// ([`mcsm_num::hash`]). Two waveforms hash equal iff they are
    /// bit-for-bit equal (shared vs owned time vectors do not matter), which
    /// is what makes the hash usable as a memoization key without breaking
    /// the workspace's bit-identity contract.
    pub fn canonical_hash(&self) -> u64 {
        let mut hasher = mcsm_num::hash::ByteHasher::new();
        hasher.write_f64_slice(&self.times);
        hasher.write_f64_slice(&self.values);
        hasher.finish()
    }

    /// Resamples the waveform onto the given time points.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] if the new time base is invalid.
    pub fn resample_onto(&self, new_times: &[f64]) -> Result<Waveform, SpiceError> {
        let values =
            resample(&self.times, &self.values, new_times).map_err(SpiceError::Numerical)?;
        Waveform::new(new_times.to_vec(), values)
    }

    /// Time of the first crossing of `level` in the requested direction, if any.
    pub fn crossing(&self, level: f64, rising: bool) -> Option<f64> {
        first_crossing(&self.times, &self.values, level, rising)
            .expect("waveform invariants guarantee matching lengths")
    }

    /// The sorted union of this waveform's time grid with another's: every
    /// sample time of either waveform appears exactly once, strictly
    /// increasing. Resampling two waveforms onto their merged grid loses no
    /// information from either — the alignment step of a waveform handoff
    /// (e.g. comparing a driver's output against a reference computed on a
    /// different grid).
    pub fn merge_time_grids(&self, other: &Waveform) -> Vec<f64> {
        let (a, b) = (self.times(), other.times());
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&ta), Some(&tb)) if ta < tb => {
                    i += 1;
                    ta
                }
                (Some(&ta), Some(&tb)) if tb < ta => {
                    j += 1;
                    tb
                }
                (Some(&ta), Some(_)) => {
                    i += 1;
                    j += 1;
                    ta
                }
                (Some(&ta), None) => {
                    i += 1;
                    ta
                }
                (None, Some(&tb)) => {
                    j += 1;
                    tb
                }
                (None, None) => unreachable!("loop condition guarantees one side"),
            };
            if merged.last() != Some(&next) {
                merged.push(next);
            }
        }
        merged
    }

    /// The same waveform with every sample time shifted by `offset` seconds
    /// (positive delays the waveform, negative advances it). Values are
    /// untouched, so shape measurements (slews, excursions) are invariant and
    /// crossings move by exactly `offset` — the re-timing step of a waveform
    /// handoff.
    pub fn shifted(&self, offset: f64) -> Waveform {
        Waveform {
            times: Arc::new(self.times.iter().map(|&t| t + offset).collect()),
            values: self.values.clone(),
        }
    }

    /// Minimum sample value.
    pub fn min_value(&self) -> f64 {
        self.values.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample value.
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// 10 %–90 % (or 90 %–10 %) transition time with respect to the supply `vdd`.
    ///
    /// Returns `None` if the waveform never crosses both thresholds.
    pub fn transition_time(&self, vdd: f64, rising: bool) -> Option<f64> {
        let (lo, hi) = (0.1 * vdd, 0.9 * vdd);
        if rising {
            let t_lo = self.crossing(lo, true)?;
            let t_hi = self.crossing(hi, true)?;
            Some(t_hi - t_lo)
        } else {
            let t_hi = self.crossing(hi, false)?;
            let t_lo = self.crossing(lo, false)?;
            Some(t_lo - t_hi)
        }
    }

    /// Error-bounded breakpoint pruning: the same signal with every sample
    /// removed whose absence changes the piecewise-linear reconstruction by at
    /// most `eps` (volts) anywhere.
    ///
    /// Single O(n) greedy sweep: walk forward from an anchor sample keeping
    /// the interval of segment slopes that pass within `±eps` of every skipped
    /// sample (the intersection of per-sample slope corridors); when a
    /// candidate sample falls outside the interval, emit the previous sample
    /// as the next breakpoint and restart the corridor there. Because the
    /// difference between the thinned and original waveforms is piecewise
    /// linear with extrema at original sample times, bounding the error at
    /// the original samples bounds it everywhere. First and last samples are
    /// always kept, so `t_start`/`t_end`/`final_value` are invariant.
    ///
    /// `eps <= 0.0` (and NaN) returns a bit-identical clone — the streaming
    /// simulator's "no thinning" mode.
    pub fn thin(&self, eps: f64) -> Waveform {
        let n = self.len();
        if !(eps > 0.0) || n <= 2 {
            return self.clone();
        }
        let (times, values) = (self.times.as_slice(), self.values.as_slice());
        let mut out_times = Vec::with_capacity(8);
        let mut out_values = Vec::with_capacity(8);
        out_times.push(times[0]);
        out_values.push(values[0]);
        let mut anchor = 0usize;
        let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
        let mut k = anchor + 1;
        while k < n - 1 {
            let dt = times[k] - times[anchor];
            let slope = (values[k] - values[anchor]) / dt;
            if slope < lo || slope > hi {
                // The segment can no longer pass within eps of sample k:
                // commit the previous sample and restart the corridor. `k`
                // stays put — it is re-tested against the fresh corridor
                // (never violated at anchor+1, so the sweep always advances).
                anchor = k - 1;
                out_times.push(times[anchor]);
                out_values.push(values[anchor]);
                lo = f64::NEG_INFINITY;
                hi = f64::INFINITY;
                continue;
            }
            lo = lo.max((values[k] - values[anchor] - eps) / dt);
            hi = hi.min((values[k] - values[anchor] + eps) / dt);
            k += 1;
        }
        // The last sample is exact, not approximated: if the final segment
        // cannot reach it within the corridor, keep its predecessor too.
        let dt = times[n - 1] - times[anchor];
        let slope = (values[n - 1] - values[anchor]) / dt;
        if slope < lo || slope > hi {
            out_times.push(times[n - 2]);
            out_values.push(values[n - 2]);
        }
        out_times.push(times[n - 1]);
        out_values.push(values[n - 1]);
        Waveform {
            times: Arc::new(out_times),
            values: out_values,
        }
    }

    /// Normalized RMSE against a reference waveform over the reference's time base
    /// (the paper's Eq. 6 divided by `scale`).
    ///
    /// # Errors
    ///
    /// Propagates resampling errors.
    pub fn normalized_rmse_against(
        &self,
        reference: &Waveform,
        scale: f64,
    ) -> Result<f64, SpiceError> {
        let mine = self.resample_onto(reference.times())?;
        stats::normalized_rmse(reference.values(), mine.values(), scale)
            .map_err(SpiceError::Numerical)
    }
}

/// Combines per-direction crossing times into "earliest crossing, with the
/// direction that produced it" (`true` = rising). Ties go to the rising edge.
///
/// This is the comparison form shared by the timing layer and the netlist
/// simulator: both report arrivals per net without the caller having to guess
/// edge polarities, and both must break ties identically for their results to
/// be comparable.
pub fn earliest_crossing(rising: Option<f64>, falling: Option<f64>) -> Option<(f64, bool)> {
    match (rising, falling) {
        (Some(r), Some(f)) if r <= f => Some((r, true)),
        (Some(_), Some(f)) => Some((f, false)),
        (Some(r), None) => Some((r, true)),
        (None, Some(f)) => Some((f, false)),
        (None, None) => None,
    }
}

/// Measures the 50 % input-to-output propagation delay between two waveforms.
///
/// `input_rising` / `output_rising` select which edges to pair; `vdd` defines the
/// 50 % level. Returns `None` when either waveform lacks the requested edge.
pub fn propagation_delay(
    input: &Waveform,
    output: &Waveform,
    vdd: f64,
    input_rising: bool,
    output_rising: bool,
) -> Option<f64> {
    let mid = 0.5 * vdd;
    let t_in = input.crossing(mid, input_rising)?;
    let t_out = output.crossing(mid, output_rising)?;
    Some(t_out - t_in)
}

/// Measures the 50 % delay of an output edge relative to an absolute event time
/// (used when the "input" is an analytic stimulus rather than a waveform).
pub fn delay_from_event(
    output: &Waveform,
    event_time: f64,
    vdd: f64,
    output_rising: bool,
) -> Option<f64> {
    let mid = 0.5 * vdd;
    let t_out = output.crossing(mid, output_rising)?;
    Some(t_out - event_time)
}

/// A named collection of waveforms produced by one analysis run.
#[derive(Debug, Clone, Default)]
pub struct WaveformSet {
    names: Vec<String>,
    waveforms: Vec<Waveform>,
}

impl WaveformSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        WaveformSet::default()
    }

    /// Adds a named waveform, replacing any existing waveform with the same name.
    pub fn insert(&mut self, name: impl Into<String>, waveform: Waveform) {
        let name = name.into();
        if let Some(pos) = self.names.iter().position(|n| *n == name) {
            self.waveforms[pos] = waveform;
        } else {
            self.names.push(name);
            self.waveforms.push(waveform);
        }
    }

    /// Looks up a waveform by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::MissingSignal`] if the name is unknown.
    pub fn get(&self, name: &str) -> Result<&Waveform, SpiceError> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.waveforms[i])
            .ok_or_else(|| SpiceError::MissingSignal(name.to_string()))
    }

    /// Names of all stored waveforms.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of stored waveforms.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(name, waveform)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Waveform)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.waveforms.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_waveform() -> Waveform {
        // 0 → 1.2 V linear ramp between t = 1 ns and 2 ns.
        let times: Vec<f64> = (0..=30).map(|i| i as f64 * 0.1e-9).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|&t| {
                if t <= 1e-9 {
                    0.0
                } else if t >= 2e-9 {
                    1.2
                } else {
                    1.2 * (t - 1e-9) / 1e-9
                }
            })
            .collect();
        Waveform::new(times, values).unwrap()
    }

    #[test]
    fn construction_validates_input() {
        assert!(Waveform::new(vec![], vec![]).is_err());
        assert!(Waveform::new(vec![0.0, 1.0], vec![0.0]).is_err());
        assert!(Waveform::new(vec![0.0, 0.0], vec![0.0, 1.0]).is_err());
        assert!(Waveform::new(vec![1.0, 0.5], vec![0.0, 1.0]).is_err());
    }

    #[test]
    fn value_interpolation_and_extremes() {
        let w = ramp_waveform();
        assert_eq!(w.value_at(0.0), 0.0);
        assert!((w.value_at(1.5e-9) - 0.6).abs() < 1e-9);
        assert_eq!(w.value_at(10e-9), 1.2);
        assert_eq!(w.min_value(), 0.0);
        assert_eq!(w.max_value(), 1.2);
        assert_eq!(w.final_value(), 1.2);
        assert_eq!(w.t_start(), 0.0);
        assert!((w.t_end() - 3e-9).abs() < 1e-15);
    }

    #[test]
    fn crossings_and_transition_time() {
        let w = ramp_waveform();
        let t50 = w.crossing(0.6, true).unwrap();
        assert!((t50 - 1.5e-9).abs() < 1e-12);
        assert!(w.crossing(0.6, false).is_none());
        let tt = w.transition_time(1.2, true).unwrap();
        assert!((tt - 0.8e-9).abs() < 1e-12);
        assert!(w.transition_time(1.2, false).is_none());
    }

    #[test]
    fn earliest_crossing_picks_the_first_edge() {
        assert_eq!(earliest_crossing(Some(1.0), Some(2.0)), Some((1.0, true)));
        assert_eq!(earliest_crossing(Some(2.0), Some(1.0)), Some((1.0, false)));
        // Ties go to the rising edge; single-direction crossings pass through.
        assert_eq!(earliest_crossing(Some(1.0), Some(1.0)), Some((1.0, true)));
        assert_eq!(earliest_crossing(Some(3.0), None), Some((3.0, true)));
        assert_eq!(earliest_crossing(None, Some(3.0)), Some((3.0, false)));
        assert_eq!(earliest_crossing(None, None), None);
    }

    #[test]
    fn propagation_delay_between_edges() {
        let input = ramp_waveform();
        // Output falls from 1.2 to 0 between 1.8 ns and 2.2 ns.
        let times: Vec<f64> = (0..=30).map(|i| i as f64 * 0.1e-9).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|&t| {
                if t <= 1.8e-9 {
                    1.2
                } else if t >= 2.2e-9 {
                    0.0
                } else {
                    1.2 * (1.0 - (t - 1.8e-9) / 0.4e-9)
                }
            })
            .collect();
        let output = Waveform::new(times, values).unwrap();
        let d = propagation_delay(&input, &output, 1.2, true, false).unwrap();
        assert!((d - 0.5e-9).abs() < 1e-12);
        let d_evt = delay_from_event(&output, 1.5e-9, 1.2, false).unwrap();
        assert!((d_evt - 0.5e-9).abs() < 1e-12);
        assert!(propagation_delay(&input, &output, 1.2, false, false).is_none());
    }

    #[test]
    fn resampling_preserves_shape() {
        let w = ramp_waveform();
        let dense: Vec<f64> = (0..=300).map(|i| i as f64 * 0.01e-9).collect();
        let r = w.resample_onto(&dense).unwrap();
        assert_eq!(r.len(), 301);
        assert!((r.value_at(1.5e-9) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn merged_time_grids_are_the_strictly_increasing_union() {
        let a = Waveform::new(vec![0.0, 1.0, 2.0, 4.0], vec![0.0; 4]).unwrap();
        let b = Waveform::new(vec![0.5, 1.0, 3.0, 5.0], vec![1.0; 4]).unwrap();
        let merged = a.merge_time_grids(&b);
        assert_eq!(merged, vec![0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0]);
        // Symmetric, and self-merge is the identity.
        assert_eq!(merged, b.merge_time_grids(&a));
        assert_eq!(a.merge_time_grids(&a), a.times().to_vec());
        // Resampling both onto the merged grid keeps every original sample.
        let ra = a.resample_onto(&merged).unwrap();
        for (i, &t) in a.times().iter().enumerate() {
            assert_eq!(ra.value_at(t), a.values()[i]);
        }
    }

    #[test]
    fn shifted_waveform_moves_crossings_by_the_offset() {
        let w = ramp_waveform();
        let delayed = w.shifted(0.5e-9);
        assert_eq!(delayed.values(), w.values());
        let t0 = w.crossing(0.6, true).unwrap();
        let t1 = delayed.crossing(0.6, true).unwrap();
        assert!((t1 - t0 - 0.5e-9).abs() < 1e-12);
        // Negative offsets advance; shape metrics are invariant.
        let advanced = w.shifted(-0.25e-9);
        assert!((advanced.t_start() + 0.25e-9).abs() < 1e-15);
        let tt_advanced = advanced.transition_time(1.2, true).unwrap();
        let tt_original = w.transition_time(1.2, true).unwrap();
        assert!((tt_advanced - tt_original).abs() < 1e-18);
    }

    #[test]
    fn resample_onto_clamps_outside_the_time_range() {
        let w = ramp_waveform();
        // Points entirely before and after the sampled range take the edge
        // values (the documented clamping), not an error or extrapolation.
        let r = w.resample_onto(&[-1e-9, -0.5e-9, 5e-9, 6e-9]).unwrap();
        assert_eq!(r.values(), &[0.0, 0.0, 1.2, 1.2]);
        // A non-increasing target grid is rejected.
        assert!(w.resample_onto(&[1e-9, 1e-9]).is_err());
    }

    #[test]
    fn crossing_on_flat_waveforms_is_none() {
        let flat = Waveform::new(vec![0.0, 1e-9, 2e-9], vec![0.6, 0.6, 0.6]).unwrap();
        // A flat signal sitting exactly at the level never *crosses* it.
        assert_eq!(flat.crossing(0.6, true), None);
        assert_eq!(flat.crossing(0.6, false), None);
        assert_eq!(flat.transition_time(1.2, true), None);
        // A level outside the waveform's range is never crossed either.
        let w = ramp_waveform();
        assert_eq!(w.crossing(1.5, true), None);
        assert_eq!(w.crossing(-0.1, false), None);
    }

    #[test]
    fn thin_prunes_within_the_error_bound() {
        let w = ramp_waveform();
        for eps in [1e-6, 0.01, 0.1, 0.5] {
            let t = w.thin(eps);
            assert_eq!(t.t_start(), w.t_start());
            assert_eq!(t.t_end(), w.t_end());
            assert_eq!(t.final_value(), w.final_value());
            assert!(t.len() <= w.len());
            let max_err = w
                .times()
                .iter()
                .zip(w.values())
                .map(|(&tt, &v)| (t.value_at(tt) - v).abs())
                .fold(0.0, f64::max);
            assert!(max_err <= eps + 1e-12, "eps {eps}: err {max_err}");
        }
        // The three-piece ramp collapses to its corner points even at a tight
        // bound — the pruning is shape-aware, not rate-limited.
        assert!(w.thin(1e-6).len() <= 6, "{}", w.thin(1e-6).len());
    }

    #[test]
    fn thin_with_no_budget_is_bit_identical() {
        let w = ramp_waveform();
        assert_eq!(w.thin(0.0), w);
        assert_eq!(w.thin(-1.0), w);
        assert_eq!(w.thin(f64::NAN), w);
        // Degenerate lengths pass through untouched.
        let two = Waveform::new(vec![0.0, 1.0], vec![0.3, 0.9]).unwrap();
        assert_eq!(two.thin(10.0), two);
    }

    #[test]
    fn rmse_between_identical_waveforms_is_zero() {
        let w = ramp_waveform();
        assert!(w.normalized_rmse_against(&w, 1.2).unwrap() < 1e-15);
    }

    #[test]
    fn rmse_detects_offset() {
        let w = ramp_waveform();
        let shifted = Waveform::new(
            w.times().to_vec(),
            w.values().iter().map(|v| v + 0.12).collect(),
        )
        .unwrap();
        let nrmse = shifted.normalized_rmse_against(&w, 1.2).unwrap();
        assert!((nrmse - 0.1).abs() < 1e-12);
    }

    #[test]
    fn waveform_set_insert_get_replace() {
        let mut set = WaveformSet::new();
        assert!(set.is_empty());
        set.insert("out", ramp_waveform());
        assert_eq!(set.len(), 1);
        assert!(set.get("out").is_ok());
        assert!(set.get("missing").is_err());
        // Replacement keeps a single entry.
        set.insert("out", ramp_waveform());
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().count(), 1);
        assert_eq!(set.names(), &["out".to_string()]);
    }
}
