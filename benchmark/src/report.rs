//! What a run accumulates and prints: operation counts, failures, latency
//! samples, the results digest and per-layer figures.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
    ("spice_nrmse_max", "ratio"),
    ("spice_arrival_err_ps", "ps_sim"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A layer a
/// workload leaves idle reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("characterize.comb_s", "s"),
    ("characterize.registers_s", "s"),
    ("spice.tran_s", "s"),
    ("net.build_ms", "ms"),
    ("net.levelize_ms", "ms"),
    ("drive.eval_ns", "ns"),
    ("drive.samples", "count"),
    ("core.solve_ms", "ms"),
    ("core.step_ns", "ns"),
    ("core.steps", "count"),
    ("core.lut_evals", "count"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.entries", "count"),
    ("netsim.run_ms", "ms"),
    ("netsim.self_ms", "ms"),
    ("netsim.gates_solved", "count"),
    ("netsim.gates_skipped", "count"),
    ("netsim.skip_ratio", "ratio"),
    ("netsim.recoveries", "count"),
    ("netsim.peak_live_waveforms", "count"),
    ("eco.cone_gates", "count"),
    ("eco.reused_ratio", "ratio"),
    ("eco.unchanged_solves", "count"),
    ("server.edit_us", "us"),
    ("server.resolve_ms", "ms"),
    ("server.read_us", "us"),
    ("server.waveform_ms", "ms"),
    ("seq.cycle_ms", "ms"),
    ("seq.gates_solved", "count"),
    ("seq.gates_skipped", "count"),
    ("seq.slack_ms", "ms"),
    ("rss.setup_mib", "MiB"),
    ("rss.growth_mib", "MiB"),
];

/// FNV-1a over the bits of simulated results: equal digests mean equal
/// arrivals, slews, register states and slacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hashes the exact bits; `None` (no crossing) hashes apart from every
    /// number.
    pub fn f64(&mut self, value: Option<f64>) {
        self.u64(value.map_or(u64::MAX, f64::to_bits));
    }

    pub fn text(&mut self, text: &str) {
        for byte in text.bytes() {
            self.u64(u64::from(byte));
        }
    }

    pub fn raw(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Mean of samples, 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Everything one run accumulates.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub digest: Digest,
    /// Latency samples of the workload's operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Units of work done in the timed phase (gates, ECOs or cycles).
    pub work_units: f64,
    /// Host seconds the timed phase took.
    pub work_seconds: f64,
    /// Per-layer figures of a traced run.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Counts one operation; a failed one is recorded and yields `None`.
    pub fn op<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(message) => {
                self.failures.push(message);
                None
            }
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }
}

/// Repeats `round` until `seconds` have passed, at least once. Each round
/// returns the digest of its results; the first becomes the run's digest and
/// every later one must equal it, since rounds repeat identical work.
pub fn repeat_rounds(run: &mut Run, seconds: f64, mut round: impl FnMut(&mut Run) -> Digest) {
    let started = Instant::now();
    let first = round(run);
    while started.elapsed().as_secs_f64() < seconds {
        let digest = round(run);
        run.op(if digest == first {
            Ok(())
        } else {
            Err("a repeated round gave different results".to_string())
        });
    }
    run.digest = first;
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(run: &Run, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        run.failures.is_empty(),
        run.attempted,
        run.failures.len(),
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert!((quantile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_tells_bits_and_missing_values_apart() {
        let mut a = Digest::default();
        a.f64(Some(1.0));
        let mut b = Digest::default();
        b.f64(Some(1.0 + f64::EPSILON));
        let mut c = Digest::default();
        c.f64(None);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut a2 = Digest::default();
        a2.f64(Some(1.0));
        assert_eq!(a, a2);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut run = Run::default();
        run.op::<()>(Ok(()));
        run.op::<()>(Err("boom".into()));
        let line = result_line(&run, &[("setup_s", "s", 1.5)]);
        let doc = mcsm_num::json::JsonValue::parse(&line).unwrap();
        let mcsm_num::json::JsonValue::Object(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(1.0));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.5));
    }
}
