//! Time-integration helpers.
//!
//! The SPICE transient engine replaces each capacitor with a *companion model*
//! (a conductance in parallel with a current source) derived from backward
//! Euler or the trapezoidal rule — [`CompanionMethod`] and [`CapacitorCompanion`].

/// Integration method used to build capacitor companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompanionMethod {
    /// First-order backward Euler: robust, strongly damped.
    #[default]
    BackwardEuler,
    /// Second-order trapezoidal rule: more accurate, may ring on stiff steps.
    Trapezoidal,
}

/// Companion-model coefficients for a linear capacitor over one time step.
///
/// The capacitor branch current is represented as
/// `i = g_eq * v(t_{n+1}) + i_eq`
/// where `g_eq` and `i_eq` depend on the method, the step size and the state at
/// the previous time point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitorCompanion {
    /// Equivalent conductance (siemens).
    pub g_eq: f64,
    /// Equivalent history current source (amps).
    pub i_eq: f64,
}

impl CapacitorCompanion {
    /// Builds the companion model of a capacitor `c` for a step of `dt` seconds,
    /// given the capacitor voltage and current at the previous time point.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive (a zero step is a programming error
    /// in the time-stepping loop, not a recoverable condition).
    pub fn new(
        method: CompanionMethod,
        c: f64,
        dt: f64,
        v_prev: f64,
        i_prev: f64,
    ) -> CapacitorCompanion {
        assert!(dt > 0.0, "companion model requires dt > 0, got {dt}");
        match method {
            CompanionMethod::BackwardEuler => {
                let g_eq = c / dt;
                CapacitorCompanion {
                    g_eq,
                    i_eq: -g_eq * v_prev,
                }
            }
            CompanionMethod::Trapezoidal => {
                let g_eq = 2.0 * c / dt;
                CapacitorCompanion {
                    g_eq,
                    i_eq: -g_eq * v_prev - i_prev,
                }
            }
        }
    }

    /// Branch current through the capacitor at the new voltage `v_new`.
    pub fn current(&self, v_new: f64) -> f64 {
        self.g_eq * v_new + self.i_eq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates an RC discharge (R to ground) with companion models and checks
    /// the result against the analytic exponential.
    fn simulate_rc(method: CompanionMethod, steps: usize) -> f64 {
        let r = 1_000.0;
        let c = 1e-12;
        let t_end = 5e-9;
        let dt = t_end / steps as f64;
        let mut v = 1.0;
        let mut i_cap = -v / r; // capacitor current (discharging into R)
        for _ in 0..steps {
            let comp = CapacitorCompanion::new(method, c, dt, v, i_cap);
            // KCL at the single node: v/R + g_eq v + i_eq = 0
            let v_new = -comp.i_eq / (1.0 / r + comp.g_eq);
            i_cap = comp.current(v_new);
            v = v_new;
        }
        v
    }

    #[test]
    fn backward_euler_tracks_rc_discharge() {
        let v = simulate_rc(CompanionMethod::BackwardEuler, 2_000);
        let expected = (-5e-9_f64 / (1_000.0 * 1e-12)).exp();
        assert!((v - expected).abs() < 5e-3, "v = {v}, expected {expected}");
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_backward_euler() {
        let steps = 100;
        let expected = (-5e-9_f64 / (1_000.0 * 1e-12)).exp();
        let be = (simulate_rc(CompanionMethod::BackwardEuler, steps) - expected).abs();
        let trap = (simulate_rc(CompanionMethod::Trapezoidal, steps) - expected).abs();
        assert!(
            trap < be,
            "trapezoidal ({trap}) should beat backward Euler ({be})"
        );
    }

    #[test]
    fn companion_conductance_scales_with_c_over_dt() {
        let comp = CapacitorCompanion::new(CompanionMethod::BackwardEuler, 2e-15, 1e-12, 0.0, 0.0);
        assert!((comp.g_eq - 2e-3).abs() < 1e-15);
        let comp_trap =
            CapacitorCompanion::new(CompanionMethod::Trapezoidal, 2e-15, 1e-12, 0.0, 0.0);
        assert!((comp_trap.g_eq - 4e-3).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "dt > 0")]
    fn zero_step_panics() {
        let _ = CapacitorCompanion::new(CompanionMethod::BackwardEuler, 1e-15, 0.0, 0.0, 0.0);
    }
}
