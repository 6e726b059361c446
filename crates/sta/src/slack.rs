//! Required times and slack for clocked (signoff-shaped) timing.
//!
//! Combinational timing (the netlist simulator, `mcsm-netsim`) answers "when
//! does this net switch"; signoff timing asks the complementary question: "when *must* it
//! switch". This module provides the clock description ([`ClockSpec`]), the
//! per-endpoint setup/hold arithmetic against characterized register windows
//! ([`register_endpoint`] / [`output_endpoint`]), and the sorted worst-first
//! report ([`SlackReport`]). The sequential driver in `mcsm-seq` supplies the
//! arrivals (from waveform propagation over the register-bounded cones) and
//! the [`RegisterModel`]s (from `mcsm-core`'s register characterization).
//!
//! Conventions: all times are in seconds, measured from the launching clock
//! edge at the clock source (`t = 0`). A register's own edge happens
//! `insertion_of` later; its capture edge one period after that.

use crate::error::StaError;
use mcsm_core::characterize::registers::RegisterModel;

/// An ideal single-phase clock: the source net, period, transition time and
/// per-register insertion delay (a uniform base plus optional per-instance
/// overrides, standing in for a clock tree).
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSpec {
    /// Name of the primary-input net carrying the clock.
    pub clock: String,
    /// Clock period (seconds).
    pub period: f64,
    /// Clock transition time at every register's CLK pin (seconds).
    pub slew: f64,
    /// Base insertion delay from the clock source to every register's CLK pin
    /// (seconds).
    pub insertion: f64,
    /// Per-register insertion-delay overrides `(instance name, seconds)`,
    /// replacing the base insertion for those instances.
    pub insertion_overrides: Vec<(String, f64)>,
}

impl ClockSpec {
    /// An ideal clock on `clock` with the given period, a 50 ps transition
    /// and zero insertion delay.
    pub fn new(clock: impl Into<String>, period: f64) -> Self {
        ClockSpec {
            clock: clock.into(),
            period,
            slew: 50e-12,
            insertion: 0.0,
            insertion_overrides: Vec::new(),
        }
    }

    /// Sets the clock transition time.
    #[must_use]
    pub fn with_slew(mut self, slew: f64) -> Self {
        self.slew = slew;
        self
    }

    /// Sets the base insertion delay.
    #[must_use]
    pub fn with_insertion(mut self, insertion: f64) -> Self {
        self.insertion = insertion;
        self
    }

    /// Overrides the insertion delay of one register instance.
    #[must_use]
    pub fn with_insertion_override(mut self, register: impl Into<String>, insertion: f64) -> Self {
        self.insertion_overrides.push((register.into(), insertion));
        self
    }

    /// Insertion delay seen by one register instance.
    pub fn insertion_of(&self, register: &str) -> f64 {
        self.insertion_overrides
            .iter()
            .rev()
            .find(|(name, _)| name == register)
            .map(|&(_, t)| t)
            .unwrap_or(self.insertion)
    }

    /// Validates the clock description.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::InvalidParameter`] describing the first bad field.
    pub fn validate(&self) -> Result<(), StaError> {
        if self.clock.is_empty() {
            return Err(StaError::InvalidParameter(
                "clock net name must not be empty".into(),
            ));
        }
        if !(self.period > 0.0) || !self.period.is_finite() {
            return Err(StaError::InvalidParameter(format!(
                "clock period must be positive and finite, got {}",
                self.period
            )));
        }
        if !(self.slew > 0.0) || !self.slew.is_finite() {
            return Err(StaError::InvalidParameter(format!(
                "clock slew must be positive and finite, got {}",
                self.slew
            )));
        }
        for t in
            std::iter::once(self.insertion).chain(self.insertion_overrides.iter().map(|&(_, t)| t))
        {
            if !(t >= 0.0) || !t.is_finite() {
                return Err(StaError::InvalidParameter(format!(
                    "clock insertion delay must be non-negative and finite, got {t}"
                )));
            }
        }
        Ok(())
    }
}

/// What kind of timing endpoint a slack entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// A register's D pin, checked against its characterized setup/hold
    /// windows.
    RegisterD,
    /// A primary output, required to settle by the end of the cycle.
    PrimaryOutput,
}

/// Setup/hold slack at one timing endpoint. Arrivals are `None` when the
/// endpoint never transitions in the analyzed scenario — such endpoints are
/// unconstrained and sort after every constrained one.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSlack {
    /// Register instance name or primary-output net name.
    pub endpoint: String,
    /// Endpoint kind.
    pub kind: EndpointKind,
    /// Data arrival (50 % crossing) at the endpoint, from the launching edge.
    pub arrival: Option<f64>,
    /// Data transition time at the endpoint.
    pub slew: Option<f64>,
    /// Required time for setup: latest allowed arrival.
    pub required: f64,
    /// Characterized setup window (zero for primary outputs).
    pub setup: f64,
    /// Characterized hold window (zero for primary outputs).
    pub hold: f64,
    /// `required - arrival`; negative means a setup violation.
    pub setup_slack: Option<f64>,
    /// Margin of the arrival past the hold window; negative means a hold
    /// violation. `None` for primary outputs and untransitioning endpoints.
    pub hold_slack: Option<f64>,
}

impl EndpointSlack {
    /// Whether this endpoint violates setup or hold.
    pub fn violated(&self) -> bool {
        self.setup_slack.is_some_and(|s| s < 0.0) || self.hold_slack.is_some_and(|s| s < 0.0)
    }
}

/// Builds the slack entry for a register D endpoint.
///
/// The register's capture edge sits at `period + insertion_of(register)`; the
/// data must arrive `setup(d_slew)` before it and must not move again until
/// `hold(d_slew)` after the register's *launch* edge at `insertion_of`.
///
/// # Errors
///
/// Propagates window-interpolation failures from the [`RegisterModel`].
pub fn register_endpoint(
    model: &RegisterModel,
    clock: &ClockSpec,
    register: &str,
    arrival: Option<f64>,
    slew: Option<f64>,
) -> Result<EndpointSlack, StaError> {
    let insertion = clock.insertion_of(register);
    // Window lookups use the observed data slew, falling back to the middle
    // of the characterized axis for untransitioning endpoints.
    let d_slew =
        slew.unwrap_or_else(|| 0.5 * (model.d_slews[0] + model.d_slews[model.d_slews.len() - 1]));
    let setup = model.setup_time(d_slew)?;
    let hold = model.hold_time(d_slew)?;
    let required = clock.period + insertion - setup;
    Ok(EndpointSlack {
        endpoint: register.to_string(),
        kind: EndpointKind::RegisterD,
        arrival,
        slew,
        required,
        setup,
        hold,
        setup_slack: arrival.map(|t| required - t),
        hold_slack: arrival.map(|t| t - (insertion + hold)),
    })
}

/// Builds the slack entry for a primary-output endpoint: the data must settle
/// by the end of the cycle (`period`), with no hold constraint.
pub fn output_endpoint(
    clock: &ClockSpec,
    net: &str,
    arrival: Option<f64>,
    slew: Option<f64>,
) -> EndpointSlack {
    EndpointSlack {
        endpoint: net.to_string(),
        kind: EndpointKind::PrimaryOutput,
        arrival,
        slew,
        required: clock.period,
        setup: 0.0,
        hold: 0.0,
        setup_slack: arrival.map(|t| clock.period - t),
        hold_slack: None,
    }
}

/// A worst-first slack report over a set of endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct SlackReport {
    /// Endpoints sorted by ascending setup slack (violations first);
    /// unconstrained endpoints (no transition) sort last, ties break on the
    /// endpoint name so the order is deterministic.
    pub endpoints: Vec<EndpointSlack>,
}

impl SlackReport {
    /// Sorts the endpoints worst-first and wraps them.
    pub fn new(mut endpoints: Vec<EndpointSlack>) -> Self {
        endpoints.sort_by(|a, b| {
            let ka = a.setup_slack.unwrap_or(f64::INFINITY);
            let kb = b.setup_slack.unwrap_or(f64::INFINITY);
            ka.partial_cmp(&kb)
                .expect("slacks are finite")
                .then_with(|| a.endpoint.cmp(&b.endpoint))
        });
        SlackReport { endpoints }
    }

    /// The worst (most negative) setup-slack endpoint, if any endpoint is
    /// constrained.
    pub fn worst(&self) -> Option<&EndpointSlack> {
        self.endpoints.iter().find(|e| e.setup_slack.is_some())
    }

    /// Endpoints violating setup or hold.
    pub fn violations(&self) -> impl Iterator<Item = &EndpointSlack> {
        self.endpoints.iter().filter(|e| e.violated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsm_cells::cell::CellKind;
    use mcsm_cells::tech::Technology;
    use mcsm_core::characterize::registers::{
        characterize_register, RegisterCharacterizationConfig,
    };

    fn dff() -> RegisterModel {
        characterize_register(
            CellKind::Dff,
            &Technology::cmos_130nm(),
            &RegisterCharacterizationConfig::coarse(),
        )
        .unwrap()
    }

    #[test]
    fn clock_spec_insertion_and_validation() {
        let clk = ClockSpec::new("CK", 1e-9)
            .with_slew(40e-12)
            .with_insertion(30e-12)
            .with_insertion_override("r1", 70e-12);
        assert!(clk.validate().is_ok());
        assert_eq!(clk.insertion_of("r0"), 30e-12);
        assert_eq!(clk.insertion_of("r1"), 70e-12);

        assert!(ClockSpec::new("", 1e-9).validate().is_err());
        assert!(ClockSpec::new("CK", -1.0).validate().is_err());
        assert!(ClockSpec::new("CK", 1e-9)
            .with_slew(0.0)
            .validate()
            .is_err());
        assert!(ClockSpec::new("CK", 1e-9)
            .with_insertion(f64::NAN)
            .validate()
            .is_err());
    }

    #[test]
    fn register_endpoint_slack_signs_track_the_clock() {
        let model = dff();
        let arrival = Some(400e-12);
        let slew = Some(50e-12);

        // A comfortable clock leaves positive slack.
        let slow = ClockSpec::new("CK", 2e-9);
        let e = register_endpoint(&model, &slow, "r0", arrival, slew).unwrap();
        assert!(e.setup_slack.unwrap() > 0.0);
        assert!(e.hold_slack.unwrap() > 0.0);
        assert!(!e.violated());

        // Squeezing the period below arrival + setup flips the sign.
        let fast = ClockSpec::new("CK", 300e-12);
        let e = register_endpoint(&model, &fast, "r0", arrival, slew).unwrap();
        assert!(e.setup_slack.unwrap() < 0.0);
        assert!(e.violated());

        // An endpoint that never transitions is unconstrained.
        let e = register_endpoint(&model, &slow, "r0", None, None).unwrap();
        assert_eq!(e.setup_slack, None);
        assert!(!e.violated());
    }

    #[test]
    fn report_sorts_worst_first_and_finds_violations() {
        let clock = ClockSpec::new("CK", 1e-9);
        let a = output_endpoint(&clock, "slow", Some(1.2e-9), Some(60e-12));
        let b = output_endpoint(&clock, "fast", Some(0.3e-9), Some(60e-12));
        let c = output_endpoint(&clock, "quiet", None, None);
        let report = SlackReport::new(vec![c.clone(), b.clone(), a.clone()]);
        assert_eq!(report.endpoints[0].endpoint, "slow");
        assert_eq!(report.endpoints[1].endpoint, "fast");
        assert_eq!(report.endpoints[2].endpoint, "quiet");
        assert_eq!(report.worst().unwrap().endpoint, "slow");
        let violations: Vec<_> = report.violations().map(|e| e.endpoint.as_str()).collect();
        assert_eq!(violations, ["slow"]);
    }
}
