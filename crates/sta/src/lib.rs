//! Gate-level delay calculation and crosstalk-noise analysis driven by
//! current-source models.
//!
//! This crate hosts the "tool context" the paper motivates — the per-gate
//! pieces a waveform-based timing flow is assembled from, consuming the models
//! characterized by `mcsm-core`:
//!
//! * [`models::ModelLibrary`] — characterized model bundles per cell kind;
//! * [`delaycalc::DelayCalculator`] — per-gate waveform computation with
//!   selectable backend (SIS-only, baseline MIS, complete MCSM, or the paper's
//!   §3.4 selective mode), all dispatched through the `CellModel` trait and the
//!   one generic engine in `mcsm_core`;
//! * [`slack`] — clock specifications and setup/hold endpoint arithmetic;
//! * [`noise`] — the coupled victim/aggressor crosstalk scenario of the paper's
//!   Fig. 12, with the aggressor-arrival sweep and accuracy metrics.
//!
//! Whole netlists are timed by `mcsm-netsim`, which chains
//! [`DelayCalculator`] solves level by level and answers arrival, slew and
//! waveform queries from its result.
//!
//! # Example: one gate solve with selective modeling
//!
//! [`DelayBackend::Selective`] is the paper's recommended operating point: per
//! gate, the policy compares the driven load against the cell's own output
//! capacitance and pays for the internal-node tables only where they matter.
//!
//! ```no_run
//! use mcsm_cells::cell::CellKind;
//! use mcsm_cells::tech::Technology;
//! use mcsm_core::config::CharacterizationConfig;
//! use mcsm_core::selective::SelectivePolicy;
//! use mcsm_core::sim::{CsmSimOptions, DriveWaveform};
//! use mcsm_sta::delaycalc::{DelayBackend, DelayCalculator};
//! use mcsm_sta::models::ModelLibrary;
//!
//! # fn main() -> Result<(), mcsm_sta::StaError> {
//! let tech = Technology::cmos_130nm();
//! let library = ModelLibrary::characterize(
//!     &tech,
//!     &[CellKind::Nor2],
//!     &CharacterizationConfig::standard(),
//! )?;
//!
//! // Both inputs fall together at 1 ns: a multiple-input-switching event.
//! let inputs = [
//!     DriveWaveform::falling_ramp(tech.vdd, 1e-9, 80e-12),
//!     DriveWaveform::falling_ramp(tech.vdd, 1e-9, 80e-12),
//! ];
//! let calculator = DelayCalculator::new(
//!     DelayBackend::Selective(SelectivePolicy::default()),
//!     CsmSimOptions::new(4e-9, 1e-12),
//!     tech.vdd,
//! );
//! let store = library.store(CellKind::Nor2)?;
//! let output = calculator.gate_output(store, CellKind::Nor2, &inputs, 2e-15)?;
//! println!("NOR2 output rises at {:?}", output.crossing(0.5 * tech.vdd, true));
//! # Ok(())
//! # }
//! ```

pub mod delaycalc;
pub mod error;
pub mod models;
pub mod noise;
pub mod slack;

pub use delaycalc::{DelayBackend, DelayCache, DelayCalculator, WaveformCache};
pub use error::StaError;
pub use models::ModelLibrary;
pub use noise::{sweep_injection_times, CrosstalkReference, CrosstalkScenario, NoisePoint};
pub use slack::{
    output_endpoint, register_endpoint, ClockSpec, EndpointKind, EndpointSlack, SlackReport,
};
