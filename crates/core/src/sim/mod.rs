//! Model simulation: turning characterized tables plus input waveforms into
//! output (and internal-node) waveforms.
//!
//! The [`Simulation`] builder over the generic [`engine::simulate`] loop is the
//! runtime API.

pub mod drive;
pub mod engine;

pub use drive::DriveWaveform;
pub use engine::{simulate, CsmIntegration, CsmSimOptions, SimResult, Simulation};
