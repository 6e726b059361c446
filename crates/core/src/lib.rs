//! MCSM — current-source models of CMOS logic cells with multiple-input
//! switching and internal (stack) node effect.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (*Amelifard, Hatami, Fatemi, Pedram — "A Current Source Model for CMOS Logic
//! Cells Considering Multiple Input Switching and Stack Effect", DATE 2008*):
//!
//! 1. **Characterization** ([`characterize`]) — turns a transistor-level cell
//!    (from `mcsm-cells`) into lookup-table models by DC sweeps (current
//!    sources) and ramp probing (capacitances), all performed with the
//!    `mcsm-spice` simulator standing in for HSPICE.
//! 2. **Models** ([`model`]) — the [`model::CellModel`] trait and its four
//!    implementations: the single-input-switching CSM of Section 2.1
//!    ([`model::SisModel`]), the baseline MIS CSM of Section 3.1 which ignores
//!    the internal node ([`model::MisBaselineModel`]), the complete MCSM of
//!    Sections 3.2–3.4 ([`model::McsmModel`]), and the §3.4 selective wrapper
//!    ([`selective::SelectiveModel`]) that picks between the latter two per
//!    cell instance from the load.
//! 3. **Simulation** ([`sim`]) — ONE generic time-stepping engine
//!    ([`sim::simulate`]) integrating the paper's Eqs. (4)–(5) for any
//!    [`model::CellModel`], driven through the [`sim::Simulation`] builder.
//! 4. **Metrics, selective modeling and storage** ([`metrics`], [`selective`],
//!    [`store`]) — including [`store::ModelStore::resolve`], which turns a
//!    [`store::ModelBackend`] request into an evaluatable `dyn CellModel`.
//!
//! # Example: characterize a NOR2 and reproduce the stack effect
//!
//! ```no_run
//! use mcsm_cells::cell::{CellKind, CellTemplate};
//! use mcsm_cells::tech::Technology;
//! use mcsm_core::characterize::characterize_mcsm;
//! use mcsm_core::config::CharacterizationConfig;
//! use mcsm_core::sim::{CsmSimOptions, DriveWaveform, Simulation};
//!
//! # fn main() -> Result<(), mcsm_core::CsmError> {
//! let tech = Technology::cmos_130nm();
//! let nor2 = CellTemplate::new(CellKind::Nor2, tech.clone());
//! let model = characterize_mcsm(&nor2, &CharacterizationConfig::standard())?;
//!
//! // Both inputs fall simultaneously ('11' → '00'); the initial internal-node
//! // voltage encodes the input history and changes the delay.
//! let waves = [
//!     DriveWaveform::falling_ramp(tech.vdd, 0.2e-9, 50e-12),
//!     DriveWaveform::falling_ramp(tech.vdd, 0.2e-9, 50e-12),
//! ];
//! let simulation = Simulation::of(&model)
//!     .inputs(&waves)
//!     .load(4e-15)
//!     .initial_output(0.0)
//!     .options(CsmSimOptions::new(2e-9, 0.5e-12));
//! let fast = simulation.clone().initial_state(&[tech.vdd]).run()?;
//! let slow = simulation.initial_state(&[0.35]).run()?;
//! assert!(fast.output.crossing(0.6, true) < slow.output.crossing(0.6, true));
//! # Ok(())
//! # }
//! ```
//!
//! # Example: resolve a model family from a store
//!
//! ```no_run
//! use mcsm_core::selective::SelectivePolicy;
//! use mcsm_core::store::{ModelBackend, ModelStore};
//! use mcsm_core::sim::{DriveWaveform, Simulation};
//!
//! # fn main() -> Result<(), mcsm_core::CsmError> {
//! let store = ModelStore::load(std::path::Path::new("nor2.json"))?;
//! let load = 4e-15;
//! // Section 3.4: the policy decides per instance whether the internal node
//! // is worth modeling for this load.
//! let model = store.resolve(ModelBackend::Selective(SelectivePolicy::default()), load)?;
//! let result = Simulation::of(&*model)
//!     .input(DriveWaveform::falling_ramp(1.2, 0.2e-9, 50e-12))
//!     .input(DriveWaveform::dc(0.0))
//!     .load(load)
//!     .run()?;
//! println!("arrival: {:?}", result.output.crossing(0.6, true));
//! # Ok(())
//! # }
//! ```

pub mod characterize;
pub mod config;
pub mod error;
pub mod eval;
pub mod metrics;
pub mod model;
pub mod selective;
pub mod sim;
pub mod store;
pub mod table;

pub use characterize::{
    characterize_batch, characterize_mcsm, characterize_mis_baseline, characterize_register,
    characterize_sis, characterize_store, CharacterizationTask, CharacterizedModel,
    RegisterCharacterizationConfig, RegisterModel,
};
pub use config::CharacterizationConfig;
pub use error::CsmError;
pub use eval::{EvalMode, EvalState};
pub use model::{CellModel, McsmModel, MisBaselineModel, SisModel};
pub use selective::{ModelChoice, SelectiveModel, SelectivePolicy};
pub use sim::{simulate, CsmIntegration, CsmSimOptions, DriveWaveform, SimResult, Simulation};
pub use store::{ModelBackend, ModelStore};
