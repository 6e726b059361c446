//! Event-driven netlist-level transient simulation with current-source models.
//!
//! The paper's pitch is that characterized current-source models replace
//! transistor-level SPICE for *circuit-level* analysis. The other crates of
//! this workspace provide the pieces — per-gate model solves (`mcsm-core`),
//! per-gate delay calculation (`mcsm-sta`), the backend-neutral circuit IR
//! (`mcsm-net`) and the golden-reference SPICE engine (`mcsm-spice`) — and
//! this crate assembles them into the missing workload: a **full-netlist
//! waveform-accurate simulator**. Given a [`Netlist`](mcsm_net::Netlist), a
//! characterized [`ModelLibrary`](mcsm_sta::models::ModelLibrary) and a drive
//! waveform per primary input, [`simulate_netlist`] produces the voltage
//! waveform on *every* net.
//!
//! It is also the workspace's one timing engine: arrival times, slews and
//! waveforms are read off the [`NetsimResult`]
//! ([`NetsimResult::arrival_time`], [`NetsimResult::arrival_any`],
//! [`NetsimResult::slew`], [`NetsimResult::waveform`]). Three properties
//! shape it:
//!
//! * **Event-driven** — gates whose inputs never leave the rails are resolved
//!   to their Boolean DC level without entering the numerical engine, and the
//!   quiescence propagates; with sparse input activity most of a large
//!   circuit is never simulated (see [`NetsimStats`]).
//! * **Shared waveform handoff** — a driver's output becomes its fanouts'
//!   input as a [`DriveWaveform::Pwl`](mcsm_core::sim::DriveWaveform)
//!   (reference-counted samples, O(1) per fanout pin), carrying true
//!   multiple-input-switching alignment into the MIS/MCSM models at netlist
//!   scope.
//! * **Deterministic level-parallelism** — the gates of each topological
//!   level fan out over [`mcsm_num::par`] workers; results are bit-identical
//!   at every thread count, like every parallel layer of this workspace.
//!
//! For long-running sessions (the `mcsm-serve` query server) the crate also
//! provides **incremental re-evaluation**: [`resimulate_netlist`] re-solves
//! only the downstream [`schedule::cone_of_influence`] of an ECO edit or
//! drive change, reusing committed waveforms for every untouched net, and
//! [`simulate_netlist_cached`] threads shared [`SimCaches`] (including the
//! whole-gate-solve [`WaveformCache`](mcsm_sta::WaveformCache) memo) through
//! repeated runs. Both are pinned bit-identical to from-scratch
//! [`simulate_netlist`] at any thread count.
//!
//! # Example
//!
//! ```no_run
//! use std::collections::HashMap;
//! use mcsm_cells::cell::CellKind;
//! use mcsm_cells::tech::Technology;
//! use mcsm_core::config::CharacterizationConfig;
//! use mcsm_core::sim::{CsmSimOptions, DriveWaveform};
//! use mcsm_net::c17;
//! use mcsm_netsim::{simulate_netlist, NetsimOptions};
//! use mcsm_sta::delaycalc::{DelayBackend, DelayCalculator};
//! use mcsm_sta::models::ModelLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = Technology::cmos_130nm();
//! let library = ModelLibrary::characterize(
//!     &tech,
//!     &[CellKind::Nand2],
//!     &CharacterizationConfig::standard(),
//! )?;
//! let netlist = c17();
//! let mut drives = HashMap::new();
//! for (i, &pi) in netlist.primary_inputs().iter().enumerate() {
//!     drives.insert(
//!         pi,
//!         DriveWaveform::rising_ramp(tech.vdd, 1e-9 + 30e-12 * i as f64, 80e-12),
//!     );
//! }
//! let calculator = DelayCalculator::new(
//!     DelayBackend::CompleteMcsm,
//!     CsmSimOptions::new(4e-9, 1e-12),
//!     tech.vdd,
//! );
//! let result = simulate_netlist(
//!     &netlist,
//!     &library,
//!     &drives,
//!     &NetsimOptions::new(calculator, 2e-15).with_threads(0),
//! )?;
//! for net in netlist.net_refs() {
//!     if let Some((t, rising)) = result.arrival_any(net) {
//!         println!("{}: {:.1} ps ({})", result.net_name(net), t * 1e12, rising);
//!     }
//! }
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod schedule;
pub mod sim;

pub use error::NetsimError;
pub use schedule::{
    cone_of_influence, effective_load, seeds_for_drive_change, seeds_for_gate_edit,
    seeds_for_load_change,
};
pub use sim::{
    resimulate_netlist, simulate_netlist, simulate_netlist_cached, NetsimOptions, NetsimResult,
    NetsimStats, Observe, Recovery, RecoveryResolution, SimCaches, WaveformStore,
    DEFAULT_EVENT_THRESHOLD,
};
