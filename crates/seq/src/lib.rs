//! Clocked sequential simulation and setup/hold signoff timing.
//!
//! The combinational stack (`mcsm-netsim`, `mcsm-sta`) answers questions
//! about one data wave through a register-free circuit. Real designs clock
//! that wave through register stages, and the questions change: what state
//! does the machine reach after N cycles, and does every register's D pin
//! make its setup/hold window at the chosen clock period? This crate answers
//! both on top of the same current-source models:
//!
//! * [`partition::SeqNetlist`] — partitions a register-bearing
//!   [`mcsm_net::Netlist`] at its register boundaries into a validated
//!   combinational cone plus a register list, rejecting gated/derived clocks
//!   and latches descriptively;
//! * [`epoch`] — the clocked epoch scheduler: one comb-cone transient
//!   simulation per clock cycle ([`simulate_sequential`] /
//!   [`step_cycle`]), with sampled register state carried between epochs,
//!   clk-to-q launch ramps from characterized register models, and
//!   ECO-driven incremental re-simulation of a single epoch
//!   ([`resimulate_cycle`]);
//! * [`sta`] — sequential signoff timing ([`analyze_sequential`]): waveform
//!   propagation over the same cones on the same launch timeline, checked
//!   against each register's characterized setup/hold windows into a
//!   worst-first [`mcsm_sta::slack::SlackReport`]. Per-pin delays live in a
//!   caller-owned [`PinDelayMemo`]: the first analysis solves every pin
//!   shape, and later analyses through the same memo solve only the shapes
//!   they have not met before, with bit-identical reports.
//!
//! Register models (clk-to-q tables, setup/hold windows, D-pin capacitance)
//! come from `mcsm_core::characterize::registers` via
//! `ModelLibrary::characterize_registers`.
//!
//! # Example: eight cycles of ISCAS-89 s27 plus a slack report
//!
//! ```no_run
//! use mcsm_cells::cell::CellKind;
//! use mcsm_cells::tech::Technology;
//! use mcsm_core::config::CharacterizationConfig;
//! use mcsm_core::characterize::RegisterCharacterizationConfig;
//! use mcsm_core::sim::CsmSimOptions;
//! use mcsm_net::s27;
//! use mcsm_netsim::NetsimOptions;
//! use mcsm_seq::{
//!     analyze_sequential, simulate_sequential, CycleInputs, PinDelayMemo, SeqOptions,
//!     SeqTimingOptions,
//! };
//! use mcsm_sta::{ClockSpec, DelayBackend, DelayCalculator, ModelLibrary};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tech = Technology::cmos_130nm();
//! let netlist = s27();
//! let mut library = ModelLibrary::characterize(
//!     &tech,
//!     &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
//!     &CharacterizationConfig::standard(),
//! )?;
//! library.characterize_registers(
//!     &tech,
//!     &[CellKind::Dff],
//!     &RegisterCharacterizationConfig::standard(),
//! )?;
//!
//! let clock = ClockSpec::new("CK", 2e-9);
//! let calculator = DelayCalculator::new(
//!     DelayBackend::CompleteMcsm,
//!     CsmSimOptions::new(4e-9, 1e-12),
//!     tech.vdd,
//! );
//! let options = SeqOptions::new(NetsimOptions::new(calculator.clone(), 2e-15));
//! let g0 = netlist.find_net("G0")?;
//! let cycles: Vec<CycleInputs> = (0..8)
//!     .map(|i| CycleInputs::from_pairs([(g0, i % 2 == 0)]))
//!     .collect();
//! let result = simulate_sequential(&netlist, &library, &clock, &cycles, &options)?;
//! println!("final state: {:?}", result.states.last());
//!
//! let timing = SeqTimingOptions::new(calculator, 2e-15);
//! // Keep the memo across signoffs: the first one solves every pin shape,
//! // the second (here at a tighter clock) only shapes it has not met.
//! let mut memo = PinDelayMemo::new();
//! let report = analyze_sequential(&netlist, &library, &clock, &timing, &mut memo)?;
//! println!("worst slack: {:?}", report.worst().map(|e| e.setup_slack));
//! let tight = ClockSpec::new("CK", 0.5e-9);
//! let report = analyze_sequential(&netlist, &library, &tight, &timing, &mut memo)?;
//! println!("{} violations, {} new pin solves", report.violations().count(), memo.solves());
//! # Ok(())
//! # }
//! ```

pub mod epoch;
pub mod error;
pub mod partition;
pub mod sta;

pub use epoch::{
    capture_time, epoch_t0, initial_seq_state, resimulate_cycle, simulate_sequential, step_cycle,
    CycleInputs, CycleOutcome, RegState, SeqOptions, SeqResult, SeqState, SeqStats,
};
pub use error::SeqError;
pub use partition::{NetSource, Register, SeqNetlist};
pub use sta::{analyze_sequential, PinDelayMemo, SeqTimingOptions};
