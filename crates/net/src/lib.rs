//! Unified netlist IR: one circuit description for simulation, timing and
//! SPICE.
//!
//! The paper's whole point is comparing the *same circuit* across model
//! fidelities (SIS vs MIS vs complete/selective MCSM vs transistor-level
//! SPICE). This crate provides the shared representation that makes such
//! comparisons one function call:
//!
//! * [`Netlist`] / [`NetlistBuilder`] — a backend-neutral, validated gate-level
//!   circuit: named nets, primary I/O, gate instances by
//!   [`mcsm_cells::cell::CellKind`], explicit per-net loads, and JSON
//!   round-trips through `mcsm_num::json` ([`Netlist::to_json_string`] /
//!   [`Netlist::from_json_str`]);
//! * lowerings ([`lower`]) — [`Netlist::to_spice_circuit`] for
//!   transistor-level cross-checks and [`Netlist::simulate_gate`] to replay
//!   single gates through the generic `CellModel` engine (the netlist
//!   simulator, `mcsm-netsim`, consumes a [`Netlist`] as is);
//! * [`generators`] — seeded synthetic workloads (inverter/NAND chains,
//!   balanced trees, random leveled DAGs, scale-free preferential-attachment
//!   DAGs for the million-gate tier, the ISCAS-85 c17) parameterized by size,
//!   deterministic per [`mcsm_num::testrand::TestRng`] seed.
//!
//! # Example: one netlist, several consumers
//!
//! ```no_run
//! use mcsm_cells::cell::CellKind;
//! use mcsm_cells::tech::Technology;
//! use mcsm_net::NetlistBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = NetlistBuilder::new("demo")
//!     .primary_input("a")
//!     .primary_input("b")
//!     .gate("u_nor", CellKind::Nor2, &["a", "b"], "mid")
//!     .gate("u_inv", CellKind::Inverter, &["mid"], "out")
//!     .primary_output("out")
//!     .build()?;
//!
//! let tech = Technology::cmos_130nm();
//! let levels = netlist.levels(); // the schedule mcsm_netsim::simulate_netlist runs
//! let spice = netlist.to_spice_circuit(&tech)?; // feed mcsm_spice::analysis
//! let json = netlist.to_json_string(); // persist / exchange
//! # let _ = (levels, spice, json);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod generators;
pub mod lower;
pub mod netlist;

pub use error::NetlistError;
pub use generators::{
    balanced_tree, c17, inverter_chain, nand_chain, pipelined_dag, random_dag, s27, scale_free_dag,
    DagConfig, ScaleFreeConfig,
};
pub use lower::SpiceNetlist;
pub use netlist::{GateRef, GateView, LevelSchedule, NetRef, Netlist, NetlistBuilder};
