//! Waveform-based timing of a small gate chain with all four delay-calculation
//! backends: SIS-only (what conventional STA does), baseline MIS, the complete
//! MCSM, and the paper's §3.4 selective mode. For a multiple-input-switching
//! event the SIS backend is optimistic; the MCSM backend tracks the
//! internal-node charge; the selective backend pays for the internal-node
//! tables only on lightly loaded gates.
//!
//! The circuit is described once through the unified `Netlist` IR and timed by
//! the netlist simulator (`mcsm-netsim`), which chains the backend's per-gate
//! solves and answers arrival queries from the resulting waveforms. The same
//! netlist value would lower to a transistor-level SPICE deck or replay single
//! gates through the generic model engine.
//!
//! Run with `cargo run --release --example sta_chain`.
//! Set `MCSM_BENCH_FAST=1` for coarse characterization grids (CI smoke mode).

use std::collections::HashMap;

use mcsm::cells::cell::CellKind;
use mcsm::cells::tech::Technology;
use mcsm::core::config::CharacterizationConfig;
use mcsm::core::selective::SelectivePolicy;
use mcsm::core::sim::{CsmSimOptions, DriveWaveform};
use mcsm::net::NetlistBuilder;
use mcsm::netsim::{simulate_netlist, NetsimOptions};
use mcsm::sta::delaycalc::{DelayBackend, DelayCalculator};
use mcsm::sta::models::ModelLibrary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::cmos_130nm();
    let config = if mcsm::num::par::env_flag("MCSM_BENCH_FAST") {
        CharacterizationConfig::coarse()
    } else {
        CharacterizationConfig::standard()
    };
    println!("characterizing INV and NOR2 ...");
    let library =
        ModelLibrary::characterize(&tech, &[CellKind::Inverter, CellKind::Nor2], &config)?;

    // a, b -> NOR2 -> mid -> INV -> out, described backend-neutrally.
    let netlist = NetlistBuilder::new("sta_chain")
        .primary_input("a")
        .primary_input("b")
        .gate("u_nor", CellKind::Nor2, &["a", "b"], "mid")
        .gate("u_inv", CellKind::Inverter, &["mid"], "out")
        .net_load("out", 2e-15) // explicit lumped load on the output net
        .primary_output("out")
        .build()?;
    let mid = netlist.find_net("mid")?;
    let out = netlist.find_net("out")?;

    // Both primary inputs fall together at 1 ns: a MIS event at the NOR2.
    let mut drives = HashMap::new();
    for &pi in netlist.primary_inputs() {
        drives.insert(pi, DriveWaveform::falling_ramp(tech.vdd, 1e-9, 80e-12));
    }

    println!("backend                    arrival(mid, rise) [ps]   arrival(out, fall) [ps]");
    for (label, backend) in [
        ("SisOnly", DelayBackend::SisOnly),
        ("BaselineMis", DelayBackend::BaselineMis),
        ("CompleteMcsm", DelayBackend::CompleteMcsm),
        // The paper's §3.4 operating point: with the default 8x load-ratio
        // threshold, the lightly loaded NOR2 keeps its internal-node tables
        // while a heavily loaded gate would drop to the simple MIS model.
        (
            "Selective(8x)",
            DelayBackend::Selective(SelectivePolicy::default()),
        ),
    ] {
        // `.with_threads(0)` fans each topological level across all cores;
        // results are bit-identical to the sequential run. The explicit
        // `net_load("out", …)` above replaces the old per-run
        // `primary_output_load` knob, so it is 0 here.
        let options = NetsimOptions::new(
            DelayCalculator::new(backend, CsmSimOptions::new(4e-9, 1e-12), tech.vdd),
            0.0,
        )
        .with_threads(0);
        let result = simulate_netlist(&netlist, &library, &drives, &options)?;
        let t_mid = result.arrival_time(mid, true).unwrap_or(f64::NAN) * 1e12;
        let t_out = result.arrival_time(out, false).unwrap_or(f64::NAN) * 1e12;
        println!("{label:<26} {t_mid:>22.2}   {t_out:>22.2}");
    }
    println!("\nSIS-only timing is optimistic for the simultaneous-switching event;");
    println!("the complete MCSM accounts for the stack-node charge as well, and the");
    println!("selective backend matches it wherever the load keeps the effect visible.");
    println!(
        "\nThe same netlist serializes to {} bytes of JSON and lowers to a",
        netlist.to_json_string().len()
    );
    println!("transistor-level SPICE deck via `to_spice_circuit` for cross-checks.");
    Ok(())
}
