//! End-to-end netlist transient simulation of the ISCAS-85 c17 benchmark.
//!
//! The event-driven `mcsm-netsim` simulator chains per-gate current-source-
//! model solves along the unified `Netlist` IR: every driver's computed
//! output waveform becomes its fanouts' input (as a shared PWL drive), so
//! multiple-input-switching alignment survives all the way through the
//! circuit. This example simulates c17 under staggered falling input ramps
//! and prints each gate output's 50 % arrival time and 10–90 % slew, read off
//! the simulated waveforms, plus which gates the simulator never had to solve.
//!
//! Run with `cargo run --release --example netlist_sim`.
//! Set `MCSM_BENCH_FAST=1` for coarse characterization grids (CI smoke mode).

use std::collections::HashMap;

use mcsm::cells::cell::CellKind;
use mcsm::cells::tech::Technology;
use mcsm::core::config::CharacterizationConfig;
use mcsm::core::sim::{CsmSimOptions, DriveWaveform};
use mcsm::net::c17;
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
    println!("characterizing NAND2 ...");
    let library = ModelLibrary::characterize(&tech, &[CellKind::Nand2], &config)?;

    let netlist = c17();
    println!(
        "c17: {} gates, {} nets, {} primary inputs",
        netlist.gate_count(),
        netlist.net_count(),
        netlist.primary_inputs().len()
    );

    // Staggered falling ramps on every input: N10/N11 see genuine
    // multiple-input-switching events.
    let mut drives = HashMap::new();
    for (i, &pi) in netlist.primary_inputs().iter().enumerate() {
        drives.insert(
            pi,
            DriveWaveform::falling_ramp(tech.vdd, 1e-9 + 20e-12 * i as f64, 80e-12),
        );
    }

    let calculator = DelayCalculator::new(
        DelayBackend::CompleteMcsm,
        CsmSimOptions::new(3.5e-9, 2e-12),
        tech.vdd,
    );

    // Event-driven netlist simulation (`.with_threads(0)` = all cores;
    // results are bit-identical to the sequential run).
    let options = NetsimOptions::new(calculator, 2e-15).with_threads(0);
    let result = simulate_netlist(&netlist, &library, &drives, &options)?;
    let stats = result.stats();

    println!("\nnet   | arrival [ps] | slew [ps] | edge");
    println!("------|--------------|-----------|-----");
    for net in netlist.net_refs() {
        if netlist.driver_of(net).is_none() {
            continue;
        }
        let name = netlist.net_name(net);
        match result.arrival_any(net) {
            Some((t, rising)) => println!(
                "{name:<5} | {:>12.1} | {:>9.1} | {}",
                t * 1e12,
                result.slew(net, rising).unwrap_or(f64::NAN) * 1e12,
                if rising { "rise" } else { "fall" }
            ),
            None => println!("{name:<5} | {:>12} | {:>9} | -", "-", "-"),
        }
    }
    println!(
        "\nnetsim solved {} gates, skipped {} (quiescent), {} eventful nets",
        stats.gates_simulated, stats.gates_skipped, stats.events
    );
    println!("the same Netlist value lowers to SPICE via `to_spice_circuit` —");
    println!("tests/netsim.rs pins the c17 waveforms against that golden reference.");
    Ok(())
}
