//! Quickstart: characterize a NOR2 cell, simulate a multiple-input-switching
//! event with the MCSM, and compare it against the transistor-level reference.
//!
//! Run with `cargo run --release --example quickstart`.
//! Set `MCSM_BENCH_FAST=1` for coarse characterization grids (CI smoke mode).

use mcsm::cells::cell::{CellKind, CellTemplate};
use mcsm::cells::load::FanoutLoad;
use mcsm::cells::stimuli::InputHistory;
use mcsm::cells::tech::Technology;
use mcsm::cells::testbench::{CellTestbench, LoadSpec};
use mcsm::core::characterize::characterize_mcsm;
use mcsm::core::config::CharacterizationConfig;
use mcsm::core::metrics::compare_waveforms;
use mcsm::core::sim::{CsmSimOptions, DriveWaveform, Simulation};
use mcsm::spice::analysis::TranOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The technology and the cell under study.
    let tech = Technology::cmos_130nm();
    let nor2 = CellTemplate::new(CellKind::Nor2, tech.clone());
    println!("technology: {} (Vdd = {} V)", tech.name, tech.vdd);

    // 2. Characterize the complete MCSM (4-D current and capacitance tables).
    let config = if mcsm::num::par::env_flag("MCSM_BENCH_FAST") {
        CharacterizationConfig::coarse()
    } else {
        CharacterizationConfig::standard()
    };
    println!("characterizing NOR2 ...");
    let model = characterize_mcsm(&nor2, &config)?;
    println!(
        "  -> tables over {} grid points per current axis",
        model.current_tables.axes()[0].len()
    );

    // 3. A simultaneous '11' -> '00' transition into an FO2 load.
    let t_switch = 1.0e-9;
    let transition = 60e-12;
    let waves = [
        DriveWaveform::falling_ramp(tech.vdd, t_switch, transition),
        DriveWaveform::falling_ramp(tech.vdd, t_switch, transition),
    ];
    let load = FanoutLoad::new(tech.clone(), 2).equivalent_capacitance();
    let mcsm_result = Simulation::of(&model)
        .inputs(&waves)
        .load(load)
        .initial_output(0.0)
        .options(CsmSimOptions::new(2.5e-9, 0.5e-12))
        .run()?;

    // 4. The transistor-level reference of the same event.
    let mut bench = CellTestbench::new(&nor2, &LoadSpec::Fanout(2))?;
    let history = InputHistory::simultaneous(
        tech.vdd,
        transition,
        vec![true, true],
        vec![false, false],
        t_switch,
    );
    bench.apply_history(&history)?;
    let reference = bench.run_transient(&TranOptions::new(2.5e-9, 2e-12))?;
    let spice_out = reference.node("out")?;

    // 5. Compare.
    let cmp = compare_waveforms(spice_out, &mcsm_result.output, tech.vdd, true)?;
    println!("MCSM vs. SPICE for the MIS event:");
    println!(
        "  waveform RMSE     = {:.2} % of Vdd",
        100.0 * cmp.normalized_rmse
    );
    println!("  max voltage error = {:.3} V", cmp.max_abs_error);
    if let Some(dd) = cmp.delay_difference {
        println!("  50% delay error   = {:.1} ps", dd * 1e12);
    }
    Ok(())
}
