//! Clocked sequential simulation and signoff timing of a register pipeline.
//!
//! `mcsm-seq` partitions a register-bearing `Netlist` at its DFF boundaries,
//! then runs one event-driven comb-cone transient per clock cycle: every
//! register launches a characterized clk-to-q ramp at its clock edge, the
//! cone settles through the current-source models, and each D pin is sampled
//! at the next capture edge to become the carried state of the following
//! epoch. The same launch timeline feeds the sequential STA, which checks
//! every D-pin arrival band against the register's characterized setup/hold
//! window.
//!
//! This example builds a seeded 3-stage x 4-bit pipeline, clocks it for
//! eight cycles under toggling inputs, prints the carried register state per
//! cycle, and then runs signoff timing twice through one pin-delay memo:
//! once at a comfortable 2 ns period (all slacks positive) and once
//! deliberately under-constrained, where the worst register endpoint goes
//! negative and no pin shape needs a new solve.
//!
//! Run with `cargo run --release --example seq_pipeline`.
//! Set `MCSM_BENCH_FAST=1` for coarse characterization grids (CI smoke mode).

use mcsm::cells::cell::CellKind;
use mcsm::cells::tech::Technology;
use mcsm::core::characterize::RegisterCharacterizationConfig;
use mcsm::core::config::CharacterizationConfig;
use mcsm::core::sim::CsmSimOptions;
use mcsm::net::pipelined_dag;
use mcsm::netsim::NetsimOptions;
use mcsm::seq::{analyze_sequential, simulate_sequential, CycleInputs, PinDelayMemo, SeqOptions};
use mcsm::sta::delaycalc::{DelayBackend, DelayCalculator};
use mcsm::sta::models::ModelLibrary;
use mcsm::sta::slack::{ClockSpec, SlackReport};
use mcsm_seq::SeqTimingOptions;

fn print_report(label: &str, report: &SlackReport) {
    let violations = report.violations().count();
    println!(
        "{label}: {} endpoints, {violations} violating",
        report.endpoints.len()
    );
    println!("  endpoint      | arrival ps | setup ps | setup slack ps | hold slack ps");
    for endpoint in report.endpoints.iter().take(5) {
        let ps = |v: Option<f64>| match v {
            Some(v) => format!("{:8.1}", v * 1e12),
            None => "       -".to_string(),
        };
        println!(
            "  {:13} | {} | {:8.1} | {} | {}",
            endpoint.endpoint,
            ps(endpoint.arrival),
            endpoint.setup * 1e12,
            ps(endpoint.setup_slack),
            ps(endpoint.hold_slack),
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::cmos_130nm();
    let fast = mcsm::num::par::env_flag("MCSM_BENCH_FAST");
    let (comb_config, reg_config, dt) = if fast {
        (
            CharacterizationConfig::coarse(),
            RegisterCharacterizationConfig::coarse(),
            4e-12,
        )
    } else {
        (
            CharacterizationConfig::standard(),
            RegisterCharacterizationConfig::standard(),
            2e-12,
        )
    };

    println!("characterizing INV/NAND2/NOR2 + DFF ...");
    let mut library = ModelLibrary::characterize(
        &tech,
        &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
        &comb_config,
    )?;
    library.characterize_registers(&tech, &[CellKind::Dff], &reg_config)?;

    let netlist = pipelined_dag(3, 4, 7);
    println!(
        "{}: {} gates ({} registers), {} nets",
        netlist.name(),
        netlist.gate_count(),
        netlist
            .iter_gates()
            .filter(|g| g.kind.is_sequential())
            .count(),
        netlist.net_count()
    );

    // Eight cycles: every data input toggles each cycle, so all three stages
    // see fresh waves marching through.
    let clock = ClockSpec::new("clk", 2e-9);
    let calculator = DelayCalculator::new(
        DelayBackend::CompleteMcsm,
        CsmSimOptions::new(4e-9, dt),
        tech.vdd,
    );
    let options = SeqOptions::new(NetsimOptions::new(calculator.clone(), 2e-15));
    let data_inputs: Vec<_> = netlist
        .primary_inputs()
        .iter()
        .copied()
        .filter(|&pi| netlist.net_name(pi) != clock.clock)
        .collect();
    let cycles: Vec<CycleInputs> = (0..8)
        .map(|cycle| {
            CycleInputs::from_pairs(
                data_inputs
                    .iter()
                    .enumerate()
                    .map(|(i, &pi)| (pi, (cycle + i) % 2 == 0)),
            )
        })
        .collect();

    let result = simulate_sequential(&netlist, &library, &clock, &cycles, &options)?;
    println!(
        "simulated {} cycles: {} gate solves, {} event-skipped",
        result.stats.cycles, result.stats.gates_simulated, result.stats.gates_skipped
    );
    for (cycle, states) in result.states.iter().enumerate() {
        let bits: String = states
            .iter()
            .map(|s| if s.value { '1' } else { '0' })
            .collect();
        let outs: String = result.po_values[cycle]
            .iter()
            .map(|&v| if v { '1' } else { '0' })
            .collect();
        println!("  cycle {cycle}: registers {bits}  outputs {outs}");
    }

    // Signoff timing over the same launch timeline: comfortable, then
    // deliberately under-constrained so the worst endpoint goes negative.
    // Both reports share one pin-delay memo; the clock moves no pin shape,
    // so the second report solves none.
    let timing = SeqTimingOptions::new(calculator, 2e-15);
    let mut memo = PinDelayMemo::new();
    print_report(
        "slack @ 2 ns",
        &analyze_sequential(&netlist, &library, &clock, &timing, &mut memo)?,
    );
    println!("  {} pin shapes solved", memo.solves());
    let tight = ClockSpec::new("clk", 150e-12);
    let report = analyze_sequential(&netlist, &library, &tight, &timing, &mut memo)?;
    print_report("slack @ 150 ps", &report);
    println!("  {} pin shapes solved", memo.solves());
    if let Some(worst) = report.worst() {
        println!(
            "under-constrained worst endpoint: {} ({:.1} ps setup slack)",
            worst.endpoint,
            worst.setup_slack.unwrap_or(f64::NAN) * 1e12
        );
    }
    Ok(())
}
