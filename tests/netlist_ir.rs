//! Integration tests of the unified `Netlist` IR: JSON round-trips,
//! validation, generator determinism, and — the acceptance bar — netsim
//! timing of a builder-made netlist being bit-identical to the same netlist
//! reloaded from JSON at 1, 2 and 8 threads.

use std::collections::HashMap;

use mcsm_cells::cell::CellKind;
use mcsm_cells::tech::Technology;
use mcsm_core::config::CharacterizationConfig;
use mcsm_core::sim::{CsmSimOptions, DriveWaveform};
use mcsm_net::{c17, random_dag, DagConfig, NetRef, Netlist, NetlistBuilder, NetlistError};
use mcsm_netsim::{simulate_netlist, NetsimOptions};
use mcsm_sta::delaycalc::{DelayBackend, DelayCalculator};
use mcsm_sta::models::ModelLibrary;

fn library() -> ModelLibrary {
    ModelLibrary::characterize(
        &Technology::cmos_130nm(),
        &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
        &CharacterizationConfig::coarse(),
    )
    .unwrap()
}

/// The shared test circuit: two NOR2 cones into an inverter pair into a NOR2.
fn wide_netlist() -> Netlist {
    NetlistBuilder::new("wide")
        .primary_input("in0")
        .primary_input("in1")
        .primary_input("in2")
        .primary_input("in3")
        .gate("u0", CellKind::Nor2, &["in0", "in1"], "m0")
        .gate("u1", CellKind::Nor2, &["in2", "in3"], "m1")
        .gate("v0", CellKind::Inverter, &["m0"], "n0")
        .gate("v1", CellKind::Inverter, &["m1"], "n1")
        .gate("w", CellKind::Nor2, &["n0", "n1"], "out")
        .primary_output("out")
        .build()
        .unwrap()
}

fn options(threads: usize) -> NetsimOptions {
    NetsimOptions::new(
        DelayCalculator::new(
            DelayBackend::CompleteMcsm,
            CsmSimOptions::new(4e-9, 2e-12),
            1.2,
        ),
        2e-15,
    )
    .with_threads(threads)
}

/// Staggered falling ramps on every primary input, so the cones are
/// asymmetric.
fn staggered_drives(netlist: &Netlist) -> HashMap<NetRef, DriveWaveform> {
    netlist
        .primary_inputs()
        .iter()
        .enumerate()
        .map(|(i, &pi)| {
            (
                pi,
                DriveWaveform::falling_ramp(1.2, 1e-9 + 40e-12 * i as f64, 80e-12),
            )
        })
        .collect()
}

#[test]
fn builder_and_json_netlists_time_bit_identical_at_all_thread_counts() {
    let lib = library();
    let built = wide_netlist();
    let reloaded = Netlist::from_json_str(&built.to_json_string()).unwrap();
    let drives = staggered_drives(&built);
    let reference = simulate_netlist(&built, &lib, &drives, &options(1)).unwrap();

    for threads in [1, 2, 8] {
        for netlist in [&built, &reloaded] {
            let result = simulate_netlist(netlist, &lib, &drives, &options(threads)).unwrap();
            for net in built.net_refs() {
                // Net refs correspond (same creation order by construction);
                // the waveforms must agree to the bit.
                assert_eq!(
                    reference.waveform(net).unwrap(),
                    result.waveform(net).unwrap(),
                    "net `{}` differs at {threads} threads",
                    built.net_name(net)
                );
            }
            let (a, b) = (reference.stats(), result.stats());
            assert_eq!(
                (a.gates_simulated, a.cache_hits + a.cache_misses),
                (b.gates_simulated, b.cache_hits + b.cache_misses),
            );
        }
    }
}

#[test]
fn generated_circuits_round_trip_through_json() {
    let dag = random_dag(&DagConfig {
        levels: 5,
        width: 6,
        max_fanout: 3,
        seed: 2008,
    });
    for netlist in [dag, c17(), wide_netlist()] {
        let text = netlist.to_json_string();
        let back = Netlist::from_json_str(&text).unwrap();
        assert_eq!(netlist, back, "{} round trip", netlist.name());
        // Round-tripped netlists levelize to the same schedule.
        assert_eq!(netlist.levels(), back.levels());
        assert_eq!(netlist.primary_inputs(), back.primary_inputs());
    }
}

#[test]
fn generators_are_deterministic_and_seed_sensitive() {
    let config = DagConfig::with_gate_budget(60, 7);
    assert_eq!(random_dag(&config), random_dag(&config));
    assert_eq!(
        random_dag(&config).to_json_string(),
        random_dag(&config).to_json_string()
    );
    let reseeded = DagConfig {
        seed: 8,
        ..config.clone()
    };
    assert_ne!(random_dag(&config), random_dag(&reseeded));
}

#[test]
fn validation_rejects_the_classic_structural_bugs() {
    // Dangling net: consumed but never driven, not a primary input.
    let dangling = NetlistBuilder::new("dangling")
        .gate("u", CellKind::Inverter, &["ghost"], "out")
        .primary_output("out")
        .build();
    assert!(matches!(dangling, Err(NetlistError::UndrivenNet { .. })));

    // Combinational loop.
    let looped = NetlistBuilder::new("loop")
        .gate("u1", CellKind::Inverter, &["b"], "a")
        .gate("u2", CellKind::Inverter, &["a"], "b")
        .primary_output("a")
        .primary_output("b")
        .build();
    assert!(matches!(
        looped,
        Err(NetlistError::CombinationalLoop { .. })
    ));

    // Double driver.
    let doubled = NetlistBuilder::new("double")
        .primary_input("a")
        .gate("u1", CellKind::Inverter, &["a"], "out")
        .gate("u2", CellKind::Inverter, &["a"], "out")
        .primary_output("out")
        .build();
    assert!(matches!(doubled, Err(NetlistError::MultipleDrivers { .. })));

    // Unknown pin count for the cell.
    let bad_pins = NetlistBuilder::new("pins")
        .primary_input("a")
        .gate("u1", CellKind::Nor2, &["a"], "out")
        .primary_output("out")
        .build();
    assert!(matches!(
        bad_pins,
        Err(NetlistError::PinCountMismatch {
            expected: 2,
            got: 1,
            ..
        })
    ));
}

#[test]
fn explicit_net_loads_shift_netsim_arrivals() {
    let lib = library();
    let build = |load: f64| {
        let mut builder = NetlistBuilder::new("loaded")
            .primary_input("a")
            .primary_input("b")
            .gate("u_nor", CellKind::Nor2, &["a", "b"], "mid")
            .gate("u_inv", CellKind::Inverter, &["mid"], "out")
            .primary_output("out");
        if load > 0.0 {
            builder = builder.net_load("mid", load);
        }
        builder.build().unwrap()
    };
    let run = |netlist: &Netlist| {
        let drives: HashMap<_, _> = netlist
            .primary_inputs()
            .iter()
            .map(|&pi| (pi, DriveWaveform::falling_ramp(1.2, 1e-9, 80e-12)))
            .collect();
        let result = simulate_netlist(netlist, &lib, &drives, &options(1)).unwrap();
        result
            .arrival_time(netlist.find_net("mid").unwrap(), true)
            .unwrap()
    };
    let unloaded = build(0.0);
    let loaded = build(20e-15);
    assert_eq!(loaded.net_load(loaded.find_net("mid").unwrap()), 20e-15);
    assert!(
        run(&loaded) > run(&unloaded),
        "an explicit 20 fF wire load must slow the NOR2 down"
    );
}
