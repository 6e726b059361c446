//! Integration test of the gate-level timing flow — `mcsm-netsim` chaining
//! `mcsm-sta` delay-calculator solves over a `Netlist` — on top of the
//! characterized models, plus the selective-modeling policy.

use std::collections::HashMap;

use mcsm_cells::cell::CellKind;
use mcsm_cells::load::FanoutLoad;
use mcsm_cells::tech::Technology;
use mcsm_core::config::CharacterizationConfig;
use mcsm_core::selective::{ModelChoice, SelectivePolicy};
use mcsm_core::sim::{CsmSimOptions, DriveWaveform};
use mcsm_net::{Netlist, NetlistBuilder};
use mcsm_netsim::{simulate_netlist, NetsimError, NetsimOptions};
use mcsm_sta::delaycalc::{DelayBackend, DelayCalculator};
use mcsm_sta::models::ModelLibrary;
use mcsm_sta::StaError;

fn library() -> ModelLibrary {
    ModelLibrary::characterize(
        &Technology::cmos_130nm(),
        &[CellKind::Inverter, CellKind::Nor2],
        &CharacterizationConfig::coarse(),
    )
    .unwrap()
}

#[test]
fn three_stage_chain_produces_causal_arrivals_for_all_backends() {
    let tech = Technology::cmos_130nm();
    let lib = library();

    // a, b -> NOR2 -> n1 -> INV -> n2 -> INV -> out
    let netlist = NetlistBuilder::new("three_stage")
        .primary_input("a")
        .primary_input("b")
        .gate("u1", CellKind::Nor2, &["a", "b"], "n1")
        .gate("u2", CellKind::Inverter, &["n1"], "n2")
        .gate("u3", CellKind::Inverter, &["n2"], "out")
        .primary_output("out")
        .build()
        .unwrap();
    let n1 = netlist.find_net("n1").unwrap();
    let n2 = netlist.find_net("n2").unwrap();
    let out = netlist.find_net("out").unwrap();

    let drives: HashMap<_, _> = netlist
        .primary_inputs()
        .iter()
        .map(|&pi| (pi, DriveWaveform::falling_ramp(tech.vdd, 1e-9, 80e-12)))
        .collect();

    let mut arrivals = Vec::new();
    for backend in [
        DelayBackend::SisOnly,
        DelayBackend::BaselineMis,
        DelayBackend::CompleteMcsm,
    ] {
        let options = NetsimOptions::new(
            DelayCalculator::new(backend, CsmSimOptions::new(5e-9, 1e-12), tech.vdd),
            2e-15,
        );
        let result = simulate_netlist(&netlist, &lib, &drives, &options).unwrap();
        let t1 = result.arrival_time(n1, true).unwrap();
        let t2 = result.arrival_time(n2, false).unwrap();
        let t3 = result.arrival_time(out, true).unwrap();
        assert!(
            t1 > 1e-9 && t2 > t1 && t3 > t2,
            "{backend:?}: {t1} {t2} {t3}"
        );
        arrivals.push((backend, t1));
    }

    // The MCSM arrival at the MIS gate output is no earlier than the SIS one
    // (SIS-only timing is the optimistic bound the paper warns about).
    let t_sis = arrivals
        .iter()
        .find(|(b, _)| *b == DelayBackend::SisOnly)
        .unwrap()
        .1;
    let t_mcsm = arrivals
        .iter()
        .find(|(b, _)| *b == DelayBackend::CompleteMcsm)
        .unwrap()
        .1;
    assert!(t_mcsm >= t_sis - 5e-12);
}

#[test]
fn selective_policy_switches_between_models_by_fanout() {
    let tech = Technology::cmos_130nm();
    let lib = library();
    let mcsm = lib
        .store(CellKind::Nor2)
        .unwrap()
        .mcsm
        .as_ref()
        .unwrap()
        .clone();
    let policy = SelectivePolicy::default();

    let light = FanoutLoad::new(tech.clone(), 1).equivalent_capacitance();
    let heavy = FanoutLoad::new(tech, 32).equivalent_capacitance();
    assert_eq!(policy.choose(&mcsm, light), ModelChoice::CompleteMcsm);
    assert_eq!(policy.choose(&mcsm, heavy), ModelChoice::SimpleMis);
    assert!(policy.load_ratio(&mcsm, heavy) > policy.load_ratio(&mcsm, light));
}

/// Two NOR2 cones into an inverter pair into a NOR2 — wide enough that
/// level-parallel simulation actually fans out.
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

#[test]
fn selective_backend_times_like_the_family_it_selects() {
    let tech = Technology::cmos_130nm();
    let lib = library();
    let netlist = wide_netlist();
    // Staggered edges so the two cones are not symmetric.
    let drives: HashMap<_, _> = netlist
        .primary_inputs()
        .iter()
        .enumerate()
        .map(|(i, &pi)| {
            let start = 1e-9 + 40e-12 * i as f64;
            (pi, DriveWaveform::falling_ramp(tech.vdd, start, 80e-12))
        })
        .collect();
    let run = |backend: DelayBackend, threads: usize| {
        let options = NetsimOptions::new(
            DelayCalculator::new(backend, CsmSimOptions::new(4e-9, 1e-12), tech.vdd),
            2e-15,
        )
        .with_threads(threads);
        simulate_netlist(&netlist, &lib, &drives, &options).unwrap()
    };

    // A huge threshold keeps every NOR2 on the complete model, a tiny one
    // moves every NOR2 to the simple MIS model; either way the selective run
    // must equal the backend of the family it picked, at every thread count.
    let complete = run(DelayBackend::CompleteMcsm, 1);
    let simple = run(DelayBackend::BaselineMis, 1);
    assert!(complete.stats().cache_hits > 0, "repeated kinds must hit");
    for threads in [1, 2, 8] {
        let heavy = run(DelayBackend::Selective(SelectivePolicy::new(1e9)), threads);
        let light = run(DelayBackend::Selective(SelectivePolicy::new(1e-9)), threads);
        for net in netlist.net_refs() {
            let name = netlist.net_name(net);
            assert_eq!(heavy.waveform(net), complete.waveform(net), "{name}");
            assert_eq!(light.waveform(net), simple.waveform(net), "{name}");
        }
    }
    let out = netlist.find_net("out").unwrap();
    assert!(complete.arrival_any(out).is_some());
}

#[test]
fn missing_cell_model_is_reported() {
    let netlist = wide_netlist();
    let drives: HashMap<_, _> = netlist
        .primary_inputs()
        .iter()
        .map(|&pi| (pi, DriveWaveform::falling_ramp(1.2, 1e-9, 80e-12)))
        .collect();
    let options = NetsimOptions::new(
        DelayCalculator::new(
            DelayBackend::CompleteMcsm,
            CsmSimOptions::new(4e-9, 1e-12),
            1.2,
        ),
        2e-15,
    );
    let err = simulate_netlist(&netlist, &ModelLibrary::new(1.2), &drives, &options);
    assert!(
        matches!(err, Err(NetsimError::Sta(StaError::MissingModel(_)))),
        "{err:?}"
    );
}
