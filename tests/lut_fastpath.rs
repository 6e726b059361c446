//! The LUT fast path must be invisible in the numbers: cursor-accelerated
//! lookups (`EvalMode::Fast`) and the retained allocating `LutNd::eval` path
//! (`EvalMode::Reference`) must produce bit-identical simulation,
//! characterization-derived model evaluation, and netlist timing results —
//! the latter at 1, 2 and 8 worker threads.

use std::collections::HashMap;

use mcsm::cells::cell::{CellKind, CellTemplate};
use mcsm::cells::tech::Technology;
use mcsm::core::characterize::{characterize_mcsm, characterize_sis};
use mcsm::core::config::CharacterizationConfig;
use mcsm::core::eval::EvalMode;
use mcsm::core::sim::{CsmIntegration, CsmSimOptions, DriveWaveform, Simulation};
use mcsm::core::store::ModelStore;
use mcsm::netsim::{simulate_netlist, NetsimOptions};
use mcsm::num::testrand::TestRng;
use mcsm::sta::delaycalc::{DelayBackend, DelayCalculator};
use mcsm::sta::models::ModelLibrary;
use mcsm_bench::layered_netlist;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A characterized NOR2 MCSM (coarse grids — the equality under test is exact,
/// so grid resolution is irrelevant).
fn nor2_mcsm() -> mcsm::core::McsmModel {
    let tech = Technology::cmos_130nm();
    let template = CellTemplate::new(CellKind::Nor2, tech);
    characterize_mcsm(&template, &CharacterizationConfig::coarse()).unwrap()
}

#[test]
fn simulation_is_bit_identical_across_eval_modes_on_characterized_models() {
    let model = nor2_mcsm();
    let mut rng = TestRng::new(0xC0FE);
    for _ in 0..4 {
        let inputs = [
            DriveWaveform::falling_ramp(1.2, rng.in_range(0.1e-9, 0.4e-9), 60e-12),
            DriveWaveform::falling_ramp(1.2, rng.in_range(0.1e-9, 0.4e-9), 80e-12),
        ];
        let load = rng.in_range(1e-15, 8e-15);
        for integration in [CsmIntegration::Explicit, CsmIntegration::PredictorCorrector] {
            let mut options = CsmSimOptions::new(2e-9, 2e-12);
            options.integration = integration;
            let run = |eval: EvalMode| {
                Simulation::of(&model)
                    .inputs(&inputs)
                    .load(load)
                    .options(options.clone().with_eval(eval))
                    .run()
                    .unwrap()
            };
            let fast = run(EvalMode::Fast);
            let reference = run(EvalMode::Reference);
            assert_eq!(fast, reference, "{integration:?} at load {load}");
        }
    }
}

#[test]
fn characterization_rig_outputs_feed_identical_models_through_both_paths() {
    // The SIS flow exercises the rig's swept grids; the resulting tables must
    // evaluate identically through the cursor path and the reference path at
    // random probe points (including out-of-range ones).
    let tech = Technology::cmos_130nm();
    let template = CellTemplate::new(CellKind::Inverter, tech);
    let sis = characterize_sis(&template, 0, &CharacterizationConfig::coarse()).unwrap();
    let mut store = ModelStore::new();
    store.sis.push(sis);
    let model = store.sis_for_pin(0).unwrap();
    let lut = model.io.lut();
    let mut cursor = mcsm::num::LutCursor::new();
    let mut rng = TestRng::new(0x51f);
    for _ in 0..200 {
        let q = [rng.in_range(-0.4, 1.6), rng.in_range(-0.4, 1.6)];
        let reference = lut.eval(&q).unwrap();
        let fast = lut.eval_with_cursor(&mut cursor, &q).unwrap();
        assert_eq!(reference.to_bits(), fast.to_bits(), "at {q:?}");
    }
}

#[test]
fn sta_is_bit_identical_across_eval_modes_at_every_thread_count() {
    let tech = Technology::cmos_130nm();
    let library = ModelLibrary::characterize_parallel(
        &tech,
        &[CellKind::Inverter, CellKind::Nor2],
        &CharacterizationConfig::coarse(),
        0,
    )
    .unwrap();
    let netlist = layered_netlist(4, 2).unwrap();
    let mut rng = TestRng::new(0xFA);
    let mut drives = HashMap::new();
    for &pi in netlist.primary_inputs() {
        let start = rng.in_range(0.8e-9, 1.2e-9);
        drives.insert(pi, DriveWaveform::falling_ramp(tech.vdd, start, 70e-12));
    }

    let options_for = |eval: EvalMode, threads: usize| {
        NetsimOptions::new(
            DelayCalculator::new(
                DelayBackend::CompleteMcsm,
                CsmSimOptions::new(3e-9, 4e-12).with_eval(eval),
                tech.vdd,
            ),
            2e-15,
        )
        .with_threads(threads)
    };

    // One reference run on the retained path, then the fast path at 1/2/8
    // threads: every net's waveform must match the reference to the bit.
    let reference = simulate_netlist(
        &netlist,
        &library,
        &drives,
        &options_for(EvalMode::Reference, 1),
    )
    .unwrap();
    for threads in THREAD_COUNTS {
        let fast = simulate_netlist(
            &netlist,
            &library,
            &drives,
            &options_for(EvalMode::Fast, threads),
        )
        .unwrap();
        for net in netlist.net_refs() {
            assert_eq!(
                reference.waveform(net).unwrap(),
                fast.waveform(net).unwrap(),
                "waveform of `{}` at {threads} threads",
                netlist.net_name(net)
            );
            for rising in [true, false] {
                assert_eq!(
                    reference.arrival_time(net, rising),
                    fast.arrival_time(net, rising),
                    "arrival of `{}` at {threads} threads",
                    netlist.net_name(net)
                );
            }
        }
    }
}
