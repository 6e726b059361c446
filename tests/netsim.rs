//! Integration tests of the event-driven netlist transient simulator
//! (`mcsm-netsim`) — the acceptance bar of the netsim PR:
//!
//! * every gate netsim solves on chain / tree / DAG generator circuits
//!   re-solves bit-for-bit through `DelayCalculator::gate_output` from its
//!   handoff drives and effective load (the per-gate replay contract);
//! * netsim waveforms agree with full transistor-level SPICE on the ISCAS-85
//!   c17 within a pinned NRMSE bound;
//! * parallel simulation is bit-identical to sequential at 1, 2 and 8
//!   threads;
//! * `DriveWaveform::from_waveform` PWL handoff is bit-identical to the
//!   existing sampled drive (property-tested over TestRng-generated ramps);
//! * the committed `BENCH_netsim.json` baseline stays well-formed.

use std::collections::HashMap;

use mcsm_cells::cell::CellKind;
use mcsm_cells::tech::Technology;
use mcsm_core::config::CharacterizationConfig;
use mcsm_core::sim::{CsmSimOptions, DriveWaveform};
use mcsm_net::{balanced_tree, c17, nand_chain, random_dag, DagConfig, NetRef, Netlist};
use mcsm_netsim::{effective_load, simulate_netlist, NetsimOptions, DEFAULT_EVENT_THRESHOLD};
use mcsm_num::json::JsonValue;
use mcsm_num::testrand::TestRng;
use mcsm_spice::analysis::{transient, TranOptions};
use mcsm_spice::source::SourceWaveform;
use mcsm_spice::waveform::Waveform;
use mcsm_sta::delaycalc::{DelayBackend, DelayCache, DelayCalculator};
use mcsm_sta::models::ModelLibrary;

fn library() -> ModelLibrary {
    ModelLibrary::characterize(
        &Technology::cmos_130nm(),
        &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
        &CharacterizationConfig::coarse(),
    )
    .unwrap()
}

/// Staggered falling ramps on every primary input, keyed by netlist net.
fn falling_drives(netlist: &Netlist, vdd: f64) -> HashMap<NetRef, DriveWaveform> {
    netlist
        .primary_inputs()
        .iter()
        .enumerate()
        .map(|(i, &pi)| {
            let skew = 20e-12 * (i % 5) as f64;
            (pi, DriveWaveform::falling_ramp(vdd, 1e-9 + skew, 80e-12))
        })
        .collect()
}

fn calculator(vdd: f64, window: f64, dt: f64) -> DelayCalculator {
    DelayCalculator::new(
        DelayBackend::CompleteMcsm,
        CsmSimOptions::new(window, dt),
        vdd,
    )
}

#[test]
fn netsim_gate_solves_replay_bit_for_bit_through_the_delay_calculator() {
    let library = library();
    let vdd = library.vdd();
    let circuits: Vec<Netlist> = vec![
        nand_chain(4),
        balanced_tree(3, CellKind::Nor2),
        random_dag(&DagConfig {
            levels: 4,
            width: 4,
            max_fanout: 3,
            seed: 0xC17,
        }),
    ];
    const PO_LOAD: f64 = 2e-15;

    for netlist in circuits {
        let window = 2e-9 + 0.4e-9 * netlist.levels().level_count() as f64;
        let calc = calculator(vdd, window, 4e-12);
        let drives = falling_drives(&netlist, vdd);
        let result = simulate_netlist(
            &netlist,
            &library,
            &drives,
            &NetsimOptions::new(calc.clone(), PO_LOAD),
        )
        .unwrap();

        // Each net's handoff as netsim commits it — the primary-input drive,
        // an active output's samples as a PWL, or a quiet output's DC level —
        // with its event flag. Every drive here is a monotone ramp, so its
        // end points span its excursion.
        let mut handoff: Vec<Option<(DriveWaveform, bool)>> = vec![None; netlist.net_count()];
        for (&net, drive) in &drives {
            let active = (drive.eval(window) - drive.eval(0.0)).abs() >= DEFAULT_EVENT_THRESHOLD;
            handoff[net.index()] = Some((drive.clone(), active));
        }
        let cache = DelayCache::new();
        let mut replayed = 0;
        for level in netlist.levels().iter() {
            for &gate in level {
                let out = netlist.output_of(gate);
                let produced = result.waveform(out).unwrap();
                let (inputs, flags): (Vec<DriveWaveform>, Vec<bool>) = netlist
                    .inputs_of(gate)
                    .iter()
                    .map(|net| handoff[net.index()].clone().unwrap())
                    .unzip();
                let solved = flags.contains(&true);
                let active = solved
                    && produced.max_value() - produced.min_value() >= DEFAULT_EVENT_THRESHOLD;
                handoff[out.index()] = Some(if active {
                    (DriveWaveform::from_waveform(produced.clone()), true)
                } else {
                    (DriveWaveform::dc(produced.final_value()), false)
                });
                if !solved {
                    continue; // resolved to its DC level without the engine
                }
                let kind = netlist.gate_kind(gate);
                let load = effective_load(&netlist, &library, &cache, out, PO_LOAD).unwrap();
                let replay = calc
                    .gate_output(library.store(kind).unwrap(), kind, &inputs, load)
                    .unwrap();
                assert_eq!(
                    &replay,
                    produced,
                    "{}/{}: replay differs from netsim",
                    netlist.name(),
                    netlist.gate_name(gate)
                );
                replayed += 1;
            }
        }
        assert!(replayed > 0, "{}: no gate was solved", netlist.name());
        assert_eq!(
            replayed,
            result.stats().gates_simulated,
            "{}",
            netlist.name()
        );
    }
}

#[test]
fn netsim_matches_spice_on_c17() {
    let library = library();
    let vdd = library.vdd();
    let tech = Technology::cmos_130nm();
    let netlist = c17();
    let window = 3.5e-9;
    let dt = 2e-12;

    // All five inputs fall with staggered skews: N10/N11 see true MIS events,
    // N22 falls, and every waveform is checked against transistor-level SPICE.
    let drives = falling_drives(&netlist, vdd);
    let result = simulate_netlist(
        &netlist,
        &library,
        &drives,
        // Zero primary-output load: the SPICE lowering's outputs also see
        // nothing beyond their own devices, keeping the two sides comparable.
        &NetsimOptions::new(calculator(vdd, window, dt), 0.0),
    )
    .unwrap();

    let mut lowered = netlist.to_spice_circuit(&tech).unwrap();
    for &(pi, source) in &lowered.input_sources.clone() {
        let i = netlist
            .primary_inputs()
            .iter()
            .position(|&net| net == pi)
            .unwrap();
        let skew = 20e-12 * (i % 5) as f64;
        lowered
            .circuit
            .set_vsource_waveform(
                source,
                SourceWaveform::falling_ramp(vdd, 1e-9 + skew, 80e-12),
            )
            .unwrap();
    }
    let spice = transient(&lowered.circuit, &TranOptions::new(window, dt)).unwrap();

    // Every gate-output net must track SPICE within the pinned NRMSE bound.
    // The comparison is symmetric: both waveforms are resampled onto the
    // union of their time grids (`merge_time_grids`), so neither side's
    // sampling choices bias the error. The bound covers the coarse
    // characterization grids used here; typical values are well below it.
    const NRMSE_BOUND: f64 = 0.15;
    for net in netlist.net_refs() {
        if netlist.driver_of(net).is_none() {
            continue;
        }
        let name = netlist.net_name(net);
        let reference = spice.node(name).unwrap();
        let merged = result.waveform(net).unwrap().merge_time_grids(reference);
        let mine = result
            .waveform(net)
            .unwrap()
            .resample_onto(&merged)
            .unwrap();
        let theirs = reference.resample_onto(&merged).unwrap();
        let nrmse = mine.normalized_rmse_against(&theirs, vdd).unwrap();
        assert!(
            nrmse < NRMSE_BOUND,
            "net `{name}`: NRMSE {nrmse:.4} exceeds {NRMSE_BOUND}"
        );
    }

    // And the headline 50% arrivals agree to within a coarse-grid tolerance.
    let n22 = netlist.find_net("N22").unwrap();
    let t_netsim = result.arrival_time(n22, false).unwrap();
    let t_spice = spice
        .node("N22")
        .unwrap()
        .crossing(0.5 * vdd, false)
        .unwrap();
    assert!(
        (t_netsim - t_spice).abs() < 60e-12,
        "N22 falls at {t_netsim} (netsim) vs {t_spice} (SPICE)"
    );
}

#[test]
fn netsim_parallel_is_bit_identical_at_1_2_8_threads() {
    let library = library();
    let vdd = library.vdd();
    let netlist = random_dag(&DagConfig {
        levels: 5,
        width: 6,
        max_fanout: 3,
        seed: 42,
    });
    let window = 2e-9 + 0.4e-9 * netlist.levels().level_count() as f64;

    // Mixed activity: half the inputs switch, half idle at a rail — the skip
    // path and the solve path are both part of the determinism contract. The
    // switching inputs are *sampled* PWL drives, all derived from one base
    // ramp waveform re-timed per input with `Waveform::shifted` — the same
    // shift-and-share handoff shape a testbench replaying measured stimuli
    // would use.
    let base_times: Vec<f64> = (0..=300).map(|i| i as f64 * 10e-12).collect();
    let base_values: Vec<f64> = base_times
        .iter()
        .map(|&t| DriveWaveform::falling_ramp(vdd, 1e-9, 80e-12).eval(t))
        .collect();
    let base_ramp = Waveform::new(base_times, base_values).unwrap();
    let mut drives = HashMap::new();
    for (i, &pi) in netlist.primary_inputs().iter().enumerate() {
        let drive = if i % 2 == 0 {
            DriveWaveform::from_waveform(base_ramp.shifted(30e-12 * i as f64))
        } else {
            DriveWaveform::dc(vdd)
        };
        drives.insert(pi, drive);
    }

    let options = NetsimOptions::new(calculator(vdd, window, 4e-12), 2e-15);
    let sequential = simulate_netlist(&netlist, &library, &drives, &options).unwrap();
    let stats = sequential.stats();
    assert!(stats.gates_simulated > 0 && stats.gates_skipped > 0);
    for threads in [2, 8] {
        let parallel = simulate_netlist(
            &netlist,
            &library,
            &drives,
            &options.clone().with_threads(threads),
        )
        .unwrap();
        assert_eq!(parallel.stats(), stats, "{threads} threads");
        for net in netlist.net_refs() {
            assert_eq!(
                sequential.waveform(net),
                parallel.waveform(net),
                "net `{}` at {threads} threads",
                netlist.net_name(net)
            );
        }
    }
}

#[test]
fn from_waveform_pwl_drive_is_bit_identical_to_the_sampled_ramp_drive() {
    let mut rng = TestRng::new(0x9E7514);
    for case in 0..50 {
        // A TestRng-generated saturated ramp, sampled on a random grid.
        let vdd = rng.in_range(0.8, 1.4);
        let t_start = rng.in_range(0.0, 1e-9);
        let transition = rng.in_range(10e-12, 200e-12);
        let rising = rng.flip();
        let analytic = if rising {
            DriveWaveform::rising_ramp(vdd, t_start, transition)
        } else {
            DriveWaveform::falling_ramp(vdd, t_start, transition)
        };
        let samples = 50 + rng.index(250);
        let t_end = 3e-9;
        let times: Vec<f64> = (0..=samples)
            .map(|i| i as f64 * t_end / samples as f64)
            .collect();
        let values: Vec<f64> = times.iter().map(|&t| analytic.eval(t)).collect();
        let ramp = Waveform::new(times, values).unwrap();

        let sampled = DriveWaveform::Sampled(ramp.clone());
        let pwl = DriveWaveform::from_waveform(ramp);
        for _ in 0..40 {
            let t = rng.in_range(-0.5e-9, 3.5e-9);
            assert_eq!(
                sampled.eval(t).to_bits(),
                pwl.eval(t).to_bits(),
                "case {case}: t = {t}"
            );
        }
        assert_eq!(
            sampled.initial_value().to_bits(),
            pwl.initial_value().to_bits()
        );
    }
}

#[test]
fn pwl_and_sampled_drives_produce_bit_identical_gate_waveforms() {
    let library = library();
    let vdd = library.vdd();
    let store = library.store(CellKind::Nor2).unwrap();
    let calc = calculator(vdd, 3e-9, 2e-12);

    // Dense-sampled falling ramps, handed to the engine both ways.
    let mut rng = TestRng::new(0x51B);
    for _ in 0..5 {
        let t_start = rng.in_range(0.5e-9, 1.2e-9);
        let analytic = DriveWaveform::falling_ramp(vdd, t_start, rng.in_range(40e-12, 120e-12));
        let times: Vec<f64> = (0..=600).map(|i| i as f64 * 5e-12).collect();
        let values: Vec<f64> = times.iter().map(|&t| analytic.eval(t)).collect();
        let ramp = Waveform::new(times, values).unwrap();

        let sampled = [
            DriveWaveform::Sampled(ramp.clone()),
            DriveWaveform::Sampled(ramp.clone()),
        ];
        let pwl = [
            DriveWaveform::from_waveform(ramp.clone()),
            DriveWaveform::from_waveform(ramp),
        ];
        let out_sampled = calc
            .gate_output(store, CellKind::Nor2, &sampled, 4e-15)
            .unwrap();
        let out_pwl = calc
            .gate_output(store, CellKind::Nor2, &pwl, 4e-15)
            .unwrap();
        assert_eq!(out_sampled, out_pwl);
    }
}

#[test]
fn committed_netsim_baseline_is_well_formed() {
    let report = JsonValue::parse(include_str!("../BENCH_netsim.json")).unwrap();
    assert_eq!(
        report.require("experiment").unwrap().as_str(),
        Some("netsim")
    );
    let cases = report.require("cases").unwrap().as_array().unwrap();
    assert!(!cases.is_empty());
    for case in cases {
        assert!(case.require("gates_per_second").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(case.require("bit_identical").unwrap().as_bool(), Some(true));
        let family = case
            .require("family")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(["sis", "baseline_mis", "complete_mcsm"].contains(&family.as_str()));
    }
    assert!(report.require("overall_speedup").unwrap().as_f64().unwrap() > 0.0);
    assert!(
        report
            .require("parallel_speedup")
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
}

#[test]
fn sis_only_settles_on_the_complete_mcsm_rail_on_a_random_dag() {
    // Every input falls, staggered: MIS events where one pin ends at the
    // controlling value while another leaves it are everywhere in a
    // 100-gate DAG. A SIS-only run may be off in timing, never in logic.
    let library = library();
    let vdd = library.vdd();
    let netlist = random_dag(&DagConfig::with_gate_budget(100, 11));
    let window = 2e-9 + 0.4e-9 * netlist.levels().level_count() as f64;
    let drives = falling_drives(&netlist, vdd);
    let run = |backend: DelayBackend| {
        let calc = DelayCalculator::new(backend, CsmSimOptions::new(window, 4e-12), vdd);
        simulate_netlist(
            &netlist,
            &library,
            &drives,
            &NetsimOptions::new(calc, 2e-15),
        )
        .unwrap()
    };
    let sis = run(DelayBackend::SisOnly);
    let mcsm = run(DelayBackend::CompleteMcsm);
    let wrong_rail: Vec<&str> = netlist
        .gate_refs()
        .map(|gate| netlist.output_of(gate))
        .filter(|&net| {
            let high = |result: &mcsm_netsim::NetsimResult| {
                result.waveform(net).unwrap().final_value() > 0.5 * vdd
            };
            high(&sis) != high(&mcsm)
        })
        .map(|net| netlist.net_name(net))
        .collect();
    assert!(
        wrong_rail.is_empty(),
        "SIS settles on the wrong rail at {wrong_rail:?}"
    );
}
