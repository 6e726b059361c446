//! Determinism of the parallel batch subsystem: `par_map` and everything
//! wired on top of it (characterization batches, level-parallel netlist
//! timing) must be bit-identical to the sequential path at 1, 2 and 8
//! threads.

use std::collections::HashMap;

use mcsm::cells::cell::{CellKind, CellTemplate};
use mcsm::cells::tech::Technology;
use mcsm::core::characterize::characterize_batch;
use mcsm::core::config::CharacterizationConfig;
use mcsm::core::sim::{CsmSimOptions, DriveWaveform};
use mcsm::netsim::{simulate_netlist, NetsimOptions};
use mcsm::num::par;
use mcsm::num::testrand::TestRng;
use mcsm::sta::delaycalc::{DelayBackend, DelayCalculator};
use mcsm::sta::models::ModelLibrary;
use mcsm_bench::layered_netlist;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn par_map_equals_sequential_map_on_random_workloads() {
    let mut rng = TestRng::new(0xD5EED);
    let items: Vec<f64> = (0..503).map(|_| rng.in_range(-10.0, 10.0)).collect();
    let f = |i: usize, x: &f64| x.mul_add(i as f64, x.cos()).to_bits();
    let sequential: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    for threads in THREAD_COUNTS {
        assert_eq!(
            par::par_map(threads, &items, f),
            sequential,
            "threads = {threads}"
        );
    }
}

#[test]
fn characterization_tables_are_identical_across_thread_counts() {
    let tech = Technology::cmos_130nm();
    let templates = [
        CellTemplate::new(CellKind::Inverter, tech.clone()),
        CellTemplate::new(CellKind::Nor2, tech.clone()),
    ];
    let config = CharacterizationConfig::coarse();
    let reference = characterize_batch(&templates, &config, 1).unwrap();
    for threads in THREAD_COUNTS {
        let stores = characterize_batch(&templates, &config, threads).unwrap();
        // Bit-identical stores (every table of every family)...
        assert_eq!(stores, reference, "threads = {threads}");
        // ...and, as a belt-and-braces check, identical model evaluations at
        // random probe points.
        let mcsm = stores[1].mcsm.as_ref().unwrap();
        let reference_mcsm = reference[1].mcsm.as_ref().unwrap();
        let mut rng = TestRng::new(7);
        for _ in 0..50 {
            let v: Vec<f64> = (0..4).map(|_| rng.in_range(0.0, tech.vdd)).collect();
            let got = mcsm.output_current(v[0], v[1], v[2], v[3]);
            let want = reference_mcsm.output_current(v[0], v[1], v[2], v[3]);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "threads = {threads} at {v:?}"
            );
        }
    }
}

#[test]
fn sta_arrival_times_are_identical_across_thread_counts() {
    let tech = Technology::cmos_130nm();
    let library = ModelLibrary::characterize_parallel(
        &tech,
        &[CellKind::Inverter, CellKind::Nor2],
        &CharacterizationConfig::coarse(),
        0,
    )
    .unwrap();

    // A 4-wide, 2-deep netlist with randomized (but seeded) input edges.
    let netlist = layered_netlist(4, 2).unwrap();
    let mut rng = TestRng::new(0xA11);
    let mut drives = HashMap::new();
    for &pi in netlist.primary_inputs() {
        let start = rng.in_range(0.8e-9, 1.2e-9);
        let transition = rng.in_range(50e-12, 120e-12);
        drives.insert(pi, DriveWaveform::falling_ramp(tech.vdd, start, transition));
    }

    let base_options = NetsimOptions::new(
        DelayCalculator::new(
            DelayBackend::CompleteMcsm,
            CsmSimOptions::new(3e-9, 4e-12),
            tech.vdd,
        ),
        2e-15,
    );
    let reference = simulate_netlist(&netlist, &library, &drives, &base_options).unwrap();
    for threads in THREAD_COUNTS {
        let options = base_options.clone().with_threads(threads);
        let result = simulate_netlist(&netlist, &library, &drives, &options).unwrap();
        for net in netlist.net_refs() {
            assert_eq!(
                reference.waveform(net).unwrap(),
                result.waveform(net).unwrap(),
                "waveform of `{}` at {threads} threads",
                netlist.net_name(net)
            );
            // Arrival times and slews are derived from the waveforms, so they
            // must match exactly as well.
            for rising in [true, false] {
                assert_eq!(
                    reference.arrival_time(net, rising),
                    result.arrival_time(net, rising),
                    "arrival of `{}` at {threads} threads",
                    netlist.net_name(net)
                );
                assert_eq!(
                    reference.slew(net, rising),
                    result.slew(net, rising),
                    "slew of `{}` at {threads} threads",
                    netlist.net_name(net)
                );
            }
        }
    }
}
