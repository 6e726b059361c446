//! Integration tests for the clocked epoch scheduler and sequential STA.
//!
//! The load-bearing pins:
//! * epoch-carried register state is exactly a Boolean functional simulation
//!   when the clock is generous (everything settles before capture), checked
//!   both against a direct Boolean oracle and against a flattened unrolled
//!   combinational netlist run through `mcsm-netsim`;
//! * sequential simulation is bit-identical at 1/2/8 worker threads;
//! * sequential STA through a pin-delay memo shared across netlists reports
//!   exactly what fresh memos report;
//! * a deliberately under-constrained clock produces a negative-slack
//!   register endpoint whose late transition is visible in the epoch
//!   waveform at the capture instant (the ISSUE acceptance pin).

use mcsm_cells::cell::CellKind;
use mcsm_cells::tech::Technology;
use mcsm_core::characterize::RegisterCharacterizationConfig;
use mcsm_core::config::CharacterizationConfig;
use mcsm_core::sim::{CsmSimOptions, DriveWaveform};
use mcsm_net::{pipelined_dag, s27, NetRef, Netlist, NetlistBuilder};
use mcsm_netsim::{simulate_netlist, NetsimOptions};
use mcsm_num::testrand::TestRng;
use mcsm_seq::{
    analyze_sequential, capture_time, simulate_sequential, CycleInputs, PinDelayMemo, SeqNetlist,
    SeqOptions, SeqTimingOptions,
};
use mcsm_sta::{ClockSpec, DelayBackend, DelayCalculator, EndpointKind, ModelLibrary};
use std::collections::HashMap;
use std::sync::OnceLock;

const PO_LOAD: f64 = 2e-15;

fn library() -> &'static (Technology, ModelLibrary) {
    static LIBRARY: OnceLock<(Technology, ModelLibrary)> = OnceLock::new();
    LIBRARY.get_or_init(|| {
        let tech = Technology::cmos_130nm();
        let mut library = ModelLibrary::characterize(
            &tech,
            &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
            &CharacterizationConfig::coarse(),
        )
        .expect("combinational characterization succeeds");
        library
            .characterize_registers(
                &tech,
                &[CellKind::Dff],
                &RegisterCharacterizationConfig::coarse(),
            )
            .expect("register characterization succeeds");
        (tech, library)
    })
}

fn netsim_options(tech: &Technology, t_stop: f64) -> NetsimOptions {
    // The complete MCSM backend: epoch captures are *functional* results, so
    // every switching input must be honored (SIS-only deliberately drops all
    // but the first switching pin — the paper's headline inaccuracy).
    let calculator = DelayCalculator::new(
        DelayBackend::CompleteMcsm,
        CsmSimOptions::new(t_stop, 2e-12),
        tech.vdd,
    );
    NetsimOptions::new(calculator, PO_LOAD)
}

/// Random per-cycle input vectors over every non-clock primary input.
fn random_cycles(netlist: &Netlist, clock: &str, cycles: usize, seed: u64) -> Vec<CycleInputs> {
    let clock = netlist.find_net(clock).unwrap();
    let mut rng = TestRng::new(seed);
    (0..cycles)
        .map(|_| {
            CycleInputs::from_pairs(
                netlist
                    .primary_inputs()
                    .iter()
                    .filter(|&&pi| pi != clock)
                    .map(|&pi| (pi, rng.index(2) == 1))
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Boolean functional oracle: evaluates the netlist cycle-by-cycle with
/// `CellKind::evaluate`, registers sampling their D at the end of each cycle.
fn boolean_oracle(
    netlist: &Netlist,
    clock: &str,
    cycles: &[CycleInputs],
) -> (Vec<Vec<bool>>, Vec<Vec<bool>>) {
    let seq = SeqNetlist::partition(netlist).unwrap();
    let clock = netlist.find_net(clock).unwrap();
    let mut pi_values: HashMap<NetRef, bool> = netlist
        .primary_inputs()
        .iter()
        .filter(|&&pi| pi != clock)
        .map(|&pi| (pi, false))
        .collect();
    let mut reg_values = vec![false; seq.registers().len()];
    let mut states = Vec::new();
    let mut po_values = Vec::new();
    for inputs in cycles {
        for (&net, &value) in &inputs.values {
            pi_values.insert(net, value);
        }
        // Settle the combinational interior by repeated sweeps (acyclic
        // through registers, so this terminates within gate_count passes).
        let mut values: HashMap<NetRef, bool> = pi_values.clone();
        for (reg, &value) in seq.registers().iter().zip(&reg_values) {
            values.insert(reg.q_net, value);
        }
        loop {
            let mut progressed = false;
            for gate in netlist.gate_refs() {
                let kind = netlist.gate_kind(gate);
                if kind.is_sequential() || values.contains_key(&netlist.output_of(gate)) {
                    continue;
                }
                let inputs: Option<Vec<bool>> = netlist
                    .inputs_of(gate)
                    .iter()
                    .map(|n| values.get(n).copied())
                    .collect();
                if let Some(inputs) = inputs {
                    values.insert(netlist.output_of(gate), kind.evaluate(&inputs));
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        reg_values = seq
            .registers()
            .iter()
            .map(|reg| values[&reg.d_net])
            .collect();
        states.push(reg_values.clone());
        po_values.push(
            netlist
                .primary_outputs()
                .iter()
                .map(|po| values[po])
                .collect(),
        );
    }
    (states, po_values)
}

#[test]
fn s27_carries_state_for_8_cycles_and_matches_the_boolean_oracle() {
    let (tech, library) = library();
    let netlist = s27();
    let clock = ClockSpec::new("CK", 3e-9);
    let options = SeqOptions::new(netsim_options(tech, 4e-9));
    let cycles = random_cycles(&netlist, "CK", 8, 41);

    let result = simulate_sequential(&netlist, library, &clock, &cycles, &options).unwrap();
    assert_eq!(result.stats.cycles, 8);
    assert_eq!(result.register_names, ["R5", "R6", "R7"]);
    assert_eq!(result.po_names, ["G17"]);

    let (oracle_states, oracle_pos) = boolean_oracle(&netlist, "CK", &cycles);
    for (cycle, (got, want)) in result.states.iter().zip(&oracle_states).enumerate() {
        let got: Vec<bool> = got.iter().map(|s| s.value).collect();
        assert_eq!(&got, want, "register state diverged at cycle {cycle}");
    }
    assert_eq!(result.po_values, oracle_pos);
    // The machine actually moved: some register toggled across the run.
    assert!(result.states.iter().any(|s| s.iter().any(|r| r.value)));
    // Captured voltages are settled rails under a generous clock.
    for states in &result.states {
        for s in states {
            let rail = if s.value { tech.vdd } else { 0.0 };
            assert!(
                (s.voltage - rail).abs() < 0.05 * tech.vdd,
                "captured voltage {} far from rail {rail}",
                s.voltage
            );
        }
    }
}

#[test]
fn generous_clock_has_positive_slack_everywhere_on_s27() {
    let (tech, library) = library();
    let netlist = s27();
    let clock = ClockSpec::new("CK", 3e-9).with_insertion_override("R6", 40e-12);
    let timing = SeqTimingOptions::new(netsim_options(tech, 6e-9).calculator, PO_LOAD);
    let report =
        analyze_sequential(&netlist, library, &clock, &timing, &mut PinDelayMemo::new()).unwrap();
    // 3 register endpoints + 1 primary output, every one constrained.
    assert_eq!(report.endpoints.len(), 4);
    assert_eq!(report.violations().count(), 0, "report: {report:#?}");
    let worst = report.worst().unwrap();
    assert!(worst.setup_slack.unwrap() > 0.0);
    assert!(report
        .endpoints
        .iter()
        .any(|e| e.kind == EndpointKind::PrimaryOutput && e.endpoint == "G17"));
    // Setup windows come from characterization, not defaults.
    for e in report
        .endpoints
        .iter()
        .filter(|e| e.kind == EndpointKind::RegisterD)
    {
        assert!(e.setup > 0.0 && e.arrival.is_some());
    }
}

#[test]
fn underconstrained_clock_reports_negative_slack_and_the_late_transition_is_in_the_waveform() {
    let (tech, library) = library();
    let netlist = s27();
    // Deliberately under-constrained: the s27 cone needs several gate delays
    // per cycle, but the clock gives it 150 ps.
    let clock = ClockSpec::new("CK", 150e-12).with_slew(30e-12);
    let timing = SeqTimingOptions::new(netsim_options(tech, 4e-9).calculator, PO_LOAD);
    let report =
        analyze_sequential(&netlist, library, &clock, &timing, &mut PinDelayMemo::new()).unwrap();
    let worst = report.worst().unwrap().clone();
    assert!(
        worst.setup_slack.unwrap() < 0.0,
        "expected a setup violation at 150 ps, got {worst:?}"
    );
    assert_eq!(worst.kind, EndpointKind::RegisterD);

    // Cross-check against the epoch simulation: a violating register's D net
    // must still be switching after its required time in some epoch. (Which
    // violating endpoint toggles depends on the stimulus, so any of the
    // STA-flagged registers showing its late transition confirms the report.)
    let violating: Vec<_> = report
        .violations()
        .filter(|e| e.kind == EndpointKind::RegisterD)
        .collect();
    assert!(!violating.is_empty());
    let options = SeqOptions::new(netsim_options(tech, 4e-9));
    let cycles = random_cycles(&netlist, "CK", 8, 97);
    let result = simulate_sequential(&netlist, library, &clock, &cycles, &options).unwrap();
    let seq = SeqNetlist::partition(&netlist).unwrap();
    let late = violating.iter().any(|endpoint| {
        let idx = seq.register_index(&endpoint.endpoint).unwrap();
        let d_comb = seq.comb_net_of(seq.registers()[idx].d_net).unwrap();
        let t_capture = capture_time(&clock, &endpoint.endpoint);
        result.epochs.iter().flatten().any(|epoch| {
            let w = epoch.waveform(d_comb).expect("D nets are always observed");
            [true, false]
                .iter()
                .filter_map(|&rising| w.crossing(0.5 * tech.vdd, rising))
                .any(|t| t > t_capture - endpoint.setup)
        })
    });
    assert!(
        late,
        "no epoch shows any violating register's D net switching inside its setup window"
    );
}

#[test]
fn a_shared_pin_delay_memo_reports_exactly_what_fresh_memos_report() {
    let (tech, library) = library();
    // Two netlists that share most pin shapes: a pipeline and an ECO'd copy
    // with one gate retyped and another gate's load nudged by 0.01 aF — the
    // same attofarad bucket at different exact bits, so a memo that kept
    // whichever exact load reached a bucket first would answer the second
    // netlist with the first one's delays.
    let base = pipelined_dag(3, 4, 7);
    let mut edited = base.clone();
    let comb: Vec<_> = edited
        .gate_refs()
        .filter(|&g| !edited.gate_kind(g).is_sequential())
        .collect();
    let retyped = *comb
        .iter()
        .rev()
        .find(|&&g| edited.gate_kind(g) == CellKind::Nand2)
        .expect("the pipeline has a NAND2");
    edited.retype_gate(retyped, CellKind::Nor2).unwrap();
    let nudged = edited.output_of(comb[0]);
    edited
        .set_net_load(nudged, edited.net_load(nudged) + 1e-20)
        .unwrap();
    let netlists = [&base, &edited];
    let clock = ClockSpec::new("clk", 2e-9);
    let timing = SeqTimingOptions::new(netsim_options(tech, 4e-9).calculator, PO_LOAD);
    // Reports compare by their Debug text: shortest round-trip floats, so
    // equal text is bit-identical slack.
    let analyze = |netlist: &Netlist, timing: &SeqTimingOptions, memo: &mut PinDelayMemo| {
        let report = analyze_sequential(netlist, library, &clock, timing, memo).unwrap();
        format!("{report:?}")
    };
    let fresh: Vec<(String, usize)> = netlists
        .iter()
        .map(|netlist| {
            let mut memo = PinDelayMemo::new();
            let report = analyze(netlist, &timing, &mut memo);
            assert_eq!(memo.solves(), memo.len());
            (report, memo.len())
        })
        .collect();

    for order in [[0, 1], [1, 0]] {
        let mut memo = PinDelayMemo::new();
        for (step, &i) in order.iter().enumerate() {
            let report = analyze(netlists[i], &timing, &mut memo);
            assert_eq!(report, fresh[i].0, "netlist {i} as analysis {step}");
            // Pruned to the shapes this analysis used.
            assert_eq!(memo.len(), fresh[i].1);
            if step == 1 {
                assert!(
                    memo.solves() < fresh[i].1,
                    "the second analysis re-solved {} of {} shapes",
                    memo.solves(),
                    fresh[i].1
                );
            }
        }
        // Another calculator empties the memo instead of reusing its delays.
        let baseline = SeqTimingOptions::new(
            DelayCalculator::new(
                DelayBackend::BaselineMis,
                CsmSimOptions::new(4e-9, 2e-12),
                tech.vdd,
            ),
            PO_LOAD,
        );
        let report = analyze(&base, &baseline, &mut memo);
        assert_eq!(report, analyze(&base, &baseline, &mut PinDelayMemo::new()));
        assert_eq!(memo.solves(), memo.len());
    }
}

/// Net name of `net` in unrolled copy `k`: primary inputs and comb-driven
/// nets get a `__c{k}` suffix; a register Q resolves to the previous copy's
/// D net (or the initial-state input for copy 0).
fn name_in_copy(netlist: &Netlist, seq: &SeqNetlist, net: NetRef, k: usize) -> String {
    match netlist.driver_of(net) {
        None => format!("{}__c{k}", netlist.net_name(net)),
        Some(driver) if netlist.gate_kind(driver).is_sequential() => {
            let idx = seq
                .registers()
                .iter()
                .position(|r| r.gate == driver)
                .unwrap();
            if k == 0 {
                format!("init__{}", seq.registers()[idx].name)
            } else {
                name_in_copy(netlist, seq, seq.registers()[idx].d_net, k - 1)
            }
        }
        Some(_) => format!("{}__c{k}", netlist.net_name(net)),
    }
}

#[test]
fn epoch_carried_state_equals_a_flattened_unrolled_netlist() {
    let (tech, library) = library();
    let netlist = pipelined_dag(3, 3, 11);
    let cycles = random_cycles(&netlist, "clk", 4, 5);
    let clock = ClockSpec::new("clk", 3e-9);
    let options = SeqOptions::new(netsim_options(tech, 4e-9));
    let result = simulate_sequential(&netlist, library, &clock, &cycles, &options).unwrap();

    // Flatten the 4 cycles into one combinational netlist: register arcs
    // become wires into the next copy, cycle-k inputs become dedicated
    // DC-driven primary inputs.
    let seq = SeqNetlist::partition(&netlist).unwrap();
    let clk = netlist.find_net("clk").unwrap();
    let k_cycles = cycles.len();
    // Gather every copy's gates first so only *referenced* inputs become
    // primary inputs (unread nets fail netlist validation).
    let mut gates: Vec<(String, CellKind, Vec<String>, String)> = Vec::new();
    for k in 0..k_cycles {
        for gate in netlist.gate_refs() {
            let kind = netlist.gate_kind(gate);
            if kind.is_sequential() {
                continue;
            }
            let inputs: Vec<String> = netlist
                .inputs_of(gate)
                .iter()
                .map(|&n| name_in_copy(&netlist, &seq, n, k))
                .collect();
            gates.push((
                format!("{}__c{k}", netlist.gate_name(gate)),
                kind,
                inputs,
                name_in_copy(&netlist, &seq, netlist.output_of(gate), k),
            ));
        }
    }
    let used: std::collections::HashSet<&str> = gates
        .iter()
        .flat_map(|(_, _, inputs, _)| inputs.iter().map(String::as_str))
        .collect();

    let mut builder = NetlistBuilder::new("unrolled");
    let mut pi_names: Vec<(String, NetRef, usize)> = Vec::new();
    for k in 0..k_cycles {
        for &pi in netlist.primary_inputs() {
            if pi != clk {
                let name = format!("{}__c{k}", netlist.net_name(pi));
                if used.contains(name.as_str()) {
                    builder = builder.primary_input(&name);
                    pi_names.push((name, pi, k));
                }
            }
        }
    }
    let mut init_names: Vec<String> = Vec::new();
    for reg in seq.registers() {
        let name = format!("init__{}", reg.name);
        if used.contains(name.as_str()) {
            builder = builder.primary_input(&name);
            init_names.push(name);
        }
    }
    for (name, kind, inputs, out) in &gates {
        let input_refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
        builder = builder.gate(name, *kind, &input_refs, out);
    }
    // Observe every copy's register-D nets (all comb-driven in this
    // generator) as primary outputs.
    for k in 0..k_cycles {
        for reg in seq.registers() {
            builder = builder.primary_output(&name_in_copy(&netlist, &seq, reg.d_net, k));
        }
    }
    let unrolled = builder.build().unwrap();

    // DC drives: held input values per copy, initial state zero.
    let mut held: HashMap<NetRef, bool> = netlist
        .primary_inputs()
        .iter()
        .filter(|&&pi| pi != clk)
        .map(|&pi| (pi, false))
        .collect();
    let mut drives: HashMap<NetRef, DriveWaveform> = HashMap::new();
    let mut values_by_cycle: Vec<HashMap<NetRef, bool>> = Vec::new();
    for inputs in &cycles {
        for (&net, &value) in &inputs.values {
            held.insert(net, value);
        }
        values_by_cycle.push(held.clone());
    }
    for (name, orig, k) in &pi_names {
        let value = values_by_cycle[*k][orig];
        let level = if value { tech.vdd } else { 0.0 };
        drives.insert(unrolled.find_net(name).unwrap(), DriveWaveform::dc(level));
    }
    for name in &init_names {
        drives.insert(unrolled.find_net(name).unwrap(), DriveWaveform::dc(0.0));
    }

    let flat = simulate_netlist(&unrolled, library, &drives, &netsim_options(tech, 4e-9)).unwrap();
    for k in 0..k_cycles {
        for (idx, reg) in seq.registers().iter().enumerate() {
            let net = unrolled
                .find_net(&name_in_copy(&netlist, &seq, reg.d_net, k))
                .unwrap();
            let flat_value = flat.waveform(net).unwrap().final_value() > 0.5 * tech.vdd;
            assert_eq!(
                result.states[k][idx].value, flat_value,
                "cycle {k} register {} disagrees with the unrolled netlist",
                reg.name
            );
        }
    }
}

#[test]
fn sequential_simulation_is_bit_identical_across_thread_counts() {
    let (tech, library) = library();
    let netlist = s27();
    let clock = ClockSpec::new("CK", 3e-9);
    let cycles = random_cycles(&netlist, "CK", 4, 23);

    let run = |threads: usize| {
        let options = SeqOptions::new(netsim_options(tech, 4e-9).with_threads(threads));
        simulate_sequential(&netlist, library, &clock, &cycles, &options).unwrap()
    };
    let baseline = run(1);
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(baseline.po_values, other.po_values);
        for (a, b) in baseline
            .states
            .iter()
            .flatten()
            .zip(other.states.iter().flatten())
        {
            assert_eq!(a.value, b.value);
            assert_eq!(
                a.voltage.to_bits(),
                b.voltage.to_bits(),
                "captured voltages must be bit-identical at {threads} threads"
            );
        }
    }
}

#[test]
fn cycle_validation_rejects_bad_windows_and_clock_driving() {
    let (tech, library) = library();
    let netlist = s27();
    let clock = ClockSpec::new("CK", 3e-9);

    // Window shorter than one cycle.
    let options = SeqOptions::new(netsim_options(tech, 1e-9));
    let err = simulate_sequential(&netlist, library, &clock, &[CycleInputs::hold()], &options)
        .unwrap_err();
    assert!(err.to_string().contains("too short"), "{err}");

    // Driving the clock from cycle inputs.
    let options = SeqOptions::new(netsim_options(tech, 4e-9));
    let ck = netlist.find_net("CK").unwrap();
    let err = simulate_sequential(
        &netlist,
        library,
        &clock,
        &[CycleInputs::from_pairs([(ck, true)])],
        &options,
    )
    .unwrap_err();
    assert!(err.to_string().contains("owns the clock"), "{err}");

    // A clock spec naming the wrong net.
    let wrong = ClockSpec::new("CLK2", 3e-9);
    let err = simulate_sequential(&netlist, library, &wrong, &[CycleInputs::hold()], &options)
        .unwrap_err();
    assert!(err.to_string().contains("clock net"), "{err}");

    // Initial-state length mismatch.
    let bad = SeqOptions::new(netsim_options(tech, 4e-9)).with_initial_state(vec![true; 2]);
    let err =
        simulate_sequential(&netlist, library, &clock, &[CycleInputs::hold()], &bad).unwrap_err();
    assert!(err.to_string().contains("3 registers"), "{err}");
}
