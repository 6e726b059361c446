//! The level scheduler: which gates can be solved when, and what load each
//! one drives.
//!
//! The simulator processes gates in *topological levels*: level `L` holds
//! every gate whose longest driver chain from a primary input has `L` gates
//! before it, so all gates of one level are mutually independent and can be
//! solved concurrently once every earlier level has committed. The schedule
//! is the netlist's own single-pass [`Netlist::levels`] (validation already
//! guarantees a DAG), free of any per-level allocation — a
//! [`LevelSchedule`](mcsm_net::LevelSchedule) is two flat arrays regardless
//! of depth.
//!
//! The scheduler also owns the *effective load* model: the lumped capacitance
//! a driver sees is the sum of the characterized input-pin capacitances of
//! every fanout pin, plus the netlist's explicit per-net extra load, plus the
//! external load on primary outputs.

use mcsm_net::{GateRef, NetRef, Netlist};
use mcsm_sta::delaycalc::DelayCache;
use mcsm_sta::models::ModelLibrary;
use mcsm_sta::StaError;

/// The downstream cone of influence of a set of seed gates: every gate whose
/// output can be affected by re-solving the seeds — the seeds themselves plus
/// the transitive fanout closure of their output nets. Returned sorted by
/// gate index with no duplicates, so callers get a deterministic work list.
///
/// This *structural* cone is a superset of the dynamic activity cone (a
/// waveform that happens not to change still has its fanouts in the
/// structural closure), which is exactly what incremental re-evaluation
/// needs: re-solving the whole structural cone while reusing everything
/// outside it is bit-identical to a from-scratch run, because every gate
/// outside the cone provably sees bit-identical inputs and loads.
pub fn cone_of_influence(netlist: &Netlist, seeds: &[GateRef]) -> Vec<GateRef> {
    let mut in_cone = vec![false; netlist.gate_count()];
    let mut frontier: Vec<GateRef> = Vec::new();
    for &seed in seeds {
        if !in_cone[seed.index()] {
            in_cone[seed.index()] = true;
            frontier.push(seed);
        }
    }
    while let Some(gate) = frontier.pop() {
        for &(fanout_gate, _pin) in netlist.fanout_of(netlist.output_of(gate)) {
            if !in_cone[fanout_gate.index()] {
                in_cone[fanout_gate.index()] = true;
                frontier.push(fanout_gate);
            }
        }
    }
    netlist.gate_refs().filter(|g| in_cone[g.index()]).collect()
}

/// Seed gates invalidated by changing the drive on a primary-input net: the
/// net's direct fanout gates (their inputs changed; everything further
/// downstream is picked up by [`cone_of_influence`]).
pub fn seeds_for_drive_change(netlist: &Netlist, net: NetRef) -> Vec<GateRef> {
    netlist
        .fanout_of(net)
        .iter()
        .map(|&(gate, _pin)| gate)
        .collect()
}

/// Seed gates invalidated by retyping a gate: the gate itself (new model) and
/// the drivers of its input nets — a new cell presents different input pin
/// capacitances, so every input-net driver sees a different [`effective_load`]
/// even though its own input waveforms are unchanged.
pub fn seeds_for_gate_edit(netlist: &Netlist, gate: GateRef) -> Vec<GateRef> {
    let mut seeds = vec![gate];
    for &input in netlist.inputs_of(gate) {
        if let Some(driver) = netlist.driver_of(input) {
            if !seeds.contains(&driver) {
                seeds.push(driver);
            }
        }
    }
    seeds
}

/// Seed gates invalidated by changing a net's explicit extra load: the net's
/// driver alone (its [`effective_load`] changed; its fanouts follow through
/// the cone). Changing the load of a primary-input net has no driver to
/// re-solve and returns no seeds — input drives are ideal sources here.
pub fn seeds_for_load_change(netlist: &Netlist, net: NetRef) -> Vec<GateRef> {
    netlist.driver_of(net).into_iter().collect()
}

/// The lumped load a driver of `net` sees: characterized input capacitance of
/// every fanout pin (memoized in the shared [`DelayCache`]), plus the
/// netlist's explicit extra load on the net, plus `primary_output_load` if the
/// net is a primary output.
///
/// # Errors
///
/// Returns [`StaError::MissingModel`] if a fanout cell kind was never
/// characterized.
pub fn effective_load(
    netlist: &Netlist,
    library: &ModelLibrary,
    cache: &DelayCache,
    net: NetRef,
    primary_output_load: f64,
) -> Result<f64, StaError> {
    let mut load = 0.0;
    for &(fanout_gate, pin) in netlist.fanout_of(net) {
        let kind = netlist.gate_kind(fanout_gate);
        let pin = pin as usize;
        load += cache.pin_capacitance(kind, pin, || library.input_pin_capacitance(kind, pin))?;
    }
    load += netlist.net_load(net);
    if netlist.is_primary_output(net) {
        load += primary_output_load;
    }
    Ok(load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsm_cells::cell::CellKind;
    use mcsm_cells::tech::Technology;
    use mcsm_core::config::CharacterizationConfig;
    use mcsm_net::{balanced_tree, c17, NetlistBuilder};

    #[test]
    fn levels_respect_driver_ordering_on_c17() {
        let netlist = c17();
        let levels = netlist.levels();
        assert_eq!(levels.gate_count(), 6);
        // Every gate's drivers sit in strictly earlier levels.
        let mut level_of = vec![usize::MAX; netlist.gate_count()];
        for (level, gates) in levels.iter().enumerate() {
            for g in gates {
                level_of[g.index()] = level;
            }
        }
        for (idx, gate) in netlist.iter_gates().enumerate() {
            for &input in gate.inputs {
                if let Some(driver) = netlist.driver_of(input) {
                    assert!(level_of[driver.index()] < level_of[idx]);
                }
            }
        }
        // c17's longest input-to-output path is three NAND2s deep.
        assert_eq!(levels.level_count(), 3);
    }

    #[test]
    fn levels_handle_non_topological_insertion_order() {
        // u_late is declared first but consumes u_early's output.
        let netlist = NetlistBuilder::new("reversed")
            .primary_input("a")
            .gate("u_late", CellKind::Inverter, &["mid"], "out")
            .gate("u_early", CellKind::Inverter, &["a"], "mid")
            .primary_output("out")
            .build()
            .unwrap();
        let levels = netlist.levels();
        assert_eq!(levels.level_count(), 2);
        assert_eq!(netlist.gate(levels.gates(0)[0]).name, "u_early");
        assert_eq!(netlist.gate(levels.gates(1)[0]).name, "u_late");

        // A deep chain declared in fully reversed order still levelizes one
        // gate per level (the Kahn sweep does not depend on insertion order).
        let stages = 200;
        let mut builder = NetlistBuilder::new("reversed_chain").primary_input("n0");
        for stage in (0..stages).rev() {
            builder = builder.gate(
                &format!("u{stage}"),
                CellKind::Inverter,
                &[&format!("n{stage}")],
                &format!("n{}", stage + 1),
            );
        }
        let chain = builder
            .primary_output(&format!("n{stages}"))
            .build()
            .unwrap();
        let levels = chain.levels();
        assert_eq!(levels.level_count(), stages);
        for (level, gates) in levels.iter().enumerate() {
            assert_eq!(gates.len(), 1);
            assert_eq!(chain.gate(gates[0]).name, format!("u{level}"));
        }
    }

    #[test]
    fn cone_of_influence_closes_downstream_on_c17() {
        let netlist = c17();
        let gate = |name: &str| netlist.find_gate(name).unwrap();
        let names = |cone: &[GateRef]| -> Vec<&str> {
            cone.iter().map(|&g| netlist.gate_name(g)).collect()
        };
        // g10 feeds g22 only; g22 is a primary-output driver.
        let cone = cone_of_influence(&netlist, &[gate("g10")]);
        assert_eq!(names(&cone), ["g10", "g22"]);
        // g11 fans out to g16 and g19, which cover both outputs.
        let cone = cone_of_influence(&netlist, &[gate("g11")]);
        assert_eq!(names(&cone), ["g11", "g16", "g19", "g22", "g23"]);
        // Seeds merge without duplicates, output stays index-sorted.
        let cone = cone_of_influence(&netlist, &[gate("g23"), gate("g22"), gate("g23")]);
        assert_eq!(names(&cone), ["g22", "g23"]);
        assert!(cone_of_influence(&netlist, &[]).is_empty());
    }

    #[test]
    fn eco_seed_helpers_cover_the_invalidated_gates() {
        let netlist = c17();
        let gate = |name: &str| netlist.find_gate(name).unwrap();
        let net = |name: &str| netlist.find_net(name).unwrap();
        // Drive change on N3: both its fanout gates are seeds.
        let seeds = seeds_for_drive_change(&netlist, net("N3"));
        assert_eq!(seeds, [gate("g10"), gate("g11")]);
        // Retyping g22 reloads the drivers of its input nets N10 and N16.
        let seeds = seeds_for_gate_edit(&netlist, gate("g22"));
        assert_eq!(seeds, [gate("g22"), gate("g10"), gate("g16")]);
        // Load change on an internal/output net seeds its driver only…
        assert_eq!(seeds_for_load_change(&netlist, net("N22")), [gate("g22")]);
        // …and on a primary input there is nothing to re-solve.
        assert!(seeds_for_load_change(&netlist, net("N1")).is_empty());
    }

    #[test]
    fn effective_load_sums_pins_extra_and_output_load() {
        let netlist = NetlistBuilder::new("loads")
            .primary_input("a")
            .gate("u0", CellKind::Inverter, &["a"], "mid")
            .gate("u1", CellKind::Inverter, &["mid"], "o1")
            .gate("u2", CellKind::Nor2, &["mid", "o1"], "o2")
            .net_load("mid", 3e-15)
            .primary_output("o2")
            .build()
            .unwrap();
        let library = ModelLibrary::characterize(
            &Technology::cmos_130nm(),
            &[CellKind::Inverter, CellKind::Nor2],
            &CharacterizationConfig::coarse(),
        )
        .unwrap();
        let cache = DelayCache::new();
        let mid = netlist.find_net("mid").unwrap();
        let c_inv = library
            .input_pin_capacitance(CellKind::Inverter, 0)
            .unwrap();
        let c_nor = library.input_pin_capacitance(CellKind::Nor2, 0).unwrap();
        let load = effective_load(&netlist, &library, &cache, mid, 0.0).unwrap();
        assert!((load - (c_inv + c_nor + 3e-15)).abs() < 1e-21);
        // Primary outputs add the external load on top of explicit loads.
        let o2 = netlist.find_net("o2").unwrap();
        let load = effective_load(&netlist, &library, &cache, o2, 5e-15).unwrap();
        assert!((load - 5e-15).abs() < 1e-21);
        // Uncharacterized fanout kinds are reported.
        let tree = balanced_tree(1, CellKind::Nand2);
        let empty = ModelLibrary::new(1.2);
        let in0 = tree.find_net("in0").unwrap();
        assert!(effective_load(&tree, &empty, &cache, in0, 0.0).is_err());
    }
}
