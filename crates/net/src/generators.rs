//! Seeded synthetic benchmark circuits.
//!
//! Scenario diversity for the timing stack: parameterized chains, balanced
//! trees and random leveled DAGs (plus the fixed ISCAS-85 c17) let `mcsm-bench`
//! sweep from tens to thousands of gates without shipping proprietary
//! netlists. Randomized topologies draw exclusively from the in-repo
//! [`TestRng`], so a `(config, seed)` pair always produces the same
//! [`Netlist`] on every platform — the determinism the bit-identical
//! parallel-STA checks rely on.

use crate::netlist::{NetRef, Netlist, NetlistBuilder};
use mcsm_cells::cell::CellKind;
use mcsm_num::testrand::TestRng;

/// A chain of `stages` inverters: `in -> u0 -> n0 -> u1 -> … -> out`.
///
/// # Panics
///
/// Panics if `stages` is zero.
pub fn inverter_chain(stages: usize) -> Netlist {
    assert!(stages > 0, "inverter_chain needs at least one stage");
    let mut builder = NetlistBuilder::new(&format!("inv_chain_{stages}")).primary_input("in");
    let mut current = "in".to_string();
    for stage in 0..stages {
        let next = if stage + 1 == stages {
            "out".to_string()
        } else {
            format!("n{stage}")
        };
        builder = builder.gate(&format!("u{stage}"), CellKind::Inverter, &[&current], &next);
        current = next;
    }
    builder
        .primary_output("out")
        .build()
        .expect("generator netlists are valid by construction")
}

/// A chain of `stages` NAND2 gates; stage `i` combines the previous stage's
/// output with its own side input `b{i}` (a primary input), so every stage can
/// see a multiple-input-switching event.
///
/// # Panics
///
/// Panics if `stages` is zero.
pub fn nand_chain(stages: usize) -> Netlist {
    assert!(stages > 0, "nand_chain needs at least one stage");
    let mut builder = NetlistBuilder::new(&format!("nand_chain_{stages}")).primary_input("in");
    let mut current = "in".to_string();
    for stage in 0..stages {
        let side = format!("b{stage}");
        builder = builder.primary_input(&side);
        let next = if stage + 1 == stages {
            "out".to_string()
        } else {
            format!("n{stage}")
        };
        builder = builder.gate(
            &format!("u{stage}"),
            CellKind::Nand2,
            &[&current, &side],
            &next,
        );
        current = next;
    }
    builder
        .primary_output("out")
        .build()
        .expect("generator netlists are valid by construction")
}

/// A balanced reduction tree of two-input gates: `2^levels` primary inputs
/// funnel through `2^levels - 1` gates into one primary output.
///
/// # Panics
///
/// Panics if `levels` is zero or `kind` is not a two-input cell.
pub fn balanced_tree(levels: usize, kind: CellKind) -> Netlist {
    assert!(levels > 0, "balanced_tree needs at least one level");
    assert_eq!(
        kind.input_count(),
        2,
        "balanced_tree needs a two-input cell, got {}",
        kind.name()
    );
    let leaves = 1usize << levels;
    let mut builder = NetlistBuilder::new(&format!("{}_tree_{levels}", kind.name().to_lowercase()));
    let mut current: Vec<String> = (0..leaves).map(|i| format!("in{i}")).collect();
    for net in &current {
        builder = builder.primary_input(net);
    }
    for level in 0..levels {
        let mut next = Vec::with_capacity(current.len() / 2);
        for pair in 0..current.len() / 2 {
            let out = if level + 1 == levels {
                "out".to_string()
            } else {
                format!("t{level}_{pair}")
            };
            builder = builder.gate(
                &format!("g{level}_{pair}"),
                kind,
                &[&current[2 * pair], &current[2 * pair + 1]],
                &out,
            );
            next.push(out);
        }
        current = next;
    }
    builder
        .primary_output("out")
        .build()
        .expect("generator netlists are valid by construction")
}

/// Shape of a [`random_dag`] circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagConfig {
    /// Gate levels (depth of the DAG).
    pub levels: usize,
    /// Gates per level (and primary inputs feeding level 0).
    pub width: usize,
    /// Upper bound on the fanout of any net.
    pub max_fanout: usize,
    /// Seed of the deterministic generator.
    pub seed: u64,
}

impl DagConfig {
    /// A config producing roughly `gates` gates in a square-ish DAG (width ≈
    /// depth), with fanout bounded at 4.
    pub fn with_gate_budget(gates: usize, seed: u64) -> Self {
        let width = ((gates as f64).sqrt().round() as usize).max(1);
        let levels = gates.div_ceil(width).max(1);
        DagConfig {
            levels,
            width,
            max_fanout: 4,
            seed,
        }
    }

    /// Total gates the config generates.
    pub fn gate_count(&self) -> usize {
        self.levels * self.width
    }
}

/// A random leveled DAG with bounded fanin (≤ 2 by cell choice) and bounded
/// fanout (≤ `config.max_fanout`).
///
/// `config.width` primary inputs feed `config.levels` levels of
/// `config.width` gates each. Gate `i` of a level always consumes net `i` of
/// the previous level (round-robin, so every net is consumed and the level
/// structure is strict); two-input gates draw their second pin uniformly from
/// the non-saturated nets of earlier levels. Cell kinds (INV / NAND2 / NOR2 —
/// two-input cells, so every delay backend can time the circuit) and second
/// pins come from a [`TestRng`] seeded with `config.seed`: equal configs give
/// bit-equal netlists.
///
/// # Panics
///
/// Panics if `levels` or `width` is zero, or `max_fanout < 2` (needed so a
/// level's combined pin demand never exceeds the previous level's capacity).
pub fn random_dag(config: &DagConfig) -> Netlist {
    assert!(config.levels > 0, "random_dag needs at least one level");
    assert!(config.width > 0, "random_dag needs a positive width");
    assert!(
        config.max_fanout >= 2,
        "random_dag needs max_fanout >= 2, got {}",
        config.max_fanout
    );
    let mut rng = TestRng::new(config.seed);
    let mut builder = NetlistBuilder::new(&format!(
        "dag_{}x{}_seed{}",
        config.levels, config.width, config.seed
    ));

    // fanout[i] tracks pin uses of net `names[i]`; `earlier` indexes nets of
    // all completed levels, `previous` the most recent one.
    let mut names: Vec<String> = (0..config.width).map(|i| format!("in{i}")).collect();
    let mut fanout: Vec<usize> = vec![0; config.width];
    for name in &names {
        builder = builder.primary_input(name);
    }
    let mut previous: Vec<usize> = (0..config.width).collect();

    let kinds = [CellKind::Inverter, CellKind::Nand2, CellKind::Nor2];
    for level in 0..config.levels {
        // Nets created during this level must not feed it (strict leveling).
        let level_start = names.len();
        // Charge every previous-level net its round-robin first-pin use
        // upfront: each gets exactly one per level, and reserving the slot
        // before any second-pin draw keeps those draws from saturating a net
        // whose round-robin turn has not come yet — the fanout bound holds
        // for every seed, not just lucky ones.
        for &p in &previous {
            fanout[p] += 1;
        }
        let mut next = Vec::with_capacity(config.width);
        for slot in 0..config.width {
            let kind = kinds[rng.index(kinds.len())];
            let first = previous[slot % previous.len()];
            let mut inputs = vec![first];
            if kind.input_count() == 2 {
                // Uniform choice among all non-saturated earlier nets; the
                // previous level reserves one slot per net for its first
                // pins, so with max_fanout >= 2 and second-pin demand of at
                // most one per gate a candidate always exists.
                let candidates: Vec<usize> = (0..level_start)
                    .filter(|&i| fanout[i] < config.max_fanout)
                    .collect();
                let second = candidates[rng.index(candidates.len())];
                fanout[second] += 1;
                inputs.push(second);
            }
            let out_name = if level + 1 == config.levels {
                format!("out{slot}")
            } else {
                format!("l{level}_{slot}")
            };
            let input_names: Vec<&str> = inputs.iter().map(|&i| names[i].as_str()).collect();
            builder = builder.gate(&format!("g{level}_{slot}"), kind, &input_names, &out_name);
            next.push(names.len());
            names.push(out_name);
            fanout.push(0);
        }
        previous = next;
    }

    // Anything never consumed — the last level, plus earlier nets the random
    // draws skipped — becomes observable as a primary output.
    for (idx, name) in names.iter().enumerate() {
        if fanout[idx] == 0 {
            builder = builder.primary_output(name);
        }
    }
    builder
        .build()
        .expect("generator netlists are valid by construction")
}

/// Shape of a [`scale_free_dag`] circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleFreeConfig {
    /// Total gate instances.
    pub gates: usize,
    /// Primary inputs (also the size of the live-net pool, which bounds the
    /// circuit depth at roughly `gates / inputs` levels).
    pub inputs: usize,
    /// Seed of the deterministic generator.
    pub seed: u64,
}

impl ScaleFreeConfig {
    /// A config producing exactly `gates` gates with the input count scaled
    /// so depth stays near ~64 levels across the 10k–1M range.
    pub fn with_gate_budget(gates: usize, seed: u64) -> Self {
        ScaleFreeConfig {
            gates,
            inputs: (gates / 64).max(64),
            seed,
        }
    }
}

/// A scale-free random DAG: fanout follows a preferential-attachment
/// (rich-get-richer) draw, so a few nets acquire very large fanout while most
/// stay small — the heavy-tail shape of real netlist connectivity, and the
/// workload the million-gate arena/streaming path is sized for.
///
/// Construction is a single topological sweep. Every gate's *first* pin is
/// drawn uniformly from the pool of not-yet-consumed nets (and removed from
/// it), so all but the final `inputs` nets are guaranteed a consumer and the
/// pool — hence the logic depth — stays at a constant `config.inputs` width.
/// Two-input gates draw their *second* pin from a preferential-attachment urn
/// holding one ticket per net plus one per existing fanout use (weight ∝
/// 1 + fanout). Cell kinds rotate over INV / NAND2 / NOR2 via [`TestRng`], so
/// equal configs give bit-equal netlists. The `inputs` nets left in the pool
/// at the end become the primary outputs.
///
/// # Panics
///
/// Panics if `gates` or `inputs` is zero.
pub fn scale_free_dag(config: &ScaleFreeConfig) -> Netlist {
    assert!(config.gates > 0, "scale_free_dag needs at least one gate");
    assert!(config.inputs > 0, "scale_free_dag needs at least one input");
    let mut rng = TestRng::new(config.seed);
    let mut builder = NetlistBuilder::new(&format!(
        "scale_free_{}x{}_seed{}",
        config.gates, config.inputs, config.seed
    ));

    // `pool` holds nets without a consumer yet; `urn` holds one ticket per
    // net plus one per recorded use, so drawing a uniform ticket is the
    // preferential-attachment step.
    let mut pool: Vec<NetRef> = Vec::with_capacity(config.inputs + 1);
    let mut urn: Vec<NetRef> = Vec::with_capacity(config.inputs + 3 * config.gates);
    for i in 0..config.inputs {
        let net = builder.net_ref(&format!("in{i}"));
        builder.mark_primary_input(net);
        pool.push(net);
        urn.push(net);
    }

    let kinds = [CellKind::Inverter, CellKind::Nand2, CellKind::Nor2];
    let mut inputs: Vec<NetRef> = Vec::with_capacity(2);
    for g in 0..config.gates {
        let kind = kinds[rng.index(kinds.len())];
        inputs.clear();
        let first = pool.swap_remove(rng.index(pool.len()));
        inputs.push(first);
        if kind.input_count() == 2 {
            // A handful of redraws keeps the two pins distinct in practice;
            // a duplicate pin after that is still a valid (degenerate) gate.
            let mut second = urn[rng.index(urn.len())];
            for _ in 0..8 {
                if second != first {
                    break;
                }
                second = urn[rng.index(urn.len())];
            }
            inputs.push(second);
            urn.push(second);
        }
        let output = builder.net_ref(&format!("n{g}"));
        builder.add_gate(&format!("g{g}"), kind, &inputs, output);
        pool.push(output);
        urn.push(output);
        urn.push(first);
    }

    // The never-consumed survivors of the pool are the observable outputs.
    for &net in &pool {
        builder.mark_primary_output(net);
    }
    builder
        .build()
        .expect("generator netlists are valid by construction")
}

/// The ISCAS-85 c17 benchmark: 5 primary inputs, 2 primary outputs, 6 NAND2
/// gates — the classic smallest "real" benchmark circuit, fixed (no seed).
pub fn c17() -> Netlist {
    NetlistBuilder::new("c17")
        .primary_input("N1")
        .primary_input("N2")
        .primary_input("N3")
        .primary_input("N6")
        .primary_input("N7")
        .gate("g10", CellKind::Nand2, &["N1", "N3"], "N10")
        .gate("g11", CellKind::Nand2, &["N3", "N6"], "N11")
        .gate("g16", CellKind::Nand2, &["N2", "N11"], "N16")
        .gate("g19", CellKind::Nand2, &["N11", "N7"], "N19")
        .gate("g22", CellKind::Nand2, &["N10", "N16"], "N22")
        .gate("g23", CellKind::Nand2, &["N16", "N19"], "N23")
        .primary_output("N22")
        .primary_output("N23")
        .build()
        .expect("c17 is valid by construction")
}

/// The ISCAS-89 s27 benchmark: 4 primary inputs plus the clock `CK`, one
/// primary output (`G17`), 3 DFFs and the classic 10-function combinational
/// core, fixed (no seed).
///
/// The reference equations use AND/OR, which this library does not carry;
/// each is expanded into its NAND2/NOR2 + INV pair (nets `G8n`, `G15n`,
/// `G16n`), so the circuit has 13 combinational gates. All three feedback
/// loops (`G11 → G5.D`, `G12 → G7.D`, `G8 → G6.D`) cross a register, which is
/// exactly what the register-arc relaxation of the netlist loop check admits.
pub fn s27() -> Netlist {
    NetlistBuilder::new("s27")
        .primary_input("G0")
        .primary_input("G1")
        .primary_input("G2")
        .primary_input("G3")
        .primary_input("CK")
        // State elements.
        .gate("R5", CellKind::Dff, &["G10", "CK"], "G5")
        .gate("R6", CellKind::Dff, &["G11", "CK"], "G6")
        .gate("R7", CellKind::Dff, &["G13", "CK"], "G7")
        // Combinational core (AND/OR expanded through De Morgan pairs).
        .gate("U14", CellKind::Inverter, &["G0"], "G14")
        .gate("U17", CellKind::Inverter, &["G11"], "G17")
        .gate("U8n", CellKind::Nand2, &["G14", "G6"], "G8n")
        .gate("U8", CellKind::Inverter, &["G8n"], "G8")
        .gate("U15n", CellKind::Nor2, &["G12", "G8"], "G15n")
        .gate("U15", CellKind::Inverter, &["G15n"], "G15")
        .gate("U16n", CellKind::Nor2, &["G3", "G8"], "G16n")
        .gate("U16", CellKind::Inverter, &["G16n"], "G16")
        .gate("U9", CellKind::Nand2, &["G16", "G15"], "G9")
        .gate("U10", CellKind::Nor2, &["G14", "G11"], "G10")
        .gate("U11", CellKind::Nor2, &["G5", "G9"], "G11")
        .gate("U12", CellKind::Nor2, &["G1", "G7"], "G12")
        .gate("U13", CellKind::Nor2, &["G2", "G12"], "G13")
        .primary_output("G17")
        .build()
        .expect("s27 is valid by construction")
}

/// A seeded pipeline: `stages` register banks of `width` DFFs, each fed by a
/// random combinational layer of `width` gates over the previous bank's Q
/// nets (primary inputs for stage 0).
///
/// Gate `slot` of a layer always consumes net `slot` of the previous bank
/// (round-robin, so every Q net is consumed); two-input gates draw their
/// second pin uniformly from the previous bank. Cell kinds rotate over
/// INV / NAND2 / NOR2 via [`TestRng`], so equal `(stages, width, seed)`
/// triples give bit-equal netlists. One shared clock net `clk` feeds every
/// register; the final bank's Q nets are the primary outputs.
///
/// # Panics
///
/// Panics if `stages` or `width` is zero.
pub fn pipelined_dag(stages: usize, width: usize, seed: u64) -> Netlist {
    assert!(stages > 0, "pipelined_dag needs at least one stage");
    assert!(width > 0, "pipelined_dag needs a positive width");
    let mut rng = TestRng::new(seed);
    let mut builder = NetlistBuilder::new(&format!("pipe_{stages}x{width}_seed{seed}"));
    let clk = builder.net_ref("clk");
    builder.mark_primary_input(clk);

    let mut previous: Vec<NetRef> = (0..width)
        .map(|i| {
            let net = builder.net_ref(&format!("in{i}"));
            builder.mark_primary_input(net);
            net
        })
        .collect();

    let kinds = [CellKind::Inverter, CellKind::Nand2, CellKind::Nor2];
    let mut inputs: Vec<NetRef> = Vec::with_capacity(2);
    for stage in 0..stages {
        // One combinational layer over the previous bank…
        let mut layer = Vec::with_capacity(width);
        for slot in 0..width {
            let kind = kinds[rng.index(kinds.len())];
            inputs.clear();
            inputs.push(previous[slot]);
            if kind.input_count() == 2 {
                inputs.push(previous[rng.index(width)]);
            }
            let out = builder.net_ref(&format!("s{stage}_c{slot}"));
            builder.add_gate(&format!("s{stage}_g{slot}"), kind, &inputs, out);
            layer.push(out);
        }
        // …captured by one register bank.
        let mut bank = Vec::with_capacity(width);
        for (slot, &d) in layer.iter().enumerate() {
            let q = builder.net_ref(&format!("s{stage}_q{slot}"));
            builder.add_gate(&format!("s{stage}_r{slot}"), CellKind::Dff, &[d, clk], q);
            bank.push(q);
        }
        previous = bank;
    }

    for &q in &previous {
        builder.mark_primary_output(q);
    }
    builder
        .build()
        .expect("generator netlists are valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_have_the_advertised_shape() {
        let inv = inverter_chain(5);
        assert_eq!(inv.gate_count(), 5);
        assert_eq!(inv.primary_inputs().len(), 1);
        assert_eq!(inv.primary_outputs().len(), 1);

        let nand = nand_chain(4);
        assert_eq!(nand.gate_count(), 4);
        // One chain input plus one side input per stage.
        assert_eq!(nand.primary_inputs().len(), 5);
    }

    #[test]
    fn balanced_tree_reduces_all_leaves() {
        let tree = balanced_tree(3, CellKind::Nor2);
        assert_eq!(tree.primary_inputs().len(), 8);
        assert_eq!(tree.gate_count(), 7);
        assert_eq!(tree.primary_outputs().len(), 1);
        assert_eq!(tree.levels().level_count(), 3);
    }

    #[test]
    #[should_panic(expected = "two-input")]
    fn balanced_tree_rejects_wide_cells() {
        let _ = balanced_tree(2, CellKind::Nor3);
    }

    #[test]
    fn random_dag_is_deterministic_per_seed() {
        let config = DagConfig {
            levels: 4,
            width: 5,
            max_fanout: 3,
            seed: 42,
        };
        let a = random_dag(&config);
        let b = random_dag(&config);
        assert_eq!(a, b);
        assert_eq!(a.to_json_string(), b.to_json_string());

        let other = random_dag(&DagConfig {
            seed: 43,
            ..config.clone()
        });
        assert_ne!(a, other, "different seeds should differ");
    }

    #[test]
    fn random_dag_respects_the_fanout_bound() {
        // Sweep seeds at the tightest permitted bound (max_fanout = 2): the
        // bound must hold structurally, not by seed luck.
        for max_fanout in [2, 3] {
            for seed in 0..40 {
                let config = DagConfig {
                    levels: 6,
                    width: 8,
                    max_fanout,
                    seed,
                };
                let dag = random_dag(&config);
                assert_eq!(dag.gate_count(), config.gate_count());
                for i in 0..dag.net_count() {
                    let net = dag.find_net(dag.net_name(NetRef::from_index(i))).unwrap();
                    assert!(
                        dag.fanout_of(net).len() <= config.max_fanout,
                        "net `{}` has fanout {} > {} (seed {seed})",
                        dag.net_name(net),
                        dag.fanout_of(net).len(),
                        config.max_fanout
                    );
                }
            }
        }
        // The DAG levelizes to exactly the configured depth.
        let config = DagConfig {
            levels: 6,
            width: 8,
            max_fanout: 3,
            seed: 7,
        };
        assert_eq!(random_dag(&config).levels().level_count(), config.levels);
    }

    #[test]
    fn gate_budget_configs_hit_the_budget_roughly() {
        for budget in [10, 100, 1000] {
            let config = DagConfig::with_gate_budget(budget, 1);
            let gates = config.gate_count();
            assert!(
                gates >= budget && gates <= budget + config.width,
                "budget {budget} -> {gates}"
            );
        }
    }

    #[test]
    fn scale_free_dag_is_deterministic_per_seed() {
        let config = ScaleFreeConfig {
            gates: 500,
            inputs: 16,
            seed: 11,
        };
        let a = scale_free_dag(&config);
        let b = scale_free_dag(&config);
        assert_eq!(a, b);
        let other = scale_free_dag(&ScaleFreeConfig {
            seed: 12,
            ..config.clone()
        });
        assert_ne!(a, other, "different seeds should differ");
    }

    #[test]
    fn scale_free_dag_has_heavy_tail_fanout_and_few_outputs() {
        let config = ScaleFreeConfig::with_gate_budget(4000, 3);
        let dag = scale_free_dag(&config);
        assert_eq!(dag.gate_count(), 4000);
        assert_eq!(dag.primary_inputs().len(), config.inputs);
        // The pool invariant: exactly `inputs` nets survive unconsumed.
        assert_eq!(dag.primary_outputs().len(), config.inputs);
        let fanouts: Vec<usize> = dag.net_refs().map(|n| dag.fanout_of(n).len()).collect();
        let max = fanouts.iter().copied().max().unwrap();
        let mean = fanouts.iter().sum::<usize>() as f64 / fanouts.len() as f64;
        assert!(
            max as f64 > 8.0 * mean,
            "expected a heavy tail: max fanout {max} vs mean {mean:.2}"
        );
        // Depth stays logarithmic-ish thanks to the constant-width pool.
        let levels = dag.levels();
        assert_eq!(levels.gate_count(), 4000);
        assert!(
            levels.level_count() < 256,
            "depth {} should stay shallow",
            levels.level_count()
        );
    }

    #[test]
    fn s27_matches_the_iscas_structure() {
        let s = s27();
        assert_eq!(s.primary_inputs().len(), 5);
        assert_eq!(s.primary_outputs().len(), 1);
        assert_eq!(s.gate_count(), 16);
        let dffs: Vec<_> = s
            .iter_gates()
            .filter(|g| g.kind == CellKind::Dff)
            .map(|g| g.name.to_string())
            .collect();
        assert_eq!(dffs, ["R5", "R6", "R7"]);
        // Every DFF samples the shared clock on its CLK pin.
        let ck = s.find_net("CK").unwrap();
        assert_eq!(s.fanout_of(ck).len(), 3);
        assert!(s.fanout_of(ck).iter().all(|&(_, pin)| pin == 1));
        // The three feedback loops all cross a register: levels() terminates
        // with the registers as roots.
        let levels = s.levels();
        assert_eq!(levels.gate_count(), 16);
        assert!(levels.level_count() >= 4, "{}", levels.level_count());
    }

    #[test]
    fn pipelined_dag_is_deterministic_and_register_bounded() {
        let a = pipelined_dag(3, 4, 9);
        let b = pipelined_dag(3, 4, 9);
        assert_eq!(a, b);
        assert_ne!(a, pipelined_dag(3, 4, 10), "different seeds should differ");
        // 3 stages × (4 comb + 4 DFF) gates.
        assert_eq!(a.gate_count(), 24);
        assert_eq!(
            a.iter_gates().filter(|g| g.kind == CellKind::Dff).count(),
            12
        );
        // clk + 4 data inputs; the last bank's Q nets are the outputs.
        assert_eq!(a.primary_inputs().len(), 5);
        assert_eq!(a.primary_outputs().len(), 4);
        assert!(a.has_sequential_gates());
        // JSON round trip survives the register kinds.
        assert_eq!(Netlist::from_json_str(&a.to_json_string()).unwrap(), a);
    }

    #[test]
    fn c17_matches_the_iscas_structure() {
        let c = c17();
        assert_eq!(c.gate_count(), 6);
        assert_eq!(c.primary_inputs().len(), 5);
        assert_eq!(c.primary_outputs().len(), 2);
        assert!(c.iter_gates().all(|g| g.kind == CellKind::Nand2));
        // N11 fans out to two gates.
        let n11 = c.find_net("N11").unwrap();
        assert_eq!(c.fanout_of(n11).len(), 2);
    }
}
