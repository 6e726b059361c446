//! The `netsim` experiment: event-driven netlist transient simulation
//! throughput over generated circuits, per model family.
//!
//! For each model family (SIS-only, baseline MIS, complete MCSM) the
//! experiment sweeps the three generator families — NAND chains, balanced
//! NOR trees and random leveled DAGs — at three sizes each, runs the
//! `mcsm-netsim` simulator sequentially and level-parallel on every circuit,
//! checks the two runs **bit-identical**, and reports **gates per second**
//! into `BENCH_netsim.json`.
//!
//! On the largest circuit of each (family, topology) pair a *sparse-activity*
//! case is added — only one primary input switches — showing the event-driven
//! scheduler's skip path: most gates resolve to DC without entering the
//! numerical engine, and throughput rises accordingly. Honors
//! `MCSM_BENCH_FAST=1` (see [`crate::report::fast_mode`]).

use crate::report::fast_or;
use mcsm_cells::cell::CellKind;
use mcsm_cells::tech::Technology;
use mcsm_core::config::CharacterizationConfig;
use mcsm_core::sim::{CsmSimOptions, DriveWaveform};
use mcsm_net::{balanced_tree, nand_chain, random_dag, DagConfig, NetRef, Netlist, NetlistBuilder};
use mcsm_netsim::{simulate_netlist, NetsimError, NetsimOptions, NetsimResult};
use mcsm_num::json::JsonValue;
use mcsm_num::par;
use mcsm_sta::delaycalc::{DelayBackend, DelayCalculator};
use mcsm_sta::models::ModelLibrary;
use std::collections::HashMap;
use std::time::Instant;

/// Configuration of one netsim-experiment run.
#[derive(Debug, Clone)]
pub struct NetsimSweepOptions {
    /// Worker threads for the parallel passes (`0` = auto).
    pub threads: usize,
    /// Gate budgets, one sweep point per entry (see [`sweep_netlists`]; the
    /// `server` and `sim_hotpath` experiments time the same circuits).
    pub sizes: Vec<usize>,
    /// Characterization grids for the model library.
    pub config: CharacterizationConfig,
    /// Time step of the per-gate waveform simulations (seconds).
    pub dt: f64,
    /// Timed repetitions per pass; the best (minimum) wall clock is reported.
    pub repeats: usize,
}

impl NetsimSweepOptions {
    /// The default sweep for a thread count; `MCSM_BENCH_FAST=1` shrinks the
    /// sizes and coarsens grids/steps so the smoke run finishes in seconds.
    pub fn for_threads(threads: usize) -> Self {
        NetsimSweepOptions {
            threads,
            sizes: fast_or(vec![10, 24, 48], vec![16, 64, 256]),
            config: fast_or(
                CharacterizationConfig::coarse(),
                CharacterizationConfig::standard(),
            ),
            dt: fast_or(4e-12, 2e-12),
            repeats: fast_or(2, 1),
        }
    }
}

/// The model families the experiment sweeps, as `(label, backend)` pairs.
pub fn model_families() -> Vec<(&'static str, DelayBackend)> {
    vec![
        ("sis", DelayBackend::SisOnly),
        ("baseline_mis", DelayBackend::BaselineMis),
        ("complete_mcsm", DelayBackend::CompleteMcsm),
    ]
}

/// The generated circuits of one sweep: `(topology, netlist)` pairs in
/// family-then-size order. Deterministic — DAG seeds derive from the gate
/// budget, so equal options give equal circuits.
pub fn sweep_netlists(sizes: &[usize]) -> Vec<(String, Netlist)> {
    let mut netlists = Vec::new();
    for &size in sizes {
        netlists.push(("chain".to_string(), nand_chain(size.max(1))));
    }
    for &size in sizes {
        // Nearest power-of-two reduction tree under the budget.
        let levels = ((size.max(2) + 1) as f64).log2().floor() as usize;
        netlists.push((
            "tree".to_string(),
            balanced_tree(levels.max(1), CellKind::Nor2),
        ));
    }
    for &size in sizes {
        let config = DagConfig::with_gate_budget(size.max(1), 0xC17 + size as u64);
        netlists.push(("dag".to_string(), random_dag(&config)));
    }
    netlists
}

/// A synthetic layered netlist: `width` NOR2 gates over paired primary
/// inputs, then `layers - 1` further layers alternating inverters and
/// neighbor-combining NAND2s. Every layer is `width` gates wide, so
/// level-parallel simulation has real fan-out to chew on.
///
/// # Errors
///
/// Returns a [`mcsm_net::NetlistError`] if the requested shape is degenerate
/// (zero width or layers).
pub fn layered_netlist(width: usize, layers: usize) -> Result<Netlist, mcsm_net::NetlistError> {
    let mut builder = NetlistBuilder::new(&format!("layered_{width}x{layers}"));
    let mut current: Vec<String> = Vec::with_capacity(width);
    for i in 0..width {
        let a = format!("in{i}a");
        let b = format!("in{i}b");
        builder = builder.primary_input(&a).primary_input(&b);
        let out = format!("l0_{i}");
        builder = builder.gate(&format!("u0_{i}"), CellKind::Nor2, &[&a, &b], &out);
        current.push(out);
    }
    for layer in 1..layers {
        let mut next = Vec::with_capacity(width);
        for i in 0..width {
            let out = format!("l{layer}_{i}");
            if layer % 2 == 1 {
                builder = builder.gate(
                    &format!("u{layer}_{i}"),
                    CellKind::Inverter,
                    &[&current[i]],
                    &out,
                );
            } else {
                builder = builder.gate(
                    &format!("u{layer}_{i}"),
                    CellKind::Nand2,
                    &[&current[i], &current[(i + 1) % width]],
                    &out,
                );
            }
            next.push(out);
        }
        current = next;
    }
    for net in &current {
        builder = builder.primary_output(net);
    }
    builder.build()
}

/// Primary-input drives for a netsim run: staggered falling ramps on every
/// input (`full` activity), or a single switching input with everything else
/// parked at the rail (`sparse` activity — the event-driven showcase).
pub fn netsim_input_drives(
    netlist: &Netlist,
    vdd: f64,
    sparse: bool,
) -> HashMap<NetRef, DriveWaveform> {
    netlist
        .primary_inputs()
        .iter()
        .enumerate()
        .map(|(i, &pi)| {
            let drive = if sparse && i > 0 {
                DriveWaveform::dc(vdd)
            } else {
                let skew = 20e-12 * (i % 5) as f64;
                DriveWaveform::falling_ramp(vdd, 1e-9 + skew, 80e-12)
            };
            (pi, drive)
        })
        .collect()
}

/// One timed case of the sweep.
#[derive(Debug, Clone)]
pub struct NetsimCase {
    /// Model family label (`sis`, `baseline_mis`, `complete_mcsm`).
    pub family: String,
    /// Generator family (`chain`, `tree` or `dag`).
    pub topology: String,
    /// Name of the generated circuit.
    pub circuit: String,
    /// Input activity (`full` or `sparse`).
    pub activity: String,
    /// Gate count of the circuit.
    pub gates: usize,
    /// Topological levels of the schedule.
    pub levels: usize,
    /// Gates the event-driven scheduler handed to the engine.
    pub gates_simulated: usize,
    /// Gates resolved to DC without an engine run.
    pub gates_skipped: usize,
    /// Nets whose waveform excursion exceeded the event threshold.
    pub events: usize,
    /// Best wall-clock seconds of one sequential run.
    pub seq_seconds: f64,
    /// Best wall-clock seconds of one level-parallel run.
    pub par_seconds: f64,
    /// Whether the parallel waveforms equal the sequential ones bit-for-bit.
    pub bit_identical: bool,
}

impl NetsimCase {
    /// Netlist-simulation throughput of this case (whole circuit over the
    /// parallel wall clock — skipped gates count, that is the point of the
    /// event-driven schedule).
    pub fn gates_per_second(&self) -> f64 {
        self.gates as f64 / self.par_seconds.max(1e-12)
    }

    /// Sequential-over-parallel speedup of this case.
    pub fn speedup(&self) -> f64 {
        self.seq_seconds / self.par_seconds.max(1e-12)
    }
}

/// The full experiment result, written to `BENCH_netsim.json`.
#[derive(Debug, Clone)]
pub struct NetsimReport {
    /// Worker threads the parallel passes ran with (resolved, so never 0).
    pub threads: usize,
    /// All timed cases, in family-then-topology-then-size order.
    pub cases: Vec<NetsimCase>,
}

impl NetsimReport {
    /// Whether every sequential-vs-parallel check passed.
    pub fn all_identical(&self) -> bool {
        self.cases.iter().all(|case| case.bit_identical)
    }

    /// Aggregate sequential-over-parallel speedup across the full-activity
    /// cases (sparse cases have too few eventful gates to fan out).
    pub fn overall_speedup(&self) -> f64 {
        self.aggregate_speedup(|case| case.activity == "full")
    }

    /// Aggregate speedup over the full-activity cases with level widths worth
    /// fanning out — trees and DAGs. Chains are width-1 by construction, so
    /// level parallelism *cannot* help them; this is the metric the CI perf
    /// gate checks.
    pub fn parallel_speedup(&self) -> f64 {
        self.aggregate_speedup(|case| case.activity == "full" && case.topology != "chain")
    }

    /// The case the CI gates/s floor checks: the complete-MCSM full-activity
    /// chain with the most gates (`nand_chain_48` in fast mode). Its window
    /// grows with depth, so each gate solve takes the most engine steps of
    /// any case, and a per-step or per-sample cost in the engine or its drive
    /// lookups shows there first.
    pub fn floor_case(&self) -> Option<&NetsimCase> {
        self.cases
            .iter()
            .filter(|case| {
                case.family == "complete_mcsm"
                    && case.topology == "chain"
                    && case.activity == "full"
            })
            .max_by_key(|case| case.gates)
    }

    fn aggregate_speedup(&self, keep: impl Fn(&NetsimCase) -> bool) -> f64 {
        let (seq, par) = self
            .cases
            .iter()
            .filter(|case| keep(case))
            .fold((0.0, 0.0), |(s, p), case| {
                (s + case.seq_seconds, p + case.par_seconds)
            });
        seq / par.max(1e-12)
    }

    /// The machine-readable report.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("experiment".into(), JsonValue::String("netsim".into())),
            (
                "fast_mode".into(),
                JsonValue::Bool(crate::report::fast_mode()),
            ),
            ("threads".into(), JsonValue::Number(self.threads as f64)),
            (
                "overall_speedup".into(),
                JsonValue::Number(self.overall_speedup()),
            ),
            (
                "parallel_speedup".into(),
                JsonValue::Number(self.parallel_speedup()),
            ),
            (
                "cases".into(),
                JsonValue::Array(
                    self.cases
                        .iter()
                        .map(|case| {
                            JsonValue::Object(vec![
                                ("family".into(), JsonValue::String(case.family.clone())),
                                ("topology".into(), JsonValue::String(case.topology.clone())),
                                ("circuit".into(), JsonValue::String(case.circuit.clone())),
                                ("activity".into(), JsonValue::String(case.activity.clone())),
                                ("gates".into(), JsonValue::Number(case.gates as f64)),
                                ("levels".into(), JsonValue::Number(case.levels as f64)),
                                (
                                    "gates_simulated".into(),
                                    JsonValue::Number(case.gates_simulated as f64),
                                ),
                                (
                                    "gates_skipped".into(),
                                    JsonValue::Number(case.gates_skipped as f64),
                                ),
                                ("events".into(), JsonValue::Number(case.events as f64)),
                                ("seq_seconds".into(), JsonValue::Number(case.seq_seconds)),
                                ("par_seconds".into(), JsonValue::Number(case.par_seconds)),
                                (
                                    "gates_per_second".into(),
                                    JsonValue::Number(case.gates_per_second()),
                                ),
                                ("speedup".into(), JsonValue::Number(case.speedup())),
                                ("bit_identical".into(), JsonValue::Bool(case.bit_identical)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn results_identical(netlist: &Netlist, a: &NetsimResult, b: &NetsimResult) -> bool {
    netlist
        .net_refs()
        .all(|net| a.waveform(net) == b.waveform(net))
}

/// Runs the experiment: characterize once, then time every circuit under
/// every model family.
///
/// # Errors
///
/// Propagates characterization and simulation failures.
pub fn run_netsim_sweep(options: &NetsimSweepOptions) -> Result<NetsimReport, NetsimError> {
    let threads = par::resolve_threads(options.threads);
    let technology = Technology::cmos_130nm();
    let library = ModelLibrary::characterize_parallel(
        &technology,
        &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
        &options.config,
        threads,
    )?;

    let netlists = sweep_netlists(&options.sizes);
    let mut largest_per_topology: HashMap<String, usize> = HashMap::new();
    for (idx, (topology, netlist)) in netlists.iter().enumerate() {
        let best = largest_per_topology.entry(topology.clone()).or_insert(idx);
        if netlist.gate_count() >= netlists[*best].1.gate_count() {
            *best = idx;
        }
    }

    let mut cases = Vec::new();
    for (family, backend) in model_families() {
        for (idx, (topology, netlist)) in netlists.iter().enumerate() {
            let sparse_too = largest_per_topology[topology] == idx;
            for sparse in [false, true] {
                if sparse && !sparse_too {
                    continue;
                }
                cases.push(time_case(
                    family, backend, topology, netlist, &library, threads, sparse, options,
                )?);
            }
        }
    }

    Ok(NetsimReport { threads, cases })
}

#[allow(clippy::too_many_arguments)]
fn time_case(
    family: &str,
    backend: DelayBackend,
    topology: &str,
    netlist: &Netlist,
    library: &ModelLibrary,
    threads: usize,
    sparse: bool,
    options: &NetsimSweepOptions,
) -> Result<NetsimCase, NetsimError> {
    let vdd = library.vdd();
    let levels = netlist.levels().level_count();
    let drives = netsim_input_drives(netlist, vdd, sparse);
    // The simulated window must cover the accumulated path delay, so it
    // scales with the circuit depth.
    let window = 2e-9 + 0.4e-9 * levels as f64;
    let calculator = DelayCalculator::new(backend, CsmSimOptions::new(window, options.dt), vdd);
    let netsim_options = NetsimOptions::new(calculator, 2e-15);

    let timed = |threads: usize| -> Result<(NetsimResult, f64), NetsimError> {
        let run_options = netsim_options.clone().with_threads(threads);
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..options.repeats.max(1) {
            let start = Instant::now();
            let r = simulate_netlist(netlist, library, &drives, &run_options)?;
            best = best.min(start.elapsed().as_secs_f64());
            result = Some(r);
        }
        Ok((result.expect("at least one repeat"), best))
    };

    let (sequential, seq_seconds) = timed(1)?;
    let (parallel, par_seconds) = timed(threads)?;
    let stats = parallel.stats();

    Ok(NetsimCase {
        family: family.to_string(),
        topology: topology.to_string(),
        circuit: netlist.name().to_string(),
        activity: if sparse { "sparse" } else { "full" }.to_string(),
        gates: netlist.gate_count(),
        levels,
        gates_simulated: stats.gates_simulated,
        gates_skipped: stats.gates_skipped,
        events: stats.events,
        seq_seconds,
        par_seconds,
        bit_identical: results_identical(netlist, &sequential, &parallel),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_and_aggregates() {
        let case = |activity: &str, seq: f64, par: f64| NetsimCase {
            family: "sis".into(),
            topology: "chain".into(),
            circuit: "nand_chain_8".into(),
            activity: activity.into(),
            gates: 8,
            levels: 8,
            gates_simulated: 8,
            gates_skipped: 0,
            events: 9,
            seq_seconds: seq,
            par_seconds: par,
            bit_identical: true,
        };
        let mut tree_case = case("full", 3.0, 1.0);
        tree_case.topology = "tree".into();
        let report = NetsimReport {
            threads: 2,
            cases: vec![
                case("full", 1.0, 0.5),
                case("sparse", 10.0, 10.0),
                tree_case,
            ],
        };
        assert!(report.all_identical());
        // Sparse cases are excluded from the aggregate speedups; the gated
        // metric additionally drops width-1 chains.
        assert!((report.overall_speedup() - 4.0 / 1.5).abs() < 1e-12);
        assert!((report.parallel_speedup() - 3.0).abs() < 1e-12);
        assert!((report.cases[0].gates_per_second() - 16.0).abs() < 1e-9);
        assert!((report.cases[0].speedup() - 2.0).abs() < 1e-12);
        let json = report.to_json();
        assert_eq!(
            json.require("overall_speedup").unwrap().as_f64(),
            Some(4.0 / 1.5)
        );
        assert_eq!(
            json.require("parallel_speedup").unwrap().as_f64(),
            Some(3.0)
        );
        let reparsed = JsonValue::parse(&json.to_string_pretty()).unwrap();
        assert_eq!(reparsed, json);
    }

    #[test]
    fn the_floor_checks_the_deepest_complete_mcsm_chain_at_full_activity() {
        let case = |family: &str, topology: &str, gates: usize, activity: &str| NetsimCase {
            family: family.into(),
            topology: topology.into(),
            circuit: format!("{topology}_{gates}"),
            activity: activity.into(),
            gates,
            levels: gates,
            gates_simulated: gates,
            gates_skipped: 0,
            events: gates,
            seq_seconds: 1.0,
            par_seconds: 1.0,
            bit_identical: true,
        };
        let mut report = NetsimReport {
            threads: 1,
            cases: vec![
                case("complete_mcsm", "chain", 24, "full"),
                case("complete_mcsm", "chain", 48, "full"),
                case("complete_mcsm", "chain", 48, "sparse"),
                case("complete_mcsm", "dag", 49, "full"),
                case("sis", "chain", 64, "full"),
            ],
        };
        let floor = report.floor_case().unwrap();
        assert_eq!(
            (floor.circuit.as_str(), floor.activity.as_str()),
            ("chain_48", "full")
        );
        report.cases.retain(|case| case.family == "sis");
        assert!(report.floor_case().is_none());
    }

    #[test]
    fn sweep_netlists_cover_every_family_at_every_size() {
        let netlists = sweep_netlists(&[8, 16]);
        assert_eq!(netlists.len(), 6);
        assert_eq!(netlists.iter().filter(|(t, _)| t == "chain").count(), 2);
        // Deterministic: a second call builds identical circuits.
        let again = sweep_netlists(&[8, 16]);
        for ((ta, na), (tb, nb)) in netlists.iter().zip(&again) {
            assert_eq!(ta, tb);
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn layered_netlist_has_the_advertised_shape() {
        let netlist = layered_netlist(4, 3).unwrap();
        assert_eq!(netlist.gate_count(), 12);
        assert_eq!(netlist.primary_inputs().len(), 8);
        assert_eq!(netlist.primary_outputs().len(), 4);
        let levels = netlist.levels();
        assert_eq!(levels.level_count(), 3);
        assert!(levels.iter().all(|level| level.len() == 4));
    }

    #[test]
    fn sparse_drives_switch_exactly_one_input() {
        let netlist = mcsm_net::nand_chain(4);
        let full = netsim_input_drives(&netlist, 1.2, false);
        let sparse = netsim_input_drives(&netlist, 1.2, true);
        assert_eq!(full.len(), netlist.primary_inputs().len());
        let switching = |drives: &HashMap<NetRef, DriveWaveform>| {
            drives
                .values()
                .filter(|d| (d.eval(0.0) - d.eval(10e-9)).abs() > 0.6)
                .count()
        };
        assert_eq!(switching(&full), full.len());
        assert_eq!(switching(&sparse), 1);
    }

    #[test]
    fn tiny_netsim_sweep_runs_end_to_end() {
        let options = NetsimSweepOptions {
            threads: 2,
            sizes: vec![4],
            config: CharacterizationConfig::coarse(),
            dt: 8e-12,
            repeats: 1,
        };
        let report = run_netsim_sweep(&options).unwrap();
        // 3 families x (3 topologies x 1 size + 3 sparse repeats).
        assert_eq!(report.cases.len(), 18);
        assert!(report.all_identical());
        for case in &report.cases {
            assert!(case.gates > 0 && case.levels > 0);
            assert!(case.seq_seconds > 0.0 && case.par_seconds > 0.0);
            assert_eq!(case.gates_simulated + case.gates_skipped, case.gates);
            if case.activity == "sparse" && case.topology != "chain" {
                // With one switching input, trees and DAGs leave most of the
                // circuit quiescent — the event-driven skip path at work.
                assert!(
                    case.gates_skipped > 0,
                    "{} {} skipped nothing",
                    case.family,
                    case.circuit
                );
            }
        }
    }
}
