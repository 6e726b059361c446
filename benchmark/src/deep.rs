//! `deep_transient`: full-window transients of deep, fully active netlists,
//! called straight into `mcsm_netsim::simulate_netlist`.

use crate::gen::{leveled_dag, mis_chain, same_way_drives, Rng, Stimulus, STRUCTURE_SEED};
use crate::layers::{self, Replay};
use crate::logic::{logic_values, settle_violation};
use crate::reference::SETTLE_SHARE;
use crate::report::{repeat_rounds, Digest, Run};
use crate::Ctx;
use mcsm_core::sim::{CsmSimOptions, DriveWaveform};
use mcsm_net::{NetRef, Netlist};
use mcsm_netsim::{simulate_netlist, NetsimOptions, NetsimResult, Observe};
use mcsm_sta::delaycalc::{DelayBackend, DelayCalculator};
use std::collections::HashMap;
use std::time::Instant;

/// Inputs start switching here, all within `EDGE_ALLOWANCE` (skew plus
/// transition); windows then allow `STAGE_ALLOWANCE` per level plus
/// `SETTLE_MARGIN`, so a circuit's window depends on its depth only.
const T0: f64 = 0.2e-9;
const EDGE_ALLOWANCE: f64 = 0.14e-9;
const STAGE_ALLOWANCE: f64 = 70e-12;
const SETTLE_MARGIN: f64 = 0.4e-9;
const PRIMARY_OUTPUT_LOAD: f64 = 2e-15;

/// One circuit of the round, with everything its transient needs.
struct Case {
    stim: Stimulus,
    drives: HashMap<NetRef, DriveWaveform>,
    options: NetsimOptions,
    /// Final logic value of every net (check (a)).
    logic: Vec<bool>,
}

impl Case {
    fn new(stim: Stimulus, levels: usize, streamed: bool, vdd: f64) -> Result<Self, String> {
        let window = T0 + EDGE_ALLOWANCE + levels as f64 * STAGE_ALLOWANCE + SETTLE_MARGIN;
        let calculator = DelayCalculator::new(
            DelayBackend::CompleteMcsm,
            CsmSimOptions::new(window, 2e-12),
            vdd,
        );
        let mut options = NetsimOptions::new(calculator, PRIMARY_OUTPUT_LOAD).with_threads(1);
        if streamed {
            options = options.with_observe(Observe::Points(Vec::new()));
        }
        let last: Vec<(NetRef, bool)> = stim.drives.iter().map(|(n, d)| (*n, d.last())).collect();
        Ok(Case {
            drives: stim
                .drives
                .iter()
                .map(|(n, d)| (*n, d.waveform(vdd)))
                .collect(),
            logic: logic_values(&stim.netlist, &last)?,
            stim,
            options,
        })
    }

    fn netlist(&self) -> &Netlist {
        &self.stim.netlist
    }
}

/// The round: a 32-stage MIS NAND2 chain, two 20x4 leveled DAGs (inputs
/// rising in one, falling in the other) and a 20x8 leveled DAG with rising
/// inputs run streamed with only its outputs observed. Costs grow about
/// 1 : 2 : 2 : 4, so the median transient is a 20x4 DAG and the 90th
/// percentile the streamed one.
fn cases(seed: u64, vdd: f64) -> Result<Vec<Case>, String> {
    let mut rng = Rng::new(seed, 0xdee9);
    let mut structure = Rng::new(STRUCTURE_SEED, 0xdee9);
    let mut set = vec![Case::new(
        mis_chain("deep_chain32", 32, T0, 45e-12, &mut rng),
        32,
        false,
        vdd,
    )?];
    for (name, width, rising, streamed) in [
        ("deep_dag20x4_rise", 4, true, false),
        ("deep_dag20x4_fall", 4, false, false),
        ("deep_dag20x8_streamed", 8, true, true),
    ] {
        let netlist = leveled_dag(name, 20, width, &mut structure);
        let drives = same_way_drives(&netlist, rising, T0, 40e-12, &mut rng);
        set.push(Case::new(Stimulus { netlist, drives }, 20, streamed, vdd)?);
    }
    Ok(set)
}

/// Check (a) on every observed net, and the digest of every observed
/// gate-output net's arrival and slews.
fn check(case: &Case, result: &NetsimResult, vdd: f64, digest: &mut Digest) -> Result<(), String> {
    let netlist = case.netlist();
    let observed = netlist
        .net_refs()
        .filter_map(|net| result.waveform(net).map(|w| (net, w.final_value())));
    if let Some(violation) =
        settle_violation(netlist, &case.logic, observed, vdd, SETTLE_SHARE * vdd)
    {
        return Err(format!("{}: {violation}", netlist.name()));
    }
    for net in netlist.net_refs() {
        if netlist.driver_of(net).is_none() || !result.observed(net) {
            continue;
        }
        digest.f64(result.arrival_any(net).map(|(t, _)| t));
        digest.f64(result.slew(net, true));
        digest.f64(result.slew(net, false));
    }
    Ok(())
}

pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let vdd = ctx.library.vdd();
    let cases = cases(ctx.seed, vdd)?;
    let gates_per_round: usize = cases.iter().map(|c| c.netlist().gate_count()).sum();
    let transient = |case: &Case, options: &NetsimOptions| {
        let _span = mcsm_obs::span("bench.netsim");
        simulate_netlist(case.netlist(), &ctx.library, &case.drives, options)
            .map_err(|e| format!("{}: {e}", case.netlist().name()))
    };

    if ctx.trace {
        let _span = mcsm_obs::span("bench.workload");
        let netlists: Vec<&Netlist> = cases.iter().map(Case::netlist).collect();
        layers::time_netlist_ir(run, &netlists)?;
        let counters = layers::Counters::now();
        let mut replay = Replay::default();
        for case in &cases {
            // Traced runs keep every waveform so each solve can be replayed;
            // observed nets are the same either way.
            let options = case.options.clone().with_observe(Observe::All);
            let Some(result) = run.op(transient(case, &options)) else {
                continue;
            };
            let mut digest = run.digest;
            let checked = check(case, &result, vdd, &mut digest);
            run.digest = digest;
            run.op(checked);
            run.op(layers::replay(
                case.netlist(),
                &ctx.library,
                &case.drives,
                &options.calculator,
                PRIMARY_OUTPUT_LOAD,
                &result,
                &mut replay,
            ));
        }
        replay.report(run);
        counters.report_netsim(run);
        return Ok(());
    }

    // Warm-up: the first transient of the round, untimed.
    run.op(transient(&cases[0], &cases[0].options));

    let mut solve_s = 0.0;
    repeat_rounds(run, ctx.seconds, |run| {
        let mut digest = Digest::default();
        for case in &cases {
            let started = Instant::now();
            let result = run.op(transient(case, &case.options));
            let seconds = started.elapsed().as_secs_f64();
            solve_s += seconds;
            run.latencies_ms.push(seconds * 1e3);
            if let Some(result) = result {
                run.op(check(case, &result, vdd, &mut digest));
            }
        }
        run.work_units += gates_per_round as f64;
        digest
    });
    run.work_seconds = solve_s;
    Ok(())
}
