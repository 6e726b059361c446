//! `eco_session`: a resident `mcsm_serve::Engine` on a mid-size, shallow
//! leveled DAG, fed a seeded stream of ECO writes (retypes, net loads,
//! drives, including reverts of earlier edits) alternating with reads.

use crate::client::{content, number, result_of, Client};
use crate::gen::{leveled_dag, Drive, Rng, STRUCTURE_SEED};
use crate::layers::{self, Replay};
use crate::report::{mean, quantile, repeat_rounds, Digest, Run};
use crate::Ctx;
use mcsm_cells::cell::CellKind;
use mcsm_core::sim::{CsmSimOptions, DriveWaveform};
use mcsm_net::{NetRef, Netlist};
use mcsm_netsim::{
    cone_of_influence, seeds_for_drive_change, seeds_for_gate_edit, seeds_for_load_change,
    simulate_netlist, NetsimOptions,
};
use mcsm_sta::delaycalc::{DelayBackend, DelayCalculator};
use std::collections::HashMap;

const LEVELS: usize = 5;
const WIDTH: usize = 24;
/// ECOs per session; every run holds at least one whole session.
const ECOS: usize = 200;
const WINDOW: f64 = 1.1e-9;
const DT: f64 = 2e-12;
const LOADS: [f64; 5] = [0.0, 0.5e-15, 1e-15, 2e-15, 4e-15];

/// One write of the stream, carrying the value it sets.
#[derive(Debug, Clone)]
enum Edit {
    Retype(String, CellKind),
    Load(String, f64),
    Drive(String, Drive),
}

impl Edit {
    fn request(&self) -> (&'static str, String) {
        match self {
            Edit::Retype(gate, cell) => (
                "eco",
                format!(
                    r#"{{"op":"retype_gate","gate":"{gate}","cell":"{}"}}"#,
                    cell.name()
                ),
            ),
            Edit::Load(net, farads) => (
                "eco",
                format!(r#"{{"op":"set_net_load","net":"{net}","farads":{farads:e}}}"#),
            ),
            Edit::Drive(net, drive) => (
                "set_drive",
                format!(r#"{{"net":"{net}","drive":{}}}"#, drive.json()),
            ),
        }
    }
}

/// The session's circuit state as the client tracks it.
#[derive(Debug, Clone)]
struct Shadow {
    netlist: Netlist,
    drives: Vec<(NetRef, Drive)>,
}

impl Shadow {
    /// Applies `edit`; returns the edit that undoes it.
    fn apply(&mut self, edit: &Edit) -> Result<Edit, String> {
        let n = &mut self.netlist;
        Ok(match edit {
            Edit::Retype(gate, cell) => {
                let g = n.find_gate(gate).map_err(|e| e.to_string())?;
                let old = n.gate_kind(g);
                n.retype_gate(g, *cell).map_err(|e| e.to_string())?;
                Edit::Retype(gate.clone(), old)
            }
            Edit::Load(net, farads) => {
                let r = n.find_net(net).map_err(|e| e.to_string())?;
                let old = n.net_load(r);
                n.set_net_load(r, *farads).map_err(|e| e.to_string())?;
                Edit::Load(net.clone(), old)
            }
            Edit::Drive(net, drive) => {
                let r = n.find_net(net).map_err(|e| e.to_string())?;
                let slot = self
                    .drives
                    .iter_mut()
                    .find(|(pi, _)| *pi == r)
                    .ok_or("drive edit on a non-input")?;
                let old = std::mem::replace(&mut slot.1, *drive);
                Edit::Drive(net.clone(), old)
            }
        })
    }

    /// The gates the server invalidates for `edit` (applied), downstream
    /// closure included.
    fn cone(&self, edit: &Edit) -> Vec<mcsm_net::GateRef> {
        let n = &self.netlist;
        let seeds = match edit {
            Edit::Retype(gate, _) => n
                .find_gate(gate)
                .map(|g| seeds_for_gate_edit(n, g))
                .unwrap_or_default(),
            Edit::Load(net, _) => n
                .find_net(net)
                .map(|r| seeds_for_load_change(n, r))
                .unwrap_or_default(),
            Edit::Drive(net, _) => n
                .find_net(net)
                .map(|r| seeds_for_drive_change(n, r))
                .unwrap_or_default(),
        };
        cone_of_influence(n, &seeds)
    }
}

/// One ECO and the reads that follow it; the first read needs the edit.
struct Step {
    edit: Edit,
    reads: Vec<(&'static str, String)>,
}

struct Plan {
    start: Shadow,
    steps: Vec<Step>,
    end: Shadow,
}

/// A new rising ramp with seeded timing: the input's whole cone re-solves.
fn random_drive(rng: &mut Rng) -> Drive {
    Drive::ramp(true, rng.range(0.2e-9, 0.45e-9), rng.range(40e-12, 100e-12))
}

/// What one ECO of the rotation edits.
#[derive(Clone, Copy)]
enum Slot {
    /// A new drive on a random primary input.
    Drive,
    /// NAND2 <-> NOR2 on a random two-input gate of this level.
    Retype(usize),
    /// A new load on the output net of a random gate of this level.
    Load(usize),
    /// Undo the edit made `REVERT_LAG` ECOs earlier.
    Revert,
}

/// The stream repeats this rotation, so every seed gets the same mix of
/// cone depths and reverts; the seed picks the gates, nets and values. The
/// mix is three cheap slots (reverts, a level-3 retype), four level-1 edits
/// and three level-0 edits or drives, so the median ECO falls among the
/// level-1 edits and the 90th percentile among the level-0 ones rather than
/// on a boundary between slot kinds.
const ROTATION: [Slot; 10] = [
    Slot::Drive,
    Slot::Retype(0),
    Slot::Load(0),
    Slot::Retype(1),
    Slot::Load(1),
    Slot::Revert,
    Slot::Retype(1),
    Slot::Load(1),
    Slot::Retype(3),
    Slot::Revert,
];
const REVERT_LAG: usize = 5;

fn plan(seed: u64) -> Result<Plan, String> {
    let mut rng = Rng::new(seed, 0xec0);
    let netlist = leveled_dag(
        "eco_dag5x24",
        LEVELS,
        WIDTH,
        &mut Rng::new(STRUCTURE_SEED, 0xec0),
    );
    let drives = netlist
        .primary_inputs()
        .iter()
        .map(|&pi| (pi, random_drive(&mut rng)))
        .collect();
    let start = Shadow { netlist, drives };
    let mut shadow = start.clone();
    let n = &start.netlist;
    // Gate `g{level}_{slot}` drives net `n{level}_{slot}` (see `leveled_dag`).
    let gate_names = |level: usize, two_input_only: bool| -> Vec<String> {
        (0..WIDTH)
            .map(|slot| format!("g{level}_{slot}"))
            .filter(|name| {
                !two_input_only
                    || n.find_gate(name)
                        .is_ok_and(|g| n.gate_kind(g).input_count() == 2)
            })
            .collect()
    };
    let gate_nets: Vec<String> = n
        .gate_refs()
        .map(|g| n.net_name(n.output_of(g)).to_string())
        .collect();
    let inputs: Vec<String> = n
        .primary_inputs()
        .iter()
        .map(|&pi| n.net_name(pi).to_string())
        .collect();
    let outputs: Vec<String> = n
        .primary_outputs()
        .iter()
        .map(|&po| n.net_name(po).to_string())
        .collect();

    let mut undo: Vec<Edit> = Vec::with_capacity(ECOS);
    let mut steps = Vec::with_capacity(ECOS);
    for i in 0..ECOS {
        let edit = match ROTATION[i % ROTATION.len()] {
            Slot::Drive => Edit::Drive(
                inputs[rng.index(inputs.len())].clone(),
                random_drive(&mut rng),
            ),
            Slot::Retype(level) => {
                let candidates = gate_names(level, true);
                let gate = &candidates[rng.index(candidates.len())];
                let g = shadow.netlist.find_gate(gate).map_err(|e| e.to_string())?;
                let cell = match shadow.netlist.gate_kind(g) {
                    CellKind::Nand2 => CellKind::Nor2,
                    _ => CellKind::Nand2,
                };
                Edit::Retype(gate.clone(), cell)
            }
            Slot::Load(level) => {
                let net = format!("n{level}_{}", rng.index(WIDTH));
                let current = shadow
                    .netlist
                    .find_net(&net)
                    .map(|r| shadow.netlist.net_load(r))
                    .map_err(|e| e.to_string())?;
                // Always a different load, so the cone really re-solves.
                let choices: Vec<f64> = LOADS.into_iter().filter(|&l| l != current).collect();
                Edit::Load(net, choices[rng.index(choices.len())])
            }
            Slot::Revert => undo[i - REVERT_LAG].clone(),
        };
        undo.push(shadow.apply(&edit)?);
        let reads = reads_after(&mut rng, &gate_nets, &outputs, i);
        steps.push(Step { edit, reads });
    }
    Ok(Plan {
        start,
        steps,
        end: shadow,
    })
}

/// The reads after ECO `i`: one or two arrival/slew reads on random nets,
/// plus a waveform read of a primary output after every tenth ECO.
fn reads_after(
    rng: &mut Rng,
    gate_nets: &[String],
    outputs: &[String],
    i: usize,
) -> Vec<(&'static str, String)> {
    let mut reads = Vec::new();
    for _ in 0..1 + rng.index(2) {
        let net = &gate_nets[rng.index(gate_nets.len())];
        reads.push(if rng.chance(0.6) {
            ("arrival", format!(r#"{{"net":"{net}"}}"#))
        } else {
            (
                "slew",
                format!(r#"{{"net":"{net}","rising":{}}}"#, rng.chance(0.5)),
            )
        });
    }
    if i % 10 == 9 {
        let net = &outputs[rng.index(outputs.len())];
        reads.push(("waveform", format!(r#"{{"net":"{net}"}}"#)));
    }
    reads
}

/// Loads `shadow` into a fresh session.
fn open(ctx: &Ctx, shadow: &Shadow, run: &mut Run) -> Client {
    let mut client = Client::new(&ctx.library);
    let params = format!(
        r#"{{"netlist":{},"window":{WINDOW:e},"dt":{DT:e}}}"#,
        shadow.netlist.to_json_string()
    );
    run.op(client.call("load_netlist", &params));
    for (pi, drive) in &shadow.drives {
        let params = format!(
            r#"{{"net":"{}","drive":{}}}"#,
            shadow.netlist.net_name(*pi),
            drive.json()
        );
        run.op(client.call("set_drive", &params));
    }
    client
}

/// Every arrival and both slews of every gate-output net, as answered.
fn all_reads(client: &mut Client, netlist: &Netlist) -> Result<Vec<String>, String> {
    let mut answers = Vec::new();
    for gate in netlist.gate_refs() {
        let net = netlist.net_name(netlist.output_of(gate));
        answers.push(content(
            &client.call("arrival", &format!(r#"{{"net":"{net}"}}"#))?,
        ));
        for rising in [true, false] {
            let params = format!(r#"{{"net":"{net}","rising":{rising}}}"#);
            answers.push(content(&client.call("slew", &params)?));
        }
    }
    Ok(answers)
}

/// Check (c): a fresh session given the final netlist and drives answers
/// every arrival and slew exactly as the resident session does.
fn check_fresh(
    ctx: &Ctx,
    resident: &mut Client,
    end: &Shadow,
    run: &mut Run,
) -> Result<(), String> {
    let _span = mcsm_obs::span("bench.check.fresh_session");
    let mut fresh = open(ctx, end, run);
    let theirs = all_reads(&mut fresh, &end.netlist)?;
    let ours = all_reads(resident, &end.netlist)?;
    match ours.iter().zip(&theirs).find(|(a, b)| a != b) {
        None => Ok(()),
        Some((a, b)) => Err(format!(
            "resident session answered {a} where a fresh session answers {b}"
        )),
    }
}

/// Timings a traced session collects on top of the end-to-end ones.
#[derive(Default)]
struct Traced {
    edit_us: Vec<f64>,
    resolve_ms: Vec<f64>,
    read_us: Vec<f64>,
    waveform_ms: Vec<f64>,
    cone_gates: Vec<f64>,
    reused_ratio: Vec<f64>,
    unchanged: Vec<f64>,
}

/// Bits of the waveform on a net, for telling re-solves that changed
/// nothing apart.
fn waveform_bits(client: &mut Client, net: &str) -> Option<(usize, u64)> {
    let answer = client
        .call("waveform", &format!(r#"{{"net":"{net}"}}"#))
        .ok()?;
    let mut digest = Digest::default();
    digest.text(&content(&answer));
    Some((number(&answer, "samples")? as usize, digest.raw()))
}

/// Runs one session over the plan; returns the resident client.
fn session(ctx: &Ctx, plan: &Plan, run: &mut Run, mut traced: Option<&mut Traced>) -> Client {
    let mut client = open(ctx, &plan.start, run);
    // The first full simulation is the session's warm-up.
    let first = plan
        .start
        .netlist
        .net_name(plan.start.netlist.primary_outputs()[0]);
    run.op(client.call("arrival", &format!(r#"{{"net":"{first}"}}"#)));

    let mut shadow = plan.start.clone();
    let mut request_s = 0.0;
    for step in &plan.steps {
        let (method, params) = step.edit.request();
        let mut before: Vec<(String, Option<(usize, u64)>)> = Vec::new();
        if traced.is_some() {
            let _ = shadow.apply(&step.edit);
            for gate in shadow.cone(&step.edit) {
                let net = shadow
                    .netlist
                    .net_name(shadow.netlist.output_of(gate))
                    .to_string();
                let bits = waveform_bits(&mut client, &net);
                before.push((net, bits));
            }
        }
        let (edit_answer, edit_s) = client.send(method, &params);
        let (read_method, read_params) = &step.reads[0];
        let (read_answer, read_s) = client.send(read_method, read_params);
        request_s += edit_s + read_s;
        run.latencies_ms.push((edit_s + read_s) * 1e3);
        run.op(result_of(method, &edit_answer));
        if let Some(answer) = run.op(result_of(read_method, &read_answer)) {
            run.digest.text(&content(&answer));
        }
        if let Some(t) = traced.as_deref_mut() {
            t.edit_us.push(edit_s * 1e6);
            t.resolve_ms.push(read_s * 1e3);
            if let Ok(stats) = client.call("stats", "{}") {
                let last = stats.get("last_run").and_then(|r| r.get("stats"));
                let field = |k: &str| last.and_then(|s| number(s, k)).unwrap_or(0.0);
                let cone = field("gates_simulated") + field("gates_skipped");
                t.cone_gates.push(cone);
                t.reused_ratio
                    .push(field("gates_reused") / shadow.netlist.gate_count() as f64);
            }
            let unchanged = before
                .iter()
                .filter(|(net, old)| {
                    let now = waveform_bits(&mut client, net);
                    now.is_some_and(|(samples, _)| samples > 2) && now == *old
                })
                .count();
            t.unchanged.push(unchanged as f64);
        }
        for (read_method, read_params) in &step.reads[1..] {
            let (answer, seconds) = client.send(read_method, read_params);
            request_s += seconds;
            if let Some(t) = traced.as_deref_mut() {
                if *read_method == "waveform" {
                    t.waveform_ms.push(seconds * 1e3);
                } else {
                    t.read_us.push(seconds * 1e6);
                }
            }
            if let Some(answer) = run.op(result_of(read_method, &answer)) {
                run.digest.text(&content(&answer));
            }
        }
    }
    run.work_units += plan.steps.len() as f64;
    run.work_seconds += request_s;
    client
}

pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let plan = plan(ctx.seed)?;
    if ctx.trace {
        let _span = mcsm_obs::span("bench.workload");
        layers::time_netlist_ir(run, &[&plan.start.netlist])?;
        let counters = layers::Counters::now();
        let mut traced = Traced::default();
        let mut client = session(ctx, &plan, run, Some(&mut traced));
        counters.report_netsim(run);
        if let Ok(stats) = client.call("stats", "{}") {
            layers::report_memo(&stats, run);
        }
        let checked = check_fresh(ctx, &mut client, &plan.end, run);
        run.op(checked);
        run.layer("server.edit_us", quantile(&traced.edit_us, 0.5));
        run.layer("server.resolve_ms", quantile(&traced.resolve_ms, 0.5));
        run.layer("server.read_us", quantile(&traced.read_us, 0.5));
        run.layer("server.waveform_ms", quantile(&traced.waveform_ms, 0.5));
        run.layer("eco.cone_gates", mean(&traced.cone_gates));
        run.layer("eco.reused_ratio", mean(&traced.reused_ratio));
        run.layer("eco.unchanged_solves", mean(&traced.unchanged));
        // Replay the final circuit's solves through the engine.
        let replayed = replay_final(ctx, &plan.end);
        if let Some(replay) = run.op(replayed) {
            replay.report(run);
        }
        return Ok(());
    }

    let mut resident = None;
    repeat_rounds(run, ctx.seconds, |run| {
        run.digest = Digest::default();
        // The previous session is dropped first: memory is per session.
        resident = None;
        resident = Some(session(ctx, &plan, run, None));
        run.digest
    });
    if let Some(mut client) = resident {
        let checked = check_fresh(ctx, &mut client, &plan.end, run);
        run.op(checked);
    }
    Ok(())
}

/// Simulates the final circuit with the session's settings and replays every
/// solved gate.
fn replay_final(ctx: &Ctx, end: &Shadow) -> Result<Replay, String> {
    let vdd = ctx.library.vdd();
    let config = crate::client::session_config();
    let calculator = DelayCalculator::new(
        DelayBackend::CompleteMcsm,
        CsmSimOptions::new(WINDOW, DT),
        vdd,
    );
    let options = NetsimOptions::new(calculator.clone(), config.primary_output_load)
        .with_threads(1)
        .with_event_threshold(config.event_threshold);
    let drives: HashMap<NetRef, DriveWaveform> = end
        .drives
        .iter()
        .map(|(n, d)| (*n, d.waveform(vdd)))
        .collect();
    let result = {
        let _span = mcsm_obs::span("bench.netsim");
        simulate_netlist(&end.netlist, &ctx.library, &drives, &options)
            .map_err(|e| e.to_string())?
    };
    let mut replay = Replay::default();
    layers::replay(
        &end.netlist,
        &ctx.library,
        &drives,
        &calculator,
        config.primary_output_load,
        &result,
        &mut replay,
    )?;
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_and_end_where_their_edits_lead() {
        let a = plan(3).unwrap();
        let b = plan(3).unwrap();
        let c = plan(4).unwrap();
        assert_eq!(a.steps.len(), ECOS);
        assert_eq!(
            a.end.netlist.to_json_string(),
            b.end.netlist.to_json_string()
        );
        // Same structure for every seed; the seed drives drives and edits.
        assert_eq!(
            a.start.netlist.to_json_string(),
            c.start.netlist.to_json_string()
        );
        assert_ne!(a.start.drives, c.start.drives);
        assert_ne!(
            a.end.netlist.to_json_string(),
            c.end.netlist.to_json_string()
        );
        let mut replayed = a.start.clone();
        for step in &a.steps {
            replayed.apply(&step.edit).unwrap();
            assert!(!step.reads.is_empty());
        }
        assert_eq!(
            replayed.netlist.to_json_string(),
            a.end.netlist.to_json_string()
        );
        assert_eq!(replayed.drives, a.end.drives);
    }
}
