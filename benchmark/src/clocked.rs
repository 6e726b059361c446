//! `clocked_pipeline`: a seeded register pipeline clocked through
//! `load_clock` / `cycle` with seeded input vectors, a `slack` signoff every
//! few cycles and occasional retypes of combinational gates.

use crate::client::{content, number, result_of, Client};
use crate::gen::{Rng, STRUCTURE_SEED};
use crate::layers;
use crate::logic::{check_slack, ZeroDelayPipeline};
use crate::report::{mean, quantile, repeat_rounds, Digest, Run};
use crate::Ctx;
use mcsm_cells::cell::CellKind;
use mcsm_net::{pipelined_dag, Netlist};
use mcsm_num::json::JsonValue;

const STAGES: usize = 8;
const WIDTH: usize = 32;
/// One combinational gate per stage takes well under 200 ps with clk-to-q
/// and setup, so no stage violates this period.
const PERIOD: f64 = 0.6e-9;
/// Covers one cycle: origin (2 slews) + period + 4 slews of settling.
const WINDOW: f64 = 1.0e-9;
const DT: f64 = 2e-12;
/// Cycle requests per session; every run holds at least one whole session.
const CYCLES: usize = 2048;
const SLACK_EVERY: usize = 64;
const RETYPE_EVERY: usize = 64;
const TOGGLE: f64 = 0.25;
/// The first cycles of a session fill the waveform memo (three in four of
/// the first 64 miss it, one in thirteen after 256); they count towards
/// throughput and are checked, but are not latency samples, so the latency
/// quantiles describe a warm session instead of where warm-up ends.
const WARMUP_CYCLES: usize = 512;

enum Step {
    /// One `cycle` request with these input changes.
    Cycle(Vec<(String, bool)>),
    Slack,
    Retype(String, CellKind),
}

struct Plan {
    netlist: Netlist,
    steps: Vec<Step>,
}

fn plan(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 0xc10c);
    let netlist = pipelined_dag(STAGES, WIDTH, STRUCTURE_SEED);
    let inputs: Vec<String> = netlist
        .primary_inputs()
        .iter()
        .map(|&pi| netlist.net_name(pi).to_string())
        .filter(|name| name != "clk")
        .collect();
    let two_input: Vec<String> = netlist
        .gate_refs()
        .filter(|&g| {
            netlist.gate_kind(g).input_count() == 2 && !netlist.gate_kind(g).is_sequential()
        })
        .map(|g| netlist.gate_name(g).to_string())
        .collect();
    let mut shadow = netlist.clone();
    let mut values = vec![false; inputs.len()];
    let mut steps = Vec::new();
    for i in 1..=CYCLES {
        let mut changes = Vec::new();
        for (name, value) in inputs.iter().zip(values.iter_mut()) {
            if rng.chance(TOGGLE) {
                *value = !*value;
                changes.push((name.clone(), *value));
            }
        }
        steps.push(Step::Cycle(changes));
        if i % SLACK_EVERY == 0 {
            steps.push(Step::Slack);
        }
        if i % RETYPE_EVERY == RETYPE_EVERY / 2 {
            let gate = &two_input[rng.index(two_input.len())];
            let g = shadow.find_gate(gate).expect("listed above");
            let cell = match shadow.gate_kind(g) {
                CellKind::Nand2 => CellKind::Nor2,
                _ => CellKind::Nand2,
            };
            shadow.retype_gate(g, cell).expect("same pin count");
            steps.push(Step::Retype(gate.clone(), cell));
        }
    }
    Plan { netlist, steps }
}

/// Check (d) on one `cycle` answer against the zero-delay model.
fn check_cycle(answer: &JsonValue, expected: &[bool], names: &[String]) -> Result<(), String> {
    let registers = answer
        .get("registers")
        .ok_or("cycle answer has no registers")?;
    for (name, &want) in names.iter().zip(expected) {
        let got = registers.get(name).and_then(JsonValue::as_bool);
        if got != Some(want) {
            return Err(format!(
                "cycle {}: register `{name}` holds {got:?}, zero-delay simulation gives {want}",
                number(answer, "cycle").unwrap_or(-1.0)
            ));
        }
    }
    Ok(())
}

#[derive(Default)]
struct Traced {
    cycle_ms: Vec<f64>,
    solved: Vec<f64>,
    skipped: Vec<f64>,
    slack_ms: Vec<f64>,
    retype_us: Vec<f64>,
}

/// One session over the plan; returns the client for the memo statistics.
fn session(ctx: &Ctx, plan: &Plan, run: &mut Run, mut traced: Option<&mut Traced>) -> Client {
    let mut client = Client::new(&ctx.library);
    let params = format!(
        r#"{{"netlist":{},"window":{WINDOW:e},"dt":{DT:e}}}"#,
        plan.netlist.to_json_string()
    );
    run.op(client.call("load_netlist", &params));
    run.op(client.call(
        "load_clock",
        &format!(r#"{{"clock":"clk","period":{PERIOD:e}}}"#),
    ));

    let mut netlist = plan.netlist.clone();
    let clock = netlist.find_net("clk").expect("pipelines have a clock");
    let mut model = ZeroDelayPipeline::new(&netlist, clock);
    let names: Vec<String> = netlist
        .gate_refs()
        .filter(|&g| netlist.gate_kind(g).is_sequential())
        .map(|g| netlist.gate_name(g).to_string())
        .collect();
    let mut request_s = 0.0;
    let mut cycles = 0;
    for step in &plan.steps {
        match step {
            Step::Cycle(changes) => {
                let inputs: Vec<String> = changes
                    .iter()
                    .map(|(n, v)| format!(r#""{n}":{v}"#))
                    .collect();
                let params = format!(r#"{{"inputs":{{{}}},"count":1}}"#, inputs.join(","));
                let (answer, seconds) = client.send("cycle", &params);
                request_s += seconds;
                cycles += 1;
                if cycles > WARMUP_CYCLES {
                    run.latencies_ms.push(seconds * 1e3);
                }
                let Some(answer) = run.op(result_of("cycle", &answer)) else {
                    continue;
                };
                let changes: Vec<_> = changes
                    .iter()
                    .filter_map(|(n, v)| netlist.find_net(n).ok().map(|net| (net, *v)))
                    .collect();
                let expected = model.cycle(&netlist, &changes).map(<[bool]>::to_vec);
                run.op(expected.and_then(|e| check_cycle(&answer, &e, &names)));
                for key in ["registers", "voltages_v"] {
                    run.digest.text(
                        &answer
                            .get(key)
                            .map(JsonValue::to_string_compact)
                            .unwrap_or_default(),
                    );
                }
                if let Some(t) = traced.as_deref_mut() {
                    t.cycle_ms.push(seconds * 1e3);
                    let stats = answer.get("stats");
                    let field = |k: &str| stats.and_then(|s| number(s, k)).unwrap_or(0.0);
                    t.solved.push(field("gates_simulated"));
                    t.skipped.push(field("gates_skipped"));
                }
            }
            Step::Slack => {
                let (answer, seconds) = client.send("slack", "{}");
                request_s += seconds;
                if let Some(t) = traced.as_deref_mut() {
                    t.slack_ms.push(seconds * 1e3);
                }
                let slacks = result_of("slack", &answer).and_then(|a| check_slack(&a, PERIOD, 0.0));
                if let Some(slacks) = run.op(slacks) {
                    for slack in slacks {
                        run.digest.f64(Some(slack));
                    }
                }
            }
            Step::Retype(gate, cell) => {
                let params = format!(
                    r#"{{"op":"retype_gate","gate":"{gate}","cell":"{}"}}"#,
                    cell.name()
                );
                let (answer, seconds) = client.send("eco", &params);
                request_s += seconds;
                if let Some(t) = traced.as_deref_mut() {
                    t.retype_us.push(seconds * 1e6);
                }
                if let Some(answer) = run.op(result_of("eco", &answer)) {
                    run.digest.text(&content(&answer));
                }
                let retyped = netlist
                    .find_gate(gate)
                    .map_err(|e| e.to_string())
                    .and_then(|g| netlist.retype_gate(g, *cell).map_err(|e| e.to_string()))
                    .and_then(|()| model.replay_last(&netlist));
                run.op(retyped);
            }
        }
    }
    run.work_units += CYCLES as f64;
    run.work_seconds += request_s;
    client
}

pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let plan = plan(ctx.seed);
    if ctx.trace {
        let _span = mcsm_obs::span("bench.workload");
        layers::time_netlist_ir(run, &[&plan.netlist])?;
        let counters = layers::Counters::now();
        let mut traced = Traced::default();
        let mut client = session(ctx, &plan, run, Some(&mut traced));
        counters.report_netsim(run);
        counters.report_core(run);
        if let Ok(stats) = client.call("stats", "{}") {
            layers::report_memo(&stats, run);
        }
        run.layer("seq.cycle_ms", quantile(&traced.cycle_ms, 0.5));
        run.layer("seq.gates_solved", mean(&traced.solved));
        run.layer("seq.gates_skipped", mean(&traced.skipped));
        run.layer("seq.slack_ms", quantile(&traced.slack_ms, 0.5));
        run.layer("server.edit_us", quantile(&traced.retype_us, 0.5));
        return Ok(());
    }

    repeat_rounds(run, ctx.seconds, |run| {
        run.digest = Digest::default();
        drop(session(ctx, &plan, run, None));
        run.digest
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seeded_and_hold_the_fixed_work() {
        let a = plan(5);
        let b = plan(6);
        assert_eq!(a.netlist.to_json_string(), b.netlist.to_json_string());
        let vectors = |p: &Plan| {
            p.steps
                .iter()
                .filter_map(|s| match s {
                    Step::Cycle(changes) => Some(format!("{changes:?}")),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(vectors(&a), vectors(&plan(5)));
        assert_ne!(vectors(&a), vectors(&b));
        let cycles = a
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Cycle(_)))
            .count();
        let slacks = a.steps.iter().filter(|s| matches!(s, Step::Slack)).count();
        let retypes = a
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Retype(..)))
            .count();
        assert_eq!(cycles, CYCLES);
        assert_eq!(slacks, CYCLES / SLACK_EVERY);
        assert_eq!(retypes, CYCLES / RETYPE_EVERY);
    }
}
