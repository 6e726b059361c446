//! The `server` experiment: query throughput and cache warmth of the
//! `mcsm-serve` session engine over generated circuits.
//!
//! For each circuit of the shared generator sweep (NAND chains, balanced NOR
//! trees, random leveled DAGs) the experiment drives a resident
//! [`mcsm_serve::Engine`] through the JSON-RPC protocol itself —
//! every measured operation is a real request line:
//!
//! * **cold** — the first full evaluation on a fresh session, every gate
//!   solve paying the numerical engine;
//! * **warm** — a forced full re-evaluation on the same session, answered
//!   entirely from the waveform memo (`waveform_misses == 0`);
//! * **queries** — a burst of `arrival` requests against the committed
//!   result, reported as queries per second.
//!
//! The warm-over-cold wall-clock ratio is the memoization payoff the CI gate
//! checks (`--min-warm-ratio`), and the warm waveforms are checked
//! bit-identical to the cold ones. Honors `MCSM_BENCH_FAST=1`.
//!
//! The sweep ends with a **fault drill**: the smallest circuit re-runs on an
//! engine armed with request panics and gate faults (`mcsm_num::fault`), and
//! the report records that the session kept answering (`recovered` errors),
//! logged gate recoveries, and settled to bits identical to a clean session
//! — the robustness contract the hardened server ships with.

use crate::netsim::sweep_netlists;
use crate::report::fast_or;
use mcsm_cells::cell::CellKind;
use mcsm_cells::tech::Technology;
use mcsm_core::config::CharacterizationConfig;
use mcsm_net::Netlist;
use mcsm_num::fault::{site, FaultPlan};
use mcsm_num::json::JsonValue;
use mcsm_num::par;
use mcsm_serve::{Engine, Session, SessionConfig};
use mcsm_sta::models::ModelLibrary;
use mcsm_sta::StaError;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one server-experiment run.
#[derive(Debug, Clone)]
pub struct ServerSweepOptions {
    /// Worker threads of the resident session (`0` = auto).
    pub threads: usize,
    /// Gate budgets, one sweep point per entry (shared with the netsim sweep
    /// so both experiments time the *same* circuits).
    pub sizes: Vec<usize>,
    /// Characterization grids for the model library.
    pub config: CharacterizationConfig,
    /// Engine time step (seconds).
    pub dt: f64,
    /// Arrival requests per throughput burst.
    pub queries: usize,
}

impl ServerSweepOptions {
    /// The default sweep for a thread count; `MCSM_BENCH_FAST=1` shrinks the
    /// sizes and coarsens grids/steps so the smoke run finishes in seconds.
    pub fn for_threads(threads: usize) -> Self {
        ServerSweepOptions {
            threads,
            sizes: fast_or(vec![10, 24], vec![16, 64]),
            config: fast_or(
                CharacterizationConfig::coarse(),
                CharacterizationConfig::standard(),
            ),
            dt: fast_or(4e-12, 2e-12),
            queries: fast_or(50, 200),
        }
    }
}

/// One timed circuit of the sweep.
#[derive(Debug, Clone)]
pub struct ServerCase {
    /// Generator family (`chain`, `tree` or `dag`).
    pub topology: String,
    /// Name of the generated circuit.
    pub circuit: String,
    /// Gate count of the circuit.
    pub gates: usize,
    /// Wall-clock seconds of the first (cache-cold) full evaluation.
    pub cold_seconds: f64,
    /// Wall-clock seconds of a forced full re-evaluation on the warm session.
    pub warm_seconds: f64,
    /// Waveform-memo misses of the warm run (must be zero).
    pub warm_misses: usize,
    /// Arrival requests in the throughput burst.
    pub queries: usize,
    /// Wall-clock seconds of the whole burst.
    pub query_seconds: f64,
    /// Whether the warm waveforms equal the cold ones bit-for-bit.
    pub bit_identical: bool,
}

impl ServerCase {
    /// Cold-over-warm wall-clock ratio — the waveform-memo payoff.
    pub fn warm_ratio(&self) -> f64 {
        self.cold_seconds / self.warm_seconds.max(1e-12)
    }

    /// Arrival-query throughput against the committed result.
    pub fn queries_per_second(&self) -> f64 {
        self.queries as f64 / self.query_seconds.max(1e-12)
    }
}

/// Outcome of the chaos sanity drill run after the timed sweep.
#[derive(Debug, Clone)]
pub struct FaultDrill {
    /// Circuit the drill ran on (the smallest sweep circuit).
    pub circuit: String,
    /// Requests answered `-32000` with `recovered: true` (handler panics the
    /// engine survived).
    pub recovered_requests: usize,
    /// Per-gate degraded-mode recoveries logged by the final full run.
    pub gate_recoveries: usize,
    /// Whether the post-recovery output waveforms equal a clean session's
    /// bit-for-bit.
    pub bit_identical: bool,
}

/// The full experiment result, written to `BENCH_server.json`.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Worker threads the resident session ran with (resolved, so never 0).
    pub threads: usize,
    /// All timed cases, in topology-then-size order.
    pub cases: Vec<ServerCase>,
    /// The chaos sanity drill on the smallest circuit.
    pub fault_drill: FaultDrill,
}

impl ServerReport {
    /// Whether every warm-vs-cold waveform check passed.
    pub fn all_identical(&self) -> bool {
        self.cases.iter().all(|case| case.bit_identical)
    }

    /// Aggregate cold-over-warm ratio across the sweep — the metric the CI
    /// perf gate checks.
    pub fn overall_warm_ratio(&self) -> f64 {
        let (cold, warm) = self.cases.iter().fold((0.0, 0.0), |(c, w), case| {
            (c + case.cold_seconds, w + case.warm_seconds)
        });
        cold / warm.max(1e-12)
    }

    /// The machine-readable report.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("experiment".into(), JsonValue::String("server".into())),
            (
                "fast_mode".into(),
                JsonValue::Bool(crate::report::fast_mode()),
            ),
            ("threads".into(), JsonValue::Number(self.threads as f64)),
            (
                "overall_warm_ratio".into(),
                JsonValue::Number(self.overall_warm_ratio()),
            ),
            (
                "cases".into(),
                JsonValue::Array(
                    self.cases
                        .iter()
                        .map(|case| {
                            JsonValue::Object(vec![
                                ("topology".into(), JsonValue::String(case.topology.clone())),
                                ("circuit".into(), JsonValue::String(case.circuit.clone())),
                                ("gates".into(), JsonValue::Number(case.gates as f64)),
                                ("cold_seconds".into(), JsonValue::Number(case.cold_seconds)),
                                ("warm_seconds".into(), JsonValue::Number(case.warm_seconds)),
                                (
                                    "warm_misses".into(),
                                    JsonValue::Number(case.warm_misses as f64),
                                ),
                                ("warm_ratio".into(), JsonValue::Number(case.warm_ratio())),
                                ("queries".into(), JsonValue::Number(case.queries as f64)),
                                (
                                    "query_seconds".into(),
                                    JsonValue::Number(case.query_seconds),
                                ),
                                (
                                    "queries_per_second".into(),
                                    JsonValue::Number(case.queries_per_second()),
                                ),
                                ("bit_identical".into(), JsonValue::Bool(case.bit_identical)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "fault_drill".into(),
                JsonValue::Object(vec![
                    (
                        "circuit".into(),
                        JsonValue::String(self.fault_drill.circuit.clone()),
                    ),
                    (
                        "recovered_requests".into(),
                        JsonValue::Number(self.fault_drill.recovered_requests as f64),
                    ),
                    (
                        "gate_recoveries".into(),
                        JsonValue::Number(self.fault_drill.gate_recoveries as f64),
                    ),
                    (
                        "bit_identical".into(),
                        JsonValue::Bool(self.fault_drill.bit_identical),
                    ),
                ]),
            ),
        ])
    }
}

/// A response's `result` object, panicking with the error message otherwise —
/// in a benchmark any protocol error is a bug worth stopping on.
fn expect_result(response: &str) -> JsonValue {
    let doc = JsonValue::parse(response).expect("response is JSON");
    match doc.get("result") {
        Some(result) => result.clone(),
        None => panic!("request failed: {response}"),
    }
}

/// The setup request lines for one circuit: load the netlist inline (with a
/// depth-scaled window) and put staggered falling ramps on every input.
fn setup_lines(netlist: &Netlist, dt: f64) -> Vec<String> {
    let levels = netlist.levels().level_count();
    let window = 2e-9 + 0.4e-9 * levels as f64;
    let load = JsonValue::Object(vec![
        ("netlist".into(), netlist.to_json_value()),
        ("window".into(), JsonValue::Number(window)),
        ("dt".into(), JsonValue::Number(dt)),
    ]);
    let mut lines = vec![format!(
        r#"{{"id": 0, "method": "load_netlist", "params": {}}}"#,
        load.to_string_compact()
    )];
    for (i, &pi) in netlist.primary_inputs().iter().enumerate() {
        let skew = 20e-12 * (i % 5) as f64;
        lines.push(format!(
            r#"{{"id": 0, "method": "set_drive", "params": {{"net": "{}", "drive": {{"kind": "fall", "t_start": {}, "transition": 8e-11}}}}}}"#,
            netlist.net_name(pi),
            1e-9 + skew
        ));
    }
    lines
}

fn waveform_samples(engine: &Engine, net: &str) -> (JsonValue, JsonValue) {
    let result = expect_result(&engine.handle_line(&format!(
        r#"{{"id": 0, "method": "waveform", "params": {{"net": "{net}"}}}}"#
    )));
    (
        result.get("times_s").expect("samples").clone(),
        result.get("values_v").expect("samples").clone(),
    )
}

/// Runs the experiment: characterize once, then time every circuit through
/// the protocol.
///
/// # Errors
///
/// Propagates characterization failures.
pub fn run_server_sweep(options: &ServerSweepOptions) -> Result<ServerReport, StaError> {
    let threads = par::resolve_threads(options.threads);
    let library = ModelLibrary::characterize_parallel(
        &Technology::cmos_130nm(),
        &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
        &options.config,
        threads,
    )?;

    let netlists = sweep_netlists(&options.sizes);
    let mut cases = Vec::new();
    for (topology, netlist) in &netlists {
        cases.push(time_case(topology, netlist, &library, threads, options));
    }
    let smallest = netlists
        .iter()
        .min_by_key(|(_, netlist)| netlist.gate_count())
        .map(|(_, netlist)| netlist)
        .expect("sweep has at least one circuit");
    let fault_drill = run_fault_drill(smallest, &library, threads, options);
    Ok(ServerReport {
        threads,
        cases,
        fault_drill,
    })
}

/// Chaos sanity on the smallest sweep circuit: with request panics and gate
/// faults armed (seeded, 30 % per site), the engine must keep answering —
/// failed requests come back `-32000`/`recovered` and a resilient client
/// retries — and the settled session must match a clean one bit-for-bit.
fn run_fault_drill(
    netlist: &Netlist,
    library: &ModelLibrary,
    threads: usize,
    options: &ServerSweepOptions,
) -> FaultDrill {
    let plan = Arc::new(FaultPlan::new(42, 0.3).with_sites([
        site::SERVER_REQUEST_PANIC,
        site::NETSIM_GATE_PANIC,
        site::NETSIM_GATE_DIVERGE,
    ]));
    let engine = |fault: Option<Arc<FaultPlan>>| {
        let config = SessionConfig {
            threads,
            ..SessionConfig::default()
        };
        Engine::new(Session::new(library.clone(), config).with_fault(fault))
    };
    let faulted = engine(Some(Arc::clone(&plan)));
    let clean = engine(None);
    let mut recovered_requests = 0usize;
    let mut send_resilient = |target: &Engine, line: &str| -> JsonValue {
        for _ in 0..100 {
            let doc = JsonValue::parse(&target.handle_line(line)).expect("response is JSON");
            if let Some(result) = doc.get("result") {
                return result.clone();
            }
            recovered_requests += 1;
        }
        panic!("fault drill: request never succeeded: {line}");
    };
    for line in setup_lines(netlist, options.dt) {
        send_resilient(&faulted, &line);
        send_resilient(&clean, &line);
    }
    let full_resim = r#"{"id": 0, "method": "resim", "params": {"full": true}}"#;
    let run = send_resilient(&faulted, full_resim);
    send_resilient(&clean, full_resim);
    let gate_recoveries = run
        .get("stats")
        .and_then(|stats| stats.get("recoveries"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0) as usize;
    let mut bit_identical = true;
    for &po in netlist.primary_outputs() {
        let query = format!(
            r#"{{"id": 0, "method": "waveform", "params": {{"net": "{}"}}}}"#,
            netlist.net_name(po)
        );
        let a = send_resilient(&faulted, &query);
        let b = send_resilient(&clean, &query);
        bit_identical &=
            a.get("times_s") == b.get("times_s") && a.get("values_v") == b.get("values_v");
    }
    FaultDrill {
        circuit: netlist.name().to_string(),
        recovered_requests,
        gate_recoveries,
        bit_identical,
    }
}

fn time_case(
    topology: &str,
    netlist: &Netlist,
    library: &ModelLibrary,
    threads: usize,
    options: &ServerSweepOptions,
) -> ServerCase {
    let config = SessionConfig {
        threads,
        ..SessionConfig::default()
    };
    let engine = Engine::new(Session::new(library.clone(), config));
    for line in setup_lines(netlist, options.dt) {
        expect_result(&engine.handle_line(&line));
    }
    let outputs: Vec<String> = netlist
        .primary_outputs()
        .iter()
        .map(|&po| netlist.net_name(po).to_string())
        .collect();
    let full_resim = r#"{"id": 0, "method": "resim", "params": {"full": true}}"#;

    // Cold: the first evaluation on this session pays every gate solve.
    let start = Instant::now();
    expect_result(&engine.handle_line(full_resim));
    let cold_seconds = start.elapsed().as_secs_f64();
    let cold_samples: Vec<_> = outputs
        .iter()
        .map(|net| waveform_samples(&engine, net))
        .collect();

    // Warm: a forced full re-evaluation answered from the waveform memo.
    let start = Instant::now();
    let warm = expect_result(&engine.handle_line(full_resim));
    let warm_seconds = start.elapsed().as_secs_f64();
    let warm_misses = warm
        .get("stats")
        .and_then(|s| s.get("waveform_misses"))
        .and_then(|v| v.as_f64())
        .expect("resim reports stats") as usize;
    let warm_samples: Vec<_> = outputs
        .iter()
        .map(|net| waveform_samples(&engine, net))
        .collect();

    // Throughput: a burst of arrival queries against the committed result.
    let start = Instant::now();
    for i in 0..options.queries {
        let net = &outputs[i % outputs.len()];
        expect_result(&engine.handle_line(&format!(
            r#"{{"id": 0, "method": "arrival", "params": {{"net": "{net}"}}}}"#
        )));
    }
    let query_seconds = start.elapsed().as_secs_f64();

    ServerCase {
        topology: topology.to_string(),
        circuit: netlist.name().to_string(),
        gates: netlist.gate_count(),
        cold_seconds,
        warm_seconds,
        warm_misses,
        queries: options.queries,
        query_seconds,
        bit_identical: cold_samples == warm_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_and_aggregates() {
        let case = |cold: f64, warm: f64| ServerCase {
            topology: "chain".into(),
            circuit: "nand_chain_8".into(),
            gates: 8,
            cold_seconds: cold,
            warm_seconds: warm,
            warm_misses: 0,
            queries: 10,
            query_seconds: 0.5,
            bit_identical: true,
        };
        let report = ServerReport {
            threads: 2,
            cases: vec![case(4.0, 1.0), case(2.0, 1.0)],
            fault_drill: FaultDrill {
                circuit: "nand_chain_8".into(),
                recovered_requests: 3,
                gate_recoveries: 2,
                bit_identical: true,
            },
        };
        assert!(report.all_identical());
        assert!((report.overall_warm_ratio() - 3.0).abs() < 1e-12);
        assert!((report.cases[0].warm_ratio() - 4.0).abs() < 1e-12);
        assert!((report.cases[0].queries_per_second() - 20.0).abs() < 1e-9);
        let json = report.to_json();
        assert_eq!(
            json.require("overall_warm_ratio").unwrap().as_f64(),
            Some(3.0)
        );
        let reparsed = JsonValue::parse(&json.to_string_pretty()).unwrap();
        assert_eq!(reparsed, json);
    }

    #[test]
    fn tiny_server_sweep_runs_end_to_end() {
        let options = ServerSweepOptions {
            threads: 2,
            sizes: vec![4],
            config: CharacterizationConfig::coarse(),
            dt: 8e-12,
            queries: 4,
        };
        let report = run_server_sweep(&options).unwrap();
        assert_eq!(report.cases.len(), 3, "chain, tree, dag");
        assert!(report.all_identical());
        assert!(
            report.fault_drill.bit_identical,
            "fault drill settled on clean bits"
        );
        for case in &report.cases {
            assert!(case.gates > 0);
            assert!(case.cold_seconds > 0.0 && case.warm_seconds > 0.0);
            assert_eq!(
                case.warm_misses, 0,
                "{}: warm run hit the engine",
                case.circuit
            );
            assert!(case.queries_per_second() > 0.0);
        }
    }
}
