//! The resident query session: one characterized library, one netlist, one
//! committed simulation result, and the request handlers that keep them
//! consistent.
//!
//! The session is the single-writer core of the server: every request mutates
//! or reads it under one lock (see [`crate::server::Engine`]), and each
//! request is stamped with a monotonically increasing `seq` *under that
//! lock*. That makes any concurrent client interleaving equivalent to the
//! serial replay of the same requests in `seq` order — the property the
//! concurrent stress test pins bit-for-bit.
//!
//! Evaluation is lazy and incremental: edits ([`set_drive`](Session), `eco`)
//! only record which gates they invalidated; the next query needing waveforms
//! re-solves the downstream [cone of influence](mcsm_netsim::cone_of_influence)
//! of those seeds and reuses every committed waveform outside it. Warm
//! repeats additionally hit the whole-gate-solve
//! [`mcsm_sta::WaveformCache`], skipping the numerical engine
//! entirely.

use crate::error::ServeError;
use mcsm_cells::cell::CellKind;
use mcsm_core::selective::SelectivePolicy;
use mcsm_core::sim::{CsmSimOptions, DriveWaveform};
use mcsm_net::{
    balanced_tree, c17, inverter_chain, nand_chain, pipelined_dag, s27, NetRef, Netlist,
};
use mcsm_netsim::{
    resimulate_netlist, seeds_for_drive_change, seeds_for_gate_edit, seeds_for_load_change,
    simulate_netlist_cached, NetsimOptions, NetsimResult, NetsimStats, Observe, SimCaches,
    DEFAULT_EVENT_THRESHOLD,
};
use mcsm_num::fault::{site, Deadline, FaultPlan};
use mcsm_num::json::JsonValue;
use mcsm_seq::{
    analyze_sequential, initial_seq_state, resimulate_cycle, step_cycle, CycleInputs, CycleOutcome,
    PinDelayMemo, SeqNetlist, SeqOptions, SeqState, SeqTimingOptions,
};
use mcsm_sta::delaycalc::{DelayBackend, DelayCache, DelayCalculator, WaveformCache};
use mcsm_sta::models::ModelLibrary;
use mcsm_sta::slack::{ClockSpec, EndpointKind};
use std::collections::HashMap;
use std::sync::Arc;

/// Evaluation defaults of a session; individual fields can be overridden per
/// `load_netlist` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Model backend for every gate solve.
    pub backend: DelayBackend,
    /// Simulation window (seconds).
    pub window: f64,
    /// Engine time step (seconds).
    pub dt: f64,
    /// Worker threads for level-parallel gate solves (`0` = auto, `1` =
    /// sequential; results are bit-identical for every value).
    pub threads: usize,
    /// External load on every primary output (farads).
    pub primary_output_load: f64,
    /// Event threshold (volts) of the netlist simulator.
    pub event_threshold: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            backend: DelayBackend::CompleteMcsm,
            window: 4e-9,
            dt: 2e-12,
            threads: 1,
            primary_output_load: 2e-15,
            event_threshold: DEFAULT_EVENT_THRESHOLD,
        }
    }
}

impl SessionConfig {
    fn netsim_options(&self, vdd: f64) -> NetsimOptions {
        let calculator =
            DelayCalculator::new(self.backend, CsmSimOptions::new(self.window, self.dt), vdd);
        NetsimOptions::new(calculator, self.primary_output_load)
            .with_threads(self.threads)
            .with_event_threshold(self.event_threshold)
    }

    fn backend_name(&self) -> &'static str {
        match self.backend {
            DelayBackend::SisOnly => "sis",
            DelayBackend::BaselineMis => "baseline-mis",
            DelayBackend::CompleteMcsm => "complete-mcsm",
            DelayBackend::Selective(_) => "selective",
        }
    }
}

/// What must be re-evaluated before the next waveform-bearing query.
#[derive(Debug, Clone, PartialEq)]
enum Dirty {
    /// No committed result, or an edit (backend swap, fresh load) invalidated
    /// everything: run the full simulator.
    Full,
    /// Edits invalidated these seed gates; re-solve their downstream cone and
    /// reuse the rest of the committed result.
    Seeds(Vec<mcsm_net::GateRef>),
    /// The committed result matches the netlist, drives and config.
    Clean,
}

/// The resident sequential context of a clocked session: the partitioned
/// netlist, the clock, and the carried register state, plus the last
/// committed cycle for epoch-local incremental ECO re-simulation and the
/// pin-delay memo that `slack` signoffs share.
#[derive(Debug)]
struct SeqResident {
    seq: SeqNetlist,
    clock: ClockSpec,
    pi_slew: f64,
    state: SeqState,
    last: Option<CycleOutcome>,
    /// Pin delays of earlier signoffs: a `slack` after the first solves only
    /// the pin shapes no earlier signoff met. Edits need no bookkeeping —
    /// the memo's values are pure functions of their keys, it empties itself
    /// on a backend or window change, and it keeps only the shapes the last
    /// signoff used.
    memo: PinDelayMemo,
}

/// The resident circuit: netlist, drives, committed result, dirt tracking.
#[derive(Debug)]
struct Circuit {
    netlist: Netlist,
    drives: HashMap<NetRef, DriveWaveform>,
    result: Option<NetsimResult>,
    dirty: Dirty,
    /// Streaming observation points (`load_netlist`'s `observe` list), or
    /// `None` for full retention on every net.
    observe: Option<Vec<NetRef>>,
    /// Handoff-thinning bound (volts); `0.0` disables.
    thin_eps: f64,
    /// Clocked sequential context (`load_clock` was called), or `None` for a
    /// purely combinational session.
    sequential: Option<SeqResident>,
}

impl Circuit {
    /// Records that `seeds` must be re-solved. `Full` absorbs everything;
    /// without a committed result only `Full` is possible. Streamed sessions
    /// always re-run in full: a streamed result has released the interior
    /// waveforms incremental reuse depends on.
    fn invalidate(&mut self, seeds: Vec<mcsm_net::GateRef>) {
        if self.observe.is_some() {
            self.dirty = Dirty::Full;
            return;
        }
        match (&mut self.dirty, self.result.is_some()) {
            (Dirty::Full, _) | (_, false) => self.dirty = Dirty::Full,
            (Dirty::Seeds(existing), true) => {
                for seed in seeds {
                    if !existing.contains(&seed) {
                        existing.push(seed);
                    }
                }
            }
            (Dirty::Clean, true) => self.dirty = Dirty::Seeds(seeds),
        }
    }
}

/// How the last evaluation ran, for the `resim` / `stats` responses.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RunMode {
    Full,
    Incremental,
    Noop,
}

impl RunMode {
    fn name(self) -> &'static str {
        match self {
            RunMode::Full => "full",
            RunMode::Incremental => "incremental",
            RunMode::Noop => "noop",
        }
    }
}

/// A resident query session. See the module docs for the model.
#[derive(Debug)]
pub struct Session {
    library: ModelLibrary,
    config: SessionConfig,
    delay: DelayCache,
    waveforms: WaveformCache,
    circuit: Option<Circuit>,
    seq: u64,
    runs: u64,
    last_run: Option<(RunMode, NetsimStats)>,
    /// Fault-injection plan for chaos testing; `None` in production.
    fault: Option<Arc<FaultPlan>>,
    /// The active request's deadline (set from its `deadline_ms` option for
    /// the duration of [`Session::handle`]), threaded into every netsim run
    /// the request triggers.
    deadline: Option<Arc<Deadline>>,
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(value: f64) -> JsonValue {
    JsonValue::Number(value)
}

fn string(value: &str) -> JsonValue {
    JsonValue::String(value.to_string())
}

fn require_str<'p>(params: &'p JsonValue, key: &str) -> Result<&'p str, ServeError> {
    params
        .get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| ServeError::InvalidParams(format!("missing string param `{key}`")))
}

fn require_f64(params: &JsonValue, key: &str) -> Result<f64, ServeError> {
    params
        .get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| ServeError::InvalidParams(format!("missing number param `{key}`")))
}

fn opt_f64(params: &JsonValue, key: &str) -> Option<f64> {
    params.get(key).and_then(|v| v.as_f64())
}

fn seq_options(
    config: &SessionConfig,
    vdd: f64,
    pi_slew: f64,
    initial_state: Option<Vec<bool>>,
) -> SeqOptions {
    let mut options = SeqOptions::new(config.netsim_options(vdd)).with_pi_slew(pi_slew);
    if let Some(state) = initial_state {
        options = options.with_initial_state(state);
    }
    options
}

fn seq_timing(config: &SessionConfig, vdd: f64, pi_slew: f64) -> SeqTimingOptions {
    SeqTimingOptions::new(
        config.netsim_options(vdd).calculator,
        config.primary_output_load,
    )
    .with_pi_slew(pi_slew)
}

fn endpoint_json(e: &mcsm_sta::slack::EndpointSlack) -> JsonValue {
    let optional = |value: Option<f64>| value.map_or(JsonValue::Null, num);
    obj(vec![
        ("endpoint", string(&e.endpoint)),
        (
            "kind",
            string(match e.kind {
                EndpointKind::RegisterD => "register-d",
                EndpointKind::PrimaryOutput => "primary-output",
            }),
        ),
        ("arrival_s", optional(e.arrival)),
        ("slew_s", optional(e.slew)),
        ("required_s", num(e.required)),
        ("setup_s", num(e.setup)),
        ("hold_s", num(e.hold)),
        ("setup_slack_s", optional(e.setup_slack)),
        ("hold_slack_s", optional(e.hold_slack)),
    ])
}

fn stats_json(stats: &NetsimStats) -> JsonValue {
    let mut fields = vec![
        ("gates_simulated", num(stats.gates_simulated as f64)),
        ("gates_skipped", num(stats.gates_skipped as f64)),
        ("gates_reused", num(stats.gates_reused as f64)),
        ("events", num(stats.events as f64)),
        ("cache_hits", num(stats.cache_hits as f64)),
        ("cache_misses", num(stats.cache_misses as f64)),
        ("waveform_hits", num(stats.waveform_hits as f64)),
        ("waveform_misses", num(stats.waveform_misses as f64)),
        ("peak_live_waveforms", num(stats.peak_live_waveforms as f64)),
        ("breakpoints_dropped", num(stats.breakpoints_dropped as f64)),
        ("recoveries", num(stats.recoveries.len() as f64)),
    ];
    if !stats.recoveries.is_empty() {
        fields.push((
            "recovery_log",
            JsonValue::Array(
                stats
                    .recoveries
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("gate", string(&r.gate)),
                            ("net", string(&r.net)),
                            ("resolution", string(r.resolution.label())),
                            ("failure", string(&r.failure)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    obj(fields)
}

impl Session {
    /// Creates a session around a characterized library.
    ///
    /// Arms metric recording unconditionally (one relaxed flag): a server
    /// must always be able to answer its own `metrics` RPC. Span tracing
    /// stays opt-in via `MCSM_TRACE` / `--trace-out`.
    pub fn new(library: ModelLibrary, config: SessionConfig) -> Self {
        mcsm_obs::arm_metrics();
        Session {
            library,
            config,
            delay: DelayCache::new(),
            waveforms: WaveformCache::new(),
            circuit: None,
            seq: 0,
            runs: 0,
            last_run: None,
            fault: None,
            deadline: None,
        }
    }

    /// Arms a fault-injection plan: the request handler and every engine run
    /// it triggers query the plan at their injection sites (chaos testing).
    #[must_use]
    pub fn with_fault(mut self, fault: Option<Arc<FaultPlan>>) -> Self {
        self.fault = fault;
        self
    }

    /// The armed fault plan, if any (queried by the protocol layer's
    /// parse-fault site).
    pub(crate) fn fault(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// Requests handled so far (the last assigned `seq`).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Rolls the session back to its last committed state after a request
    /// handler panicked while holding the session lock.
    ///
    /// The committed anchors — netlist, drives, result, carried register
    /// values — survive a panic (they are only replaced on success); what a
    /// half-finished request can leave behind is *stale bookkeeping*: a dirt
    /// state cleared before its run finished, or a committed cycle outcome
    /// mid-replacement. Recovery forces full re-evaluation on the next
    /// waveform-bearing query and drops the replayable cycle, so every
    /// subsequent answer is recomputed from the committed anchors.
    pub fn recover_after_panic(&mut self) {
        self.deadline = None;
        self.last_run = None;
        if let Some(circuit) = self.circuit.as_mut() {
            circuit.dirty = Dirty::Full;
            if let Some(resident) = circuit.sequential.as_mut() {
                resident.last = None;
            }
        }
    }

    /// Handles one request: assigns the next `seq`, dispatches on `method`,
    /// and stamps the response with the `seq` and this request's cache-counter
    /// deltas. Must be called under the session lock — `seq` order *is* the
    /// serialization order.
    ///
    /// # Errors
    ///
    /// [`ServeError::MethodNotFound`] for unknown methods, and whatever the
    /// handler reports. Failed requests still consume a `seq`.
    pub fn handle(&mut self, method: &str, params: &JsonValue) -> Result<JsonValue, ServeError> {
        self.seq += 1;
        let seq = self.seq;
        // Chaos-testing injection point: the panic fires *under the session
        // lock*, exercising the full poison-recovery path in the transport
        // layer. Keyed by seq so a replay of the same request stream faults
        // the same requests.
        if let Some(plan) = &self.fault {
            if plan.fires(site::SERVER_REQUEST_PANIC, seq) {
                panic!(
                    "injected fault `{}` (seq {seq})",
                    site::SERVER_REQUEST_PANIC
                );
            }
        }
        // Per-request deadline: engine runs triggered by this request poll the
        // token and abandon the sweep when it expires (answered `-32001`).
        self.deadline = opt_f64(params, "deadline_ms").map(Deadline::after_ms);
        let before = (
            self.delay.hits(),
            self.delay.misses(),
            self.waveforms.hits(),
            self.waveforms.misses(),
        );
        let outcome = match method {
            "load_netlist" => self.load_netlist(params),
            "set_drive" => self.set_drive(params),
            "eco" => self.eco(params),
            "arrival" => self.arrival(params),
            "slew" => self.slew(params),
            "waveform" => self.waveform(params),
            "resim" => self.resim(params),
            "load_clock" => self.load_clock(params),
            "cycle" => self.cycle(params),
            "slack" => self.slack(),
            "stats" => self.stats(),
            "metrics" => self.metrics(),
            "trace" => self.trace(params),
            other => Err(ServeError::MethodNotFound(other.to_string())),
        };
        self.deadline = None;
        let mut result = outcome?;
        if let JsonValue::Object(fields) = &mut result {
            fields.push(("seq".to_string(), num(seq as f64)));
            fields.push((
                "cache".to_string(),
                obj(vec![
                    ("delay_hits", num((self.delay.hits() - before.0) as f64)),
                    ("delay_misses", num((self.delay.misses() - before.1) as f64)),
                    (
                        "waveform_hits",
                        num((self.waveforms.hits() - before.2) as f64),
                    ),
                    (
                        "waveform_misses",
                        num((self.waveforms.misses() - before.3) as f64),
                    ),
                ]),
            ));
        }
        Ok(result)
    }

    fn build_builtin(spec: &str) -> Result<Netlist, ServeError> {
        let (name, arg) = match spec.split_once(':') {
            Some((name, arg)) => (name, Some(arg)),
            None => (spec, None),
        };
        let size = |default: usize| -> Result<usize, ServeError> {
            match arg {
                None => Ok(default),
                Some(text) => text.parse().map_err(|_| {
                    ServeError::InvalidParams(format!("bad builtin size in `{spec}`"))
                }),
            }
        };
        match name {
            "c17" => Ok(c17()),
            "s27" => Ok(s27()),
            "nand_chain" => Ok(nand_chain(size(8)?)),
            "inverter_chain" => Ok(inverter_chain(size(8)?)),
            "balanced_tree" => Ok(balanced_tree(size(3)?, CellKind::Nand2)),
            "pipeline" => {
                // `pipeline[:STAGES[:WIDTH[:SEED]]]`, defaults 3:4:7.
                let mut parts = arg.map(|a| a.split(':')).into_iter().flatten();
                let mut field = |name: &str, default: u64| -> Result<u64, ServeError> {
                    match parts.next() {
                        None | Some("") => Ok(default),
                        Some(text) => text.parse().map_err(|_| {
                            ServeError::InvalidParams(format!(
                                "bad pipeline {name} in `{spec}` (expected \
                                 pipeline[:STAGES[:WIDTH[:SEED]]])"
                            ))
                        }),
                    }
                };
                let stages = field("stage count", 3)? as usize;
                let width = field("width", 4)? as usize;
                let seed = field("seed", 7)?;
                Ok(pipelined_dag(stages, width, seed))
            }
            other => Err(ServeError::InvalidParams(format!(
                "unknown builtin `{other}` (expected c17, s27, nand_chain[:N], \
                 inverter_chain[:N], balanced_tree[:D] or \
                 pipeline[:STAGES[:WIDTH[:SEED]]])"
            ))),
        }
    }

    /// `load_netlist {"builtin": "c17"}` or `{"netlist": {...}}`, optional
    /// `"window"` / `"dt"` overrides. Every primary input starts at DC 0 V.
    ///
    /// Streaming: an optional `"observe": ["net", ...]` list keeps full
    /// waveforms only on primary outputs plus the listed nets (bounding
    /// result memory on large netlists; waveform-bearing queries on other
    /// nets are rejected), and `"thin_eps"` (volts) thins fanout handoffs to
    /// an error-bounded piecewise-linear form.
    fn load_netlist(&mut self, params: &JsonValue) -> Result<JsonValue, ServeError> {
        let netlist = match (params.get("builtin"), params.get("netlist")) {
            (Some(builtin), None) => {
                let spec = builtin.as_str().ok_or_else(|| {
                    ServeError::InvalidParams("`builtin` must be a string".into())
                })?;
                Self::build_builtin(spec)?
            }
            (None, Some(doc)) => Netlist::from_json_value(doc)?,
            _ => {
                return Err(ServeError::InvalidParams(
                    "expected exactly one of `builtin` or `netlist`".into(),
                ))
            }
        };
        for gate in netlist.iter_gates() {
            let characterized = if gate.kind.is_sequential() {
                self.library.contains_register(gate.kind)
            } else {
                self.library.contains(gate.kind)
            };
            if !characterized {
                return Err(ServeError::Engine(format!(
                    "cell {} (gate `{}`) is not characterized in this session's library",
                    gate.kind.name(),
                    gate.name
                )));
            }
        }
        if let Some(window) = opt_f64(params, "window") {
            if !window.is_finite() || window <= 0.0 {
                return Err(ServeError::InvalidParams(format!(
                    "`window` must be a finite positive number of seconds, got {window}"
                )));
            }
            self.config.window = window;
        }
        if let Some(dt) = opt_f64(params, "dt") {
            if !dt.is_finite() || dt <= 0.0 {
                return Err(ServeError::InvalidParams(format!(
                    "`dt` must be a finite positive number of seconds, got {dt}"
                )));
            }
            self.config.dt = dt;
        }
        // Bound the per-gate step count so a hostile (or fuzzed) window/dt
        // pair cannot wedge the single-writer session in one giant solve.
        let steps = self.config.window / self.config.dt;
        if !(steps <= 5e6) {
            return Err(ServeError::InvalidParams(format!(
                "window/dt implies {steps:.0} engine steps per gate solve \
                 (limit 5000000); raise `dt` or shrink `window`"
            )));
        }
        let observe = match params.get("observe") {
            None => None,
            Some(spec) => {
                let names = spec.as_array().ok_or_else(|| {
                    ServeError::InvalidParams("`observe` must be an array of net names".into())
                })?;
                let mut points = Vec::with_capacity(names.len());
                for name in names {
                    let name = name.as_str().ok_or_else(|| {
                        ServeError::InvalidParams("`observe` must be an array of net names".into())
                    })?;
                    points.push(netlist.find_net(name)?);
                }
                Some(points)
            }
        };
        let thin_eps = opt_f64(params, "thin_eps").unwrap_or(0.0);
        let drives = netlist
            .primary_inputs()
            .iter()
            .map(|&pi| (pi, DriveWaveform::dc(0.0)))
            .collect();
        let mut response_fields = vec![
            ("name", string(netlist.name())),
            ("gates", num(netlist.gate_count() as f64)),
            ("nets", num(netlist.net_count() as f64)),
            (
                "primary_inputs",
                JsonValue::Array(
                    netlist
                        .primary_inputs()
                        .iter()
                        .map(|&pi| string(netlist.net_name(pi)))
                        .collect(),
                ),
            ),
            (
                "primary_outputs",
                JsonValue::Array(
                    netlist
                        .primary_outputs()
                        .iter()
                        .map(|&po| string(netlist.net_name(po)))
                        .collect(),
                ),
            ),
        ];
        if let Some(points) = &observe {
            response_fields.push(("observe", num(points.len() as f64)));
        }
        let response = obj(response_fields);
        // The previous netlist's solves would only be hit again by a reload
        // of the same gates; drop them so a resident session holds the solves
        // of one netlist at a time. The memo's counters stay cumulative.
        self.waveforms.clear();
        self.circuit = Some(Circuit {
            netlist,
            drives,
            result: None,
            dirty: Dirty::Full,
            observe,
            thin_eps,
            sequential: None,
        });
        Ok(response)
    }

    fn circuit_mut(&mut self) -> Result<&mut Circuit, ServeError> {
        self.circuit
            .as_mut()
            .ok_or_else(|| ServeError::InvalidParams("no netlist loaded".into()))
    }

    fn parse_drive(&self, params: &JsonValue) -> Result<DriveWaveform, ServeError> {
        let vdd = self.library.vdd();
        let spec = params
            .get("drive")
            .ok_or_else(|| ServeError::InvalidParams("missing `drive` object".into()))?;
        let kind = require_str(spec, "kind")?;
        let t_start = opt_f64(spec, "t_start").unwrap_or(1e-9);
        let transition = opt_f64(spec, "transition").unwrap_or(80e-12);
        match kind {
            "rise" => Ok(DriveWaveform::rising_ramp(vdd, t_start, transition)),
            "fall" => Ok(DriveWaveform::falling_ramp(vdd, t_start, transition)),
            "dc" => Ok(DriveWaveform::dc(require_f64(spec, "level")?)),
            other => Err(ServeError::InvalidParams(format!(
                "unknown drive kind `{other}` (expected rise, fall or dc)"
            ))),
        }
    }

    /// `set_drive {"net": "N1", "drive": {"kind": "fall", "t_start": 1e-9,
    /// "transition": 8e-11}}` — replaces a primary input's stimulus and
    /// invalidates the input's fanout gates.
    fn set_drive(&mut self, params: &JsonValue) -> Result<JsonValue, ServeError> {
        let drive = self.parse_drive(params)?;
        let name = require_str(params, "net")?.to_string();
        let circuit = self.circuit_mut()?;
        let net = circuit.netlist.find_net(&name)?;
        if !circuit.netlist.is_primary_input(net) {
            return Err(ServeError::InvalidParams(format!(
                "net `{name}` is not a primary input"
            )));
        }
        circuit.drives.insert(net, drive);
        let seeds = seeds_for_drive_change(&circuit.netlist, net);
        let invalidated = seeds.len();
        circuit.invalidate(seeds);
        Ok(obj(vec![
            ("net", string(&name)),
            ("invalidated_gates", num(invalidated as f64)),
        ]))
    }

    /// `eco {"op": "retype_gate" | "set_net_load" | "swap_backend", ...}` —
    /// validated in-place edits; only the invalidated cone is re-solved on the
    /// next evaluation (`swap_backend` invalidates everything).
    fn eco(&mut self, params: &JsonValue) -> Result<JsonValue, ServeError> {
        let op = require_str(params, "op")?;
        match op {
            "retype_gate" => {
                let gate_name = require_str(params, "gate")?.to_string();
                let cell_name = require_str(params, "cell")?.to_string();
                let kind = CellKind::from_name(&cell_name).ok_or_else(|| {
                    ServeError::InvalidParams(format!("unknown cell `{cell_name}`"))
                })?;
                if !self.library.contains(kind) {
                    return Err(ServeError::Engine(format!(
                        "cell {} is not characterized in this session's library",
                        kind.name()
                    )));
                }
                let circuit = self.circuit_mut()?;
                let gate = circuit.netlist.find_gate(&gate_name)?;
                circuit.netlist.retype_gate(gate, kind)?;
                let seeds = seeds_for_gate_edit(&circuit.netlist, gate);
                let invalidated = seeds.len();
                circuit.invalidate(seeds);
                let clocked = circuit.sequential.is_some();
                let mut fields = vec![
                    ("op", string(op)),
                    ("gate", string(&gate_name)),
                    ("cell", string(kind.name())),
                    ("invalidated_gates", num(invalidated as f64)),
                ];
                if clocked {
                    let mode = self.reseat_sequential(&gate_name)?;
                    fields.push(("sequential", string(mode)));
                }
                Ok(obj(fields))
            }
            "set_net_load" => {
                let net_name = require_str(params, "net")?.to_string();
                let farads = require_f64(params, "farads")?;
                let circuit = self.circuit_mut()?;
                let net = circuit.netlist.find_net(&net_name)?;
                circuit.netlist.set_net_load(net, farads)?;
                let seeds = seeds_for_load_change(&circuit.netlist, net);
                let invalidated = seeds.len();
                circuit.invalidate(seeds);
                if let Some(resident) = circuit.sequential.as_mut() {
                    // Loads change every epoch solve: committed cycles go
                    // stale (the carried Boolean state stays).
                    resident.seq = SeqNetlist::partition(&circuit.netlist)?;
                    resident.last = None;
                }
                Ok(obj(vec![
                    ("op", string(op)),
                    ("net", string(&net_name)),
                    ("farads", num(farads)),
                    ("invalidated_gates", num(invalidated as f64)),
                ]))
            }
            "swap_backend" => {
                let backend = match require_str(params, "backend")? {
                    "sis" => DelayBackend::SisOnly,
                    "baseline-mis" => DelayBackend::BaselineMis,
                    "complete-mcsm" => DelayBackend::CompleteMcsm,
                    "selective" => DelayBackend::Selective(SelectivePolicy::default()),
                    other => {
                        return Err(ServeError::InvalidParams(format!(
                            "unknown backend `{other}` (expected sis, baseline-mis, \
                             complete-mcsm or selective)"
                        )))
                    }
                };
                self.config.backend = backend;
                // Every gate solve depends on the backend: full invalidation.
                // The caches stay — their keys carry the backend, so entries
                // for the previous backend remain valid if it comes back.
                if let Some(circuit) = self.circuit.as_mut() {
                    circuit.dirty = Dirty::Full;
                    if let Some(resident) = circuit.sequential.as_mut() {
                        resident.last = None;
                    }
                }
                Ok(obj(vec![
                    ("op", string(op)),
                    ("backend", string(self.config.backend_name())),
                ]))
            }
            other => Err(ServeError::InvalidParams(format!(
                "unknown eco op `{other}` (expected retype_gate, set_net_load \
                 or swap_backend)"
            ))),
        }
    }

    /// Brings the committed result up to date (full or cone-incremental run,
    /// whichever the dirt tracking calls for) and returns it.
    fn ensure_result(&mut self) -> Result<&NetsimResult, ServeError> {
        let circuit = self
            .circuit
            .as_mut()
            .ok_or_else(|| ServeError::InvalidParams("no netlist loaded".into()))?;
        let mut options = self.config.netsim_options(self.library.vdd());
        if let Some(points) = &circuit.observe {
            options = options.with_observe(Observe::Points(points.clone()));
        }
        options = options
            .with_thin_eps(circuit.thin_eps)
            .with_fault(self.fault.clone())
            .with_deadline(self.deadline.clone());
        let caches = SimCaches {
            delay: &self.delay,
            waveforms: Some(&self.waveforms),
        };
        // Take the dirt, run, and only commit Clean on success: a failed or
        // timed-out run restores the taken dirt so the next request retries
        // the same work instead of silently serving a stale result.
        let dirty = std::mem::replace(&mut circuit.dirty, Dirty::Clean);
        let dirty = match dirty {
            // Seed-dirty with no committed baseline (e.g. a panic rollback
            // dropped the result) cannot run incrementally — promote to full.
            Dirty::Seeds(_) if circuit.result.is_none() => Dirty::Full,
            other => other,
        };
        match dirty {
            Dirty::Clean => {
                self.last_run = Some((RunMode::Noop, NetsimStats::default()));
            }
            Dirty::Full => {
                let run = simulate_netlist_cached(
                    &circuit.netlist,
                    &self.library,
                    &circuit.drives,
                    &options,
                    caches,
                );
                let result = match run {
                    Ok(result) => result,
                    Err(e) => {
                        circuit.dirty = Dirty::Full;
                        return Err(e.into());
                    }
                };
                self.runs += 1;
                self.last_run = Some((RunMode::Full, result.stats()));
                circuit.result = Some(result);
            }
            Dirty::Seeds(seeds) => {
                let Some(previous) = circuit.result.as_ref() else {
                    circuit.dirty = Dirty::Full;
                    return Err(ServeError::Engine(
                        "internal: seed-dirty session lost its committed result".into(),
                    ));
                };
                let run = resimulate_netlist(
                    &circuit.netlist,
                    &self.library,
                    &circuit.drives,
                    &options,
                    caches,
                    previous,
                    &seeds,
                );
                let result = match run {
                    Ok(result) => result,
                    Err(e) => {
                        circuit.dirty = Dirty::Seeds(seeds);
                        return Err(e.into());
                    }
                };
                self.runs += 1;
                self.last_run = Some((RunMode::Incremental, result.stats()));
                circuit.result = Some(result);
            }
        }
        match circuit.result.as_ref() {
            Some(result) => Ok(result),
            None => Err(ServeError::Engine(
                "internal: run committed no result".into(),
            )),
        }
    }

    fn find_result_net(&mut self, params: &JsonValue) -> Result<(String, NetRef), ServeError> {
        let name = require_str(params, "net")?.to_string();
        let circuit = self.circuit_mut()?;
        let net = circuit.netlist.find_net(&name)?;
        Ok((name, net))
    }

    /// Waveform-bearing queries on a streamed session only answer for
    /// observation points; everywhere else the samples were released by
    /// design, so report that instead of a null that looks like "no event".
    fn require_observed(result: &NetsimResult, name: &str, net: NetRef) -> Result<(), ServeError> {
        if result.observed(net) {
            Ok(())
        } else {
            Err(ServeError::InvalidParams(format!(
                "net `{name}` is not an observation point of this streamed \
                 session — its waveform was released; list it in `observe` \
                 when loading the netlist (or load without `observe` to keep \
                 every net)"
            )))
        }
    }

    /// `arrival {"net": "N22"}` — earliest 50 % crossing in either direction;
    /// pass `"rising": true/false` to pin the direction.
    fn arrival(&mut self, params: &JsonValue) -> Result<JsonValue, ServeError> {
        let (name, net) = self.find_result_net(params)?;
        let direction = params.get("rising").and_then(|v| v.as_bool());
        let result = self.ensure_result()?;
        Self::require_observed(result, &name, net)?;
        let (time, rising) = match direction {
            Some(rising) => (result.arrival_time(net, rising), Some(rising)),
            None => match result.arrival_any(net) {
                Some((t, rising)) => (Some(t), Some(rising)),
                None => (None, None),
            },
        };
        Ok(obj(vec![
            ("net", string(&name)),
            ("time_s", time.map_or(JsonValue::Null, num)),
            ("rising", rising.map_or(JsonValue::Null, JsonValue::Bool)),
        ]))
    }

    /// `slew {"net": "N22", "rising": true}` — 10–90 % transition time.
    fn slew(&mut self, params: &JsonValue) -> Result<JsonValue, ServeError> {
        let (name, net) = self.find_result_net(params)?;
        let rising = params
            .get("rising")
            .and_then(|v| v.as_bool())
            .ok_or_else(|| ServeError::InvalidParams("missing bool param `rising`".into()))?;
        let result = self.ensure_result()?;
        Self::require_observed(result, &name, net)?;
        Ok(obj(vec![
            ("net", string(&name)),
            ("rising", JsonValue::Bool(rising)),
            (
                "slew_s",
                result.slew(net, rising).map_or(JsonValue::Null, num),
            ),
        ]))
    }

    /// `waveform {"net": "N22"}` — the committed waveform samples. On a
    /// streamed session (`observe` was given at load), only observation
    /// points have samples; other nets are a descriptive error.
    fn waveform(&mut self, params: &JsonValue) -> Result<JsonValue, ServeError> {
        let (name, net) = self.find_result_net(params)?;
        let result = self.ensure_result()?;
        Self::require_observed(result, &name, net)?;
        let waveform = result.waveform(net).ok_or_else(|| {
            ServeError::Engine(format!(
                "internal: observed net `{name}` has no committed waveform"
            ))
        })?;
        Ok(obj(vec![
            ("net", string(&name)),
            ("samples", num(waveform.len() as f64)),
            ("times_s", JsonValue::from_f64_slice(waveform.times())),
            ("values_v", JsonValue::from_f64_slice(waveform.values())),
        ]))
    }

    /// `resim {}` — brings the result up to date (incremental if possible) and
    /// reports how the run went; `{"full": true}` forces a from-scratch run
    /// (with warm caches, still engine-free on repeats).
    fn resim(&mut self, params: &JsonValue) -> Result<JsonValue, ServeError> {
        if params.get("full").and_then(|v| v.as_bool()) == Some(true) {
            self.circuit_mut()?.dirty = Dirty::Full;
        }
        self.ensure_result()?;
        let (mode, stats) = match &self.last_run {
            Some((mode, stats)) => (*mode, stats),
            None => {
                return Err(ServeError::Engine(
                    "internal: run recorded no statistics".into(),
                ))
            }
        };
        Ok(obj(vec![
            ("mode", string(mode.name())),
            ("stats", stats_json(stats)),
        ]))
    }

    /// `load_clock {"clock": "CK", "period": 2e-9}` — partitions the loaded
    /// netlist at its register boundaries, validates the clock against it,
    /// and resets the carried register state. Optional fields: `"slew"`,
    /// `"insertion"`, `"insertion_overrides": {"R6": 4e-11}`, `"pi_slew"`,
    /// and `"initial_state": [true, ...]` (index-aligned with the reported
    /// register list).
    fn load_clock(&mut self, params: &JsonValue) -> Result<JsonValue, ServeError> {
        let mut clock = ClockSpec::new(
            require_str(params, "clock")?.to_string(),
            require_f64(params, "period")?,
        );
        if let Some(slew) = opt_f64(params, "slew") {
            clock = clock.with_slew(slew);
        }
        if let Some(insertion) = opt_f64(params, "insertion") {
            clock = clock.with_insertion(insertion);
        }
        if let Some(spec) = params.get("insertion_overrides") {
            let JsonValue::Object(members) = spec else {
                return Err(ServeError::InvalidParams(
                    "`insertion_overrides` must be an object of register name -> seconds".into(),
                ));
            };
            for (register, seconds) in members {
                let seconds = seconds.as_f64().ok_or_else(|| {
                    ServeError::InvalidParams(format!(
                        "`insertion_overrides.{register}` must be a number of seconds"
                    ))
                })?;
                clock = clock.with_insertion_override(register.clone(), seconds);
            }
        }
        clock.validate().map_err(ServeError::from)?;
        let pi_slew = opt_f64(params, "pi_slew").unwrap_or(50e-12);
        let initial_state = match params.get("initial_state") {
            None => None,
            Some(spec) => {
                let values = spec.as_array().ok_or_else(|| {
                    ServeError::InvalidParams("`initial_state` must be an array of bools".into())
                })?;
                let mut state = Vec::with_capacity(values.len());
                for value in values {
                    state.push(value.as_bool().ok_or_else(|| {
                        ServeError::InvalidParams(
                            "`initial_state` must be an array of bools".into(),
                        )
                    })?);
                }
                Some(state)
            }
        };

        let Session {
            library,
            config,
            circuit,
            ..
        } = self;
        let circuit = circuit
            .as_mut()
            .ok_or_else(|| ServeError::InvalidParams("no netlist loaded".into()))?;
        let seq = SeqNetlist::partition(&circuit.netlist)?;
        let clock_net = circuit.netlist.net_name(seq.clock_net());
        if clock.clock != clock_net {
            return Err(ServeError::InvalidParams(format!(
                "clock spec names `{}` but the netlist's clock net is `{clock_net}`",
                clock.clock
            )));
        }
        for reg in seq.registers() {
            library.register(reg.kind)?;
        }
        let options = seq_options(config, library.vdd(), pi_slew, initial_state);
        let state = initial_seq_state(&seq, &options)?;
        let response = obj(vec![
            ("clock", string(&clock.clock)),
            ("period_s", num(clock.period)),
            (
                "registers",
                JsonValue::Array(seq.registers().iter().map(|r| string(&r.name)).collect()),
            ),
            (
                "cone_gates",
                num(seq.comb().map_or(0, Netlist::gate_count) as f64),
            ),
        ]);
        circuit.sequential = Some(SeqResident {
            seq,
            clock,
            pi_slew,
            state,
            last: None,
            memo: PinDelayMemo::new(),
        });
        Ok(response)
    }

    /// `cycle {"inputs": {"G0": true}, "count": 4}` — advances the clocked
    /// session by `count` cycles (default 1): the given primary-input values
    /// apply at the first cycle and hold for the rest; register state carries
    /// across cycles and across `cycle` calls.
    fn cycle(&mut self, params: &JsonValue) -> Result<JsonValue, ServeError> {
        let count = match params.get("count") {
            None => 1,
            Some(value) => {
                let n = value.as_f64().unwrap_or(-1.0);
                if n < 1.0 || n.fract() != 0.0 {
                    return Err(ServeError::InvalidParams(
                        "`count` must be a positive integer".into(),
                    ));
                }
                if n > 4096.0 {
                    return Err(ServeError::InvalidParams(format!(
                        "`count` is capped at 4096 cycles per request, got {n:.0}; \
                         split the run across requests (state carries over)"
                    )));
                }
                n as usize
            }
        };
        let Session {
            library,
            config,
            delay,
            waveforms,
            circuit,
            fault,
            deadline,
            ..
        } = self;
        let circuit = circuit
            .as_mut()
            .ok_or_else(|| ServeError::InvalidParams("no netlist loaded".into()))?;
        let mut values = HashMap::new();
        if let Some(spec) = params.get("inputs") {
            let JsonValue::Object(members) = spec else {
                return Err(ServeError::InvalidParams(
                    "`inputs` must be an object of primary-input name -> bool".into(),
                ));
            };
            for (name, value) in members {
                let value = value.as_bool().ok_or_else(|| {
                    ServeError::InvalidParams(format!("`inputs.{name}` must be a bool"))
                })?;
                values.insert(circuit.netlist.find_net(name)?, value);
            }
        }
        let resident = circuit.sequential.as_mut().ok_or_else(|| {
            ServeError::InvalidParams("no clock loaded — call load_clock first".into())
        })?;
        let mut options = seq_options(config, library.vdd(), resident.pi_slew, None);
        options.netsim = options
            .netsim
            .with_fault(fault.clone())
            .with_deadline(deadline.clone());
        let caches = SimCaches {
            delay,
            waveforms: Some(waveforms),
        };
        let first = CycleInputs::from_pairs(values);
        let hold = CycleInputs::hold();
        for i in 0..count {
            // Cooperative cancellation between cycles: completed cycles stay
            // committed in the carried register state, the rest are dropped.
            if let Some(d) = deadline.as_ref() {
                if d.expired() {
                    return Err(ServeError::Timeout(format!(
                        "request budget spent after {i} of {count} cycles; \
                         register state holds the last completed cycle"
                    )));
                }
            }
            let inputs = if i == 0 { &first } else { &hold };
            let outcome = step_cycle(
                &resident.seq,
                library,
                &resident.clock,
                inputs,
                &mut resident.state,
                &options,
                caches,
            )?;
            resident.last = Some(outcome);
        }
        let Some(last) = resident.last.as_ref() else {
            return Err(ServeError::Engine(
                "internal: cycle loop committed no outcome".into(),
            ));
        };
        let registers = resident
            .seq
            .registers()
            .iter()
            .zip(&last.states)
            .map(|(reg, state)| (reg.name.clone(), JsonValue::Bool(state.value)))
            .collect();
        let voltages = resident
            .seq
            .registers()
            .iter()
            .zip(&last.states)
            .map(|(reg, state)| (reg.name.clone(), num(state.voltage)))
            .collect();
        let outputs = circuit
            .netlist
            .primary_outputs()
            .iter()
            .zip(&last.po_values)
            .map(|(&po, &value)| {
                (
                    circuit.netlist.net_name(po).to_string(),
                    JsonValue::Bool(value),
                )
            })
            .collect();
        let mut fields = vec![
            ("cycle", num(resident.state.cycle as f64)),
            ("registers", JsonValue::Object(registers)),
            ("voltages_v", JsonValue::Object(voltages)),
            ("outputs", JsonValue::Object(outputs)),
        ];
        if let Some(epoch) = &last.epoch {
            fields.push(("stats", stats_json(&epoch.stats())));
        }
        Ok(obj(fields))
    }

    /// `slack {}` — sequential signoff timing of the loaded netlist against
    /// the loaded clock: per-endpoint setup/hold slack from characterized
    /// register windows, worst endpoint first. The session's pin-delay memo
    /// makes every signoff after the first solve only new pin shapes; the
    /// answer is the same as a fresh analysis.
    fn slack(&mut self) -> Result<JsonValue, ServeError> {
        let Session {
            library,
            config,
            circuit,
            ..
        } = self;
        let circuit = circuit
            .as_mut()
            .ok_or_else(|| ServeError::InvalidParams("no netlist loaded".into()))?;
        let resident = circuit.sequential.as_mut().ok_or_else(|| {
            ServeError::InvalidParams("no clock loaded — call load_clock first".into())
        })?;
        let timing = seq_timing(config, library.vdd(), resident.pi_slew);
        let report = analyze_sequential(
            &circuit.netlist,
            library,
            &resident.clock,
            &timing,
            &mut resident.memo,
        )?;
        let violations = report.violations().count();
        let worst = report.worst().map_or(JsonValue::Null, |e| {
            obj(vec![
                ("endpoint", string(&e.endpoint)),
                ("setup_slack_s", e.setup_slack.map_or(JsonValue::Null, num)),
            ])
        });
        Ok(obj(vec![
            ("period_s", num(resident.clock.period)),
            ("violations", num(violations as f64)),
            ("worst", worst),
            (
                "endpoints",
                JsonValue::Array(report.endpoints.iter().map(endpoint_json).collect()),
            ),
        ]))
    }

    /// After a `retype_gate` ECO on a clocked session: re-partition (ECO
    /// retypes preserve net and gate identities) and, when the edit landed in
    /// the comb cone of a committed cycle, replay the current epoch
    /// incrementally — only the edited gate's cone of influence re-solves —
    /// and re-sample the captures so the carried register state reflects the
    /// edit.
    fn reseat_sequential(&mut self, edited_gate: &str) -> Result<&'static str, ServeError> {
        let Session {
            library,
            config,
            delay,
            waveforms,
            circuit,
            ..
        } = self;
        let Some(circuit) = circuit.as_mut() else {
            return Err(ServeError::Engine(
                "internal: reseat_sequential called with no netlist loaded".into(),
            ));
        };
        match SeqNetlist::partition(&circuit.netlist) {
            Ok(seq) => match circuit.sequential.as_mut() {
                Some(resident) => resident.seq = seq,
                None => {
                    return Err(ServeError::Engine(
                        "internal: reseat_sequential called with no clock loaded".into(),
                    ))
                }
            },
            Err(e) => {
                // The edit made the netlist un-clockable (e.g. introduced an
                // unsupported latch): drop the sequential context rather than
                // leave a stale partition behind.
                circuit.sequential = None;
                return Err(ServeError::Engine(format!(
                    "ECO left the netlist without a valid clock partition \
                     ({e}); sequential context dropped — call load_clock again"
                )));
            }
        }
        let Some(resident) = circuit.sequential.as_mut() else {
            return Err(ServeError::Engine(
                "internal: sequential context vanished during reseat".into(),
            ));
        };
        let Some(comb) = resident.seq.comb() else {
            resident.last = None;
            return Ok("restructured");
        };
        let Ok(gate) = comb.find_gate(edited_gate) else {
            // The edit hit a register, not the cone: committed epochs are
            // stale (the carried Boolean state stays).
            resident.last = None;
            return Ok("stale");
        };
        let Some(last) = resident.last.as_ref() else {
            return Ok("repartitioned");
        };
        let seeds = seeds_for_gate_edit(comb, gate);
        let options = seq_options(config, library.vdd(), resident.pi_slew, None);
        let caches = SimCaches {
            delay,
            waveforms: Some(waveforms),
        };
        let outcome = resimulate_cycle(
            &resident.seq,
            library,
            &resident.clock,
            last,
            &seeds,
            &options,
            caches,
        )?;
        resident.state.reg_values = outcome.states.iter().map(|s| s.value).collect();
        resident.state.reg_toggled = resident
            .state
            .reg_values
            .iter()
            .zip(&outcome.values_before)
            .map(|(new, old)| new != old)
            .collect();
        resident.last = Some(outcome);
        Ok("resimulated")
    }

    /// `metrics {}` — a name-sorted snapshot of the process-global metric
    /// registry: counters (`server.rpc.*`, `netsim.*`, `core.sim.*`, ...),
    /// gauges, and fixed-shape latency-histogram summaries per RPC method.
    /// The key set is a deterministic function of the request history, so
    /// digit-normalized smoke diffs stay stable across runs and threads.
    fn metrics(&mut self) -> Result<JsonValue, ServeError> {
        Ok(mcsm_obs::global().snapshot().to_json())
    }

    /// `trace {path?}` — dumps every recorded span as a Chrome trace-event
    /// file (Perfetto-loadable). The path defaults to `--trace-out` /
    /// `MCSM_TRACE_OUT`. Fixed response shape whether or not tracing is
    /// armed: `{armed, written, path, spans, dropped}`.
    fn trace(&mut self, params: &JsonValue) -> Result<JsonValue, ServeError> {
        let armed = mcsm_obs::trace_enabled();
        let path = match params.get("path").and_then(|p| p.as_str()) {
            Some(path) => Some(path.to_string()),
            None => mcsm_obs::trace_out_path(),
        };
        let mut written = false;
        let mut spans = 0u64;
        let mut dropped = 0u64;
        if armed {
            if let Some(path) = &path {
                let summary = mcsm_obs::write_trace(path).map_err(|e| {
                    ServeError::Engine(format!("cannot write trace to `{path}`: {e}"))
                })?;
                written = true;
                spans = summary.spans;
                dropped = summary.dropped;
            }
        }
        Ok(obj(vec![
            ("armed", JsonValue::Bool(armed)),
            ("written", JsonValue::Bool(written)),
            (
                "path",
                match &path {
                    Some(path) if written => string(path),
                    _ => JsonValue::Null,
                },
            ),
            ("spans", num(spans as f64)),
            ("dropped", num(dropped as f64)),
        ]))
    }

    /// `stats {}` — session-cumulative cache counters and resident state.
    fn stats(&mut self) -> Result<JsonValue, ServeError> {
        let netlist = match &self.circuit {
            Some(circuit) => {
                let mut fields = vec![
                    ("name", string(circuit.netlist.name())),
                    ("gates", num(circuit.netlist.gate_count() as f64)),
                    ("nets", num(circuit.netlist.net_count() as f64)),
                    (
                        "dirty",
                        string(match circuit.dirty {
                            Dirty::Full => "full",
                            Dirty::Seeds(_) => "seeds",
                            Dirty::Clean => "clean",
                        }),
                    ),
                ];
                if let Some(resident) = &circuit.sequential {
                    fields.push((
                        "sequential",
                        obj(vec![
                            ("clock", string(&resident.clock.clock)),
                            ("period_s", num(resident.clock.period)),
                            ("registers", num(resident.seq.registers().len() as f64)),
                            ("cycles", num(resident.state.cycle as f64)),
                        ]),
                    ));
                }
                obj(fields)
            }
            None => JsonValue::Null,
        };
        let last_run = match &self.last_run {
            Some((mode, stats)) => obj(vec![
                ("mode", string(mode.name())),
                ("stats", stats_json(stats)),
            ]),
            None => JsonValue::Null,
        };
        Ok(obj(vec![
            ("backend", string(self.config.backend_name())),
            ("threads", num(self.config.threads as f64)),
            ("runs", num(self.runs as f64)),
            ("netlist", netlist),
            ("last_run", last_run),
            (
                "delay_cache",
                obj(vec![
                    ("hits", num(self.delay.hits() as f64)),
                    ("misses", num(self.delay.misses() as f64)),
                    ("len", num(self.delay.len() as f64)),
                ]),
            ),
            (
                "waveform_cache",
                obj(vec![
                    ("hits", num(self.waveforms.hits() as f64)),
                    ("misses", num(self.waveforms.misses() as f64)),
                    ("len", num(self.waveforms.len() as f64)),
                ]),
            ),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsm_cells::tech::Technology;
    use mcsm_core::config::CharacterizationConfig;

    fn session() -> Session {
        let library = ModelLibrary::characterize(
            &Technology::cmos_130nm(),
            &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
            &CharacterizationConfig::coarse(),
        )
        .unwrap();
        Session::new(library, SessionConfig::default())
    }

    fn params(text: &str) -> JsonValue {
        JsonValue::parse(text).unwrap()
    }

    #[test]
    fn a_full_query_cycle_on_c17() {
        let mut session = session();
        let loaded = session
            .handle("load_netlist", &params(r#"{"builtin": "c17"}"#))
            .unwrap();
        assert_eq!(loaded.get("gates").unwrap().as_f64(), Some(6.0));
        assert_eq!(loaded.get("seq").unwrap().as_f64(), Some(1.0));

        session
            .handle(
                "set_drive",
                &params(r#"{"net": "N1", "drive": {"kind": "fall"}}"#),
            )
            .unwrap();
        session
            .handle(
                "set_drive",
                &params(r#"{"net": "N3", "drive": {"kind": "dc", "level": 1.2}}"#),
            )
            .unwrap();

        // First waveform-bearing query triggers the (full) evaluation.
        let arrival = session
            .handle("arrival", &params(r#"{"net": "N22"}"#))
            .unwrap();
        assert!(arrival.get("time_s").unwrap().as_f64().unwrap() > 1e-9);
        let resim = session.handle("resim", &params("{}")).unwrap();
        assert_eq!(resim.get("mode").unwrap().as_str(), Some("noop"));

        // Load ECO on a leaf output net: only its driver re-solves.
        session
            .handle(
                "eco",
                &params(r#"{"op": "set_net_load", "net": "N22", "farads": 1e-15}"#),
            )
            .unwrap();
        let resim = session.handle("resim", &params("{}")).unwrap();
        assert_eq!(resim.get("mode").unwrap().as_str(), Some("incremental"));
        let stats = resim.get("stats").unwrap();
        assert_eq!(stats.get("gates_reused").unwrap().as_f64(), Some(5.0));

        let report = session.handle("stats", &params("{}")).unwrap();
        assert_eq!(
            report
                .get("netlist")
                .unwrap()
                .get("dirty")
                .unwrap()
                .as_str(),
            Some("clean")
        );
        assert!(
            report
                .get("waveform_cache")
                .unwrap()
                .get("len")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn errors_carry_jsonrpc_codes_and_still_consume_seq() {
        let mut session = session();
        let err = session.handle("nope", &params("{}")).unwrap_err();
        assert_eq!(err.code(), -32601);
        let err = session
            .handle("arrival", &params(r#"{"net": "N22"}"#))
            .unwrap_err();
        assert_eq!(err.code(), -32602, "no netlist loaded yet: {err}");
        session
            .handle("load_netlist", &params(r#"{"builtin": "c17"}"#))
            .unwrap();
        // Internal nets cannot be driven.
        let err = session
            .handle(
                "set_drive",
                &params(r#"{"net": "N10", "drive": {"kind": "rise"}}"#),
            )
            .unwrap_err();
        assert_eq!(err.code(), -32602);
        // Retyping to a cell with a different pin count is a validated edit.
        let err = session
            .handle(
                "eco",
                &params(r#"{"op": "retype_gate", "gate": "g22", "cell": "INV"}"#),
            )
            .unwrap_err();
        assert_eq!(err.code(), -32000);
        // Sequence advanced on every request, including the failed ones.
        let report = session.handle("stats", &params("{}")).unwrap();
        assert_eq!(report.get("seq").unwrap().as_f64(), Some(6.0));
    }

    #[test]
    fn streamed_sessions_answer_points_and_reject_released_nets() {
        let mut session = session();
        let loaded = session
            .handle(
                "load_netlist",
                &params(r#"{"builtin": "nand_chain:4", "observe": ["n1"], "thin_eps": 0.0}"#),
            )
            .unwrap();
        assert_eq!(loaded.get("observe").unwrap().as_f64(), Some(1.0));
        session
            .handle(
                "set_drive",
                &params(r#"{"net": "in", "drive": {"kind": "rise"}}"#),
            )
            .unwrap();
        // Observation points — the listed net and every primary output —
        // keep their samples.
        let wf = session
            .handle("waveform", &params(r#"{"net": "n1"}"#))
            .unwrap();
        assert!(wf.get("samples").unwrap().as_f64().unwrap() >= 2.0);
        session
            .handle("waveform", &params(r#"{"net": "out"}"#))
            .unwrap();
        // A released interior net is a descriptive error, not a panic or a
        // null that looks like "no event".
        let err = session
            .handle("waveform", &params(r#"{"net": "n0"}"#))
            .unwrap_err();
        assert_eq!(err.code(), -32602);
        assert!(err.to_string().contains("n0"), "{err}");
        assert!(err.to_string().contains("observe"), "{err}");
        let err = session
            .handle("arrival", &params(r#"{"net": "n0"}"#))
            .unwrap_err();
        assert_eq!(err.code(), -32602);
        // Edits on a streamed session force a full re-run: the streamed
        // result released the waveforms incremental reuse needs.
        session
            .handle(
                "eco",
                &params(r#"{"op": "set_net_load", "net": "out", "farads": 1e-15}"#),
            )
            .unwrap();
        let resim = session.handle("resim", &params("{}")).unwrap();
        assert_eq!(resim.get("mode").unwrap().as_str(), Some("full"));
        let stats = resim.get("stats").unwrap();
        assert!(stats.get("peak_live_waveforms").unwrap().as_f64().unwrap() >= 1.0);
        // Unknown observe nets are rejected at load.
        let err = session
            .handle(
                "load_netlist",
                &params(r#"{"builtin": "c17", "observe": ["nope"]}"#),
            )
            .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
    }

    #[test]
    fn builtin_specs_parse_sizes() {
        assert_eq!(Session::build_builtin("c17").unwrap().gate_count(), 6);
        assert_eq!(Session::build_builtin("s27").unwrap().gate_count(), 16);
        assert_eq!(
            Session::build_builtin("nand_chain:5").unwrap().gate_count(),
            5
        );
        // 3 stages x 4 bits, one comb gate and one register per bit per stage.
        assert_eq!(Session::build_builtin("pipeline").unwrap().gate_count(), 24);
        assert_eq!(
            Session::build_builtin("pipeline:2:3:5")
                .unwrap()
                .gate_count(),
            12
        );
        assert!(Session::build_builtin("nand_chain:x").is_err());
        assert!(Session::build_builtin("pipeline:two").is_err());
        assert!(Session::build_builtin("mystery").is_err());
    }

    fn clocked_session() -> Session {
        use mcsm_core::characterize::RegisterCharacterizationConfig;
        let technology = Technology::cmos_130nm();
        let mut library = ModelLibrary::characterize(
            &technology,
            &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
            &CharacterizationConfig::coarse(),
        )
        .unwrap();
        library
            .characterize_registers(
                &technology,
                &[CellKind::Dff],
                &RegisterCharacterizationConfig::coarse(),
            )
            .unwrap();
        Session::new(library, SessionConfig::default())
    }

    #[test]
    fn a_clocked_session_cycles_carries_state_and_reports_slack() {
        let mut session = clocked_session();
        session
            .handle("load_netlist", &params(r#"{"builtin": "s27"}"#))
            .unwrap();
        // Cycling before a clock is loaded is a params error, not a panic.
        let err = session.handle("cycle", &params("{}")).unwrap_err();
        assert_eq!(err.code(), -32602);
        assert!(err.to_string().contains("load_clock"), "{err}");

        let loaded = session
            .handle("load_clock", &params(r#"{"clock": "CK", "period": 2e-9}"#))
            .unwrap();
        let registers = loaded.get("registers").unwrap().as_array().unwrap();
        assert_eq!(registers.len(), 3);
        assert_eq!(registers[0].as_str(), Some("R5"));
        assert_eq!(loaded.get("cone_gates").unwrap().as_f64(), Some(13.0));

        let cycled = session
            .handle(
                "cycle",
                &params(r#"{"inputs": {"G0": true, "G1": true}, "count": 2}"#),
            )
            .unwrap();
        assert_eq!(cycled.get("cycle").unwrap().as_f64(), Some(2.0));
        assert!(cycled.get("registers").unwrap().get("R6").is_some());
        assert!(cycled.get("outputs").unwrap().get("G17").is_some());
        // State carries across `cycle` calls.
        let cycled = session.handle("cycle", &params("{}")).unwrap();
        assert_eq!(cycled.get("cycle").unwrap().as_f64(), Some(3.0));

        let slack = session.handle("slack", &params("{}")).unwrap();
        assert_eq!(slack.get("endpoints").unwrap().as_array().unwrap().len(), 4);
        assert!(slack.get("worst").unwrap().get("endpoint").is_some());
        // A generous 2 ns period leaves no violations on s27.
        assert_eq!(slack.get("violations").unwrap().as_f64(), Some(0.0));

        let stats = session.handle("stats", &params("{}")).unwrap();
        let sequential = stats.get("netlist").unwrap().get("sequential").unwrap();
        assert_eq!(sequential.get("cycles").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn a_retype_eco_resimulates_the_current_epoch_incrementally() {
        let mut session = clocked_session();
        session
            .handle("load_netlist", &params(r#"{"builtin": "s27"}"#))
            .unwrap();
        session
            .handle("load_clock", &params(r#"{"clock": "CK", "period": 2e-9}"#))
            .unwrap();
        session
            .handle("cycle", &params(r#"{"inputs": {"G0": true}}"#))
            .unwrap();
        // Retype a cone gate: the committed epoch replays incrementally
        // (only the edited gate's cone of influence re-solves).
        let eco = session
            .handle(
                "eco",
                &params(r#"{"op": "retype_gate", "gate": "U9", "cell": "NOR2"}"#),
            )
            .unwrap();
        assert_eq!(eco.get("sequential").unwrap().as_str(), Some("resimulated"));
        // The session keeps cycling on the edited netlist.
        let cycled = session.handle("cycle", &params("{}")).unwrap();
        assert_eq!(cycled.get("cycle").unwrap().as_f64(), Some(2.0));
        // Register-aware retype errors name the pin role, not a bare count.
        let err = session
            .handle(
                "eco",
                &params(r#"{"op": "retype_gate", "gate": "R5", "cell": "INV"}"#),
            )
            .unwrap_err();
        assert_eq!(err.code(), -32000);
        assert!(err.to_string().to_lowercase().contains("clock"), "{err}");
    }

    #[test]
    fn a_reload_frees_the_waveform_memo_and_keeps_its_counters() {
        let mut session = session();
        let memo = |session: &mut Session| {
            let stats = session.handle("stats", &params("{}")).unwrap();
            let cache = stats.get("waveform_cache").unwrap().clone();
            let field = |key: &str| cache.get(key).unwrap().as_f64().unwrap();
            (field("len"), field("hits"), field("misses"))
        };
        let c17 = params(r#"{"builtin": "c17"}"#);
        session.handle("load_netlist", &c17).unwrap();
        let fall = params(r#"{"net": "N1", "drive": {"kind": "fall"}}"#);
        session.handle("set_drive", &fall).unwrap();
        session.handle("resim", &params("{}")).unwrap();
        let (entries, hits, misses) = memo(&mut session);
        assert!(entries > 0.0 && misses > 0.0, "the resim filled the memo");
        let reload = session.handle("load_netlist", &c17).unwrap();
        let cache = reload.get("cache").unwrap();
        for key in ["waveform_hits", "waveform_misses"] {
            assert_eq!(cache.get(key).unwrap().as_f64(), Some(0.0), "{key}");
        }
        assert_eq!(memo(&mut session), (0.0, hits, misses));
    }

    #[test]
    fn a_reload_with_a_finer_time_step_solves_afresh() {
        let mut session = session();
        let load_and_read = |session: &mut Session, load: &str| {
            session.handle("load_netlist", &params(load)).unwrap();
            session
                .handle(
                    "set_drive",
                    &params(r#"{"net": "N1", "drive": {"kind": "fall"}}"#),
                )
                .unwrap();
            session
                .handle("waveform", &params(r#"{"net": "N22"}"#))
                .unwrap()
        };
        let samples = |answer: &JsonValue| answer.get("samples").unwrap().as_f64().unwrap();
        let coarse = load_and_read(
            &mut session,
            r#"{"builtin": "c17", "window": 4e-9, "dt": 2e-12}"#,
        );
        assert_eq!(samples(&coarse), 2002.0);
        // Same netlist and drive, half the time step: the waveform memo must
        // not answer the eventful gates from their 2 ps solves.
        let fine = load_and_read(&mut session, r#"{"builtin": "c17", "dt": 1e-12}"#);
        let cache = fine.get("cache").unwrap();
        assert_eq!(cache.get("waveform_hits").unwrap().as_f64(), Some(0.0));
        assert!(cache.get("waveform_misses").unwrap().as_f64().unwrap() > 0.0);
        // ... and the answer is what a session that never saw 2 ps gives.
        let mut fresh = Session::new(session.library.clone(), session.config.clone());
        let expected = load_and_read(&mut fresh, r#"{"builtin": "c17"}"#);
        assert!(samples(&fine) > samples(&coarse));
        for key in ["samples", "times_s", "values_v"] {
            assert_eq!(
                fine.get(key).unwrap().to_string_compact(),
                expected.get(key).unwrap().to_string_compact(),
                "{key}"
            );
        }
    }

    /// Signs off through `session` and checks the answer bit for bit against
    /// a fresh analysis with an empty memo on the session's netlist, and the
    /// resident memo against the shapes that analysis used. Returns the pin
    /// shapes the resident signoff solved and the shapes it used.
    fn signoff_matches_a_fresh_analysis(session: &mut Session) -> (usize, usize) {
        let answer = session.handle("slack", &params("{}")).unwrap();
        let circuit = session.circuit.as_ref().unwrap();
        let resident = circuit.sequential.as_ref().unwrap();
        let timing = seq_timing(&session.config, session.library.vdd(), resident.pi_slew);
        let mut fresh = PinDelayMemo::new();
        let report = analyze_sequential(
            &circuit.netlist,
            &session.library,
            &resident.clock,
            &timing,
            &mut fresh,
        )
        .unwrap();
        let expected = JsonValue::Array(report.endpoints.iter().map(endpoint_json).collect());
        assert_eq!(
            answer.get("endpoints").unwrap().to_string_compact(),
            expected.to_string_compact()
        );
        // A fresh memo holds exactly the shapes its analysis used.
        assert_eq!(fresh.solves(), fresh.len());
        assert_eq!(resident.memo.len(), fresh.len());
        (resident.memo.solves(), fresh.len())
    }

    #[test]
    fn resident_slack_equals_a_fresh_analysis_across_edits() {
        let mut session = clocked_session();
        session
            .handle("load_netlist", &params(r#"{"builtin": "pipeline:4:8"}"#))
            .unwrap();
        session
            .handle("load_clock", &params(r#"{"clock": "clk", "period": 2e-9}"#))
            .unwrap();
        // Retype the last NAND2; nudge the load of the first comb gate's
        // output, upstream of it.
        let (gate, net) = {
            let netlist = &session.circuit.as_ref().unwrap().netlist;
            let comb: Vec<_> = netlist
                .gate_refs()
                .filter(|&g| !netlist.gate_kind(g).is_sequential())
                .collect();
            let gate = *comb
                .iter()
                .rev()
                .find(|&&g| netlist.gate_kind(g) == CellKind::Nand2)
                .unwrap();
            (
                netlist.gate_name(gate).to_string(),
                netlist.net_name(netlist.output_of(comb[0])).to_string(),
            )
        };

        let (cold, used) = signoff_matches_a_fresh_analysis(&mut session);
        assert_eq!(cold, used);
        session
            .handle(
                "eco",
                &params(&format!(
                    r#"{{"op": "retype_gate", "gate": "{gate}", "cell": "NOR2"}}"#
                )),
            )
            .unwrap();
        let (after_retype, _) = signoff_matches_a_fresh_analysis(&mut session);
        assert!(after_retype < cold, "{after_retype} of {cold}");
        // 0.01 aF keeps the driver's pin shapes in their attofarad buckets
        // at new exact loads: the memo answers them, and must answer what a
        // solve at the new load would — hence the representative values.
        session
            .handle(
                "eco",
                &params(&format!(
                    r#"{{"op": "set_net_load", "net": "{net}", "farads": 1e-20}}"#
                )),
            )
            .unwrap();
        signoff_matches_a_fresh_analysis(&mut session);
        // A backend swap changes every pin delay: the memo starts over.
        session
            .handle(
                "eco",
                &params(r#"{"op": "swap_backend", "backend": "baseline-mis"}"#),
            )
            .unwrap();
        let (swapped, used) = signoff_matches_a_fresh_analysis(&mut session);
        assert_eq!(swapped, used);
        // Nothing changed since the last signoff: no pin is solved again.
        assert_eq!(signoff_matches_a_fresh_analysis(&mut session).0, 0);
    }

    #[test]
    fn load_clock_rejects_registerless_and_misnamed_clocks() {
        let mut session = clocked_session();
        session
            .handle("load_netlist", &params(r#"{"builtin": "c17"}"#))
            .unwrap();
        let err = session
            .handle("load_clock", &params(r#"{"clock": "N1", "period": 2e-9}"#))
            .unwrap_err();
        assert_eq!(err.code(), -32602, "{err}");
        session
            .handle("load_netlist", &params(r#"{"builtin": "s27"}"#))
            .unwrap();
        let err = session
            .handle("load_clock", &params(r#"{"clock": "G0", "period": 2e-9}"#))
            .unwrap_err();
        assert!(err.to_string().contains("CK"), "{err}");
    }
}
