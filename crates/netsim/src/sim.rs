//! The event-driven netlist transient simulator.
//!
//! [`simulate_netlist`] chains per-gate current-source-model solves along a
//! [`Netlist`]: each driver's computed output waveform becomes the drive of
//! its fanout gates (as a shared [`DriveWaveform::Pwl`], so fan-out never
//! copies samples), which is what carries true multiple-input-switching
//! alignment to the MIS/MCSM models at netlist scope — instead of the per-arc
//! delay approximation a conventional timing flow would make.
//!
//! The simulator is *event-driven* at gate granularity: a gate whose inputs
//! all stay within [`NetsimOptions::event_threshold`] of a rail for the whole
//! window is never handed to the numerical engine — its output is the DC
//! level implied by its Boolean function, and that quiescence propagates.
//! On circuits with sparse input activity most gates are skipped entirely,
//! which is where the netlist simulator's throughput comes from. Gates that
//! *do* see an event are solved level-parallel over [`mcsm_num::par`]:
//! results are bit-identical at every thread count.
//!
//! # Streaming waveform memory
//!
//! Keeping a full trace on every net makes result memory proportional to
//! circuit size, which caps the reachable scale long before runtime does. The
//! [`WaveformStore`] decouples the two: with
//! [`NetsimOptions::observe`] set to [`Observe::Points`], full traces are kept
//! only on *observation points* (primary outputs plus any caller-listed
//! nets), every interior net's drive is handed to its fanouts as usual but
//! **dropped as soon as its last fanout pin has consumed it** (a per-net
//! refcount initialized from the fanout degree), and — optionally — handoffs
//! are thinned to an error-bounded piecewise-linear form by
//! [`NetsimOptions::thin_eps`]. Live memory then tracks the schedule's level
//! width instead of the net count ([`NetsimStats::peak_live_waveforms`]
//! reports the high-water mark), while observed nets stay **bit-identical**
//! to a non-streaming run at every thread count (with `thin_eps == 0`).

use crate::error::NetsimError;
use crate::schedule::{cone_of_influence, effective_load};
use mcsm_core::eval::EvalMode;
use mcsm_core::sim::DriveWaveform;
use mcsm_net::{GateRef, NetRef, Netlist};
use mcsm_num::fault::{site, Deadline, FaultPlan};
use mcsm_num::par;
use mcsm_spice::waveform::Waveform;
use mcsm_sta::delaycalc::{DelayCache, DelayCalculator, WaveformCache};
use mcsm_sta::models::ModelLibrary;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Default [`NetsimOptions::event_threshold`] (volts): excursions below 50 mV
/// — deep noise-margin territory for any CMOS rail — are treated as
/// quiescent.
pub const DEFAULT_EVENT_THRESHOLD: f64 = 0.05;

/// Which nets keep a full waveform trace in the [`NetsimResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum Observe {
    /// Keep a trace on every net — the classic mode; result memory is
    /// proportional to circuit size.
    All,
    /// Streaming mode: keep traces only on primary outputs plus the listed
    /// nets. Every other net's waveform is released once its last fanout pin
    /// has consumed it, so live memory is bounded by the schedule's level
    /// width instead of the net count. Un-observed nets report `None` from
    /// [`NetsimResult::waveform`].
    Points(Vec<NetRef>),
}

/// Options for one netlist transient simulation.
#[derive(Debug, Clone)]
pub struct NetsimOptions {
    /// Per-gate solve: model backend, time stepping and supply voltage. The
    /// simulation window is the calculator's `sim.t_stop`, shared by every
    /// gate so waveform handoff needs no re-gridding.
    pub calculator: DelayCalculator,
    /// Additional lumped load on every primary output (farads).
    pub primary_output_load: f64,
    /// Worker threads for the per-level parallel gate solves (`0` = auto from
    /// `MCSM_THREADS` / the machine, `1` = sequential). Results are
    /// bit-identical for every value.
    pub threads: usize,
    /// Smallest voltage excursion (volts) that counts as an event. Drives and
    /// computed outputs whose total excursion over the window stays below
    /// this are treated as DC, and gates fed only by such nets are skipped.
    pub event_threshold: f64,
    /// Which nets keep full traces — [`Observe::All`] (default) or streaming
    /// [`Observe::Points`]. Observed nets are bit-identical between the two.
    pub observe: Observe,
    /// Maximum absolute voltage error (volts) allowed when thinning a solved
    /// waveform into the piecewise-linear drive handed to fanout gates
    /// (see [`Waveform::thin`]). `0.0` (default) disables thinning — handoff
    /// shares the solved samples bit-identically.
    pub thin_eps: f64,
    /// Fault-injection plan queried by the gate-solve loop (chaos testing).
    /// `None` (the default) disables injection — the production path pays a
    /// single `Option` check per gate.
    pub fault: Option<Arc<FaultPlan>>,
    /// Cooperative cancellation: when set, the level sweep polls the token
    /// before every level and every gate solve, and bails out with
    /// [`NetsimError::Cancelled`] once it expires. Committed state owned by
    /// the caller is untouched — only this run's in-flight result is dropped.
    pub deadline: Option<Arc<Deadline>>,
}

/// Scalar options compare by value; the fault plan and deadline compare by
/// identity (`Arc::ptr_eq`) — two runs are "the same configuration" only when
/// they share the very same injection plan and cancellation token.
impl PartialEq for NetsimOptions {
    fn eq(&self, other: &Self) -> bool {
        fn same_arc<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
        }
        self.calculator == other.calculator
            && self.primary_output_load == other.primary_output_load
            && self.threads == other.threads
            && self.event_threshold == other.event_threshold
            && self.observe == other.observe
            && self.thin_eps == other.thin_eps
            && same_arc(&self.fault, &other.fault)
            && same_arc(&self.deadline, &other.deadline)
    }
}

impl NetsimOptions {
    /// Creates sequential options with the default event threshold, observing
    /// every net and no handoff thinning.
    pub fn new(calculator: DelayCalculator, primary_output_load: f64) -> Self {
        NetsimOptions {
            calculator,
            primary_output_load,
            threads: 1,
            event_threshold: DEFAULT_EVENT_THRESHOLD,
            observe: Observe::All,
            thin_eps: 0.0,
            fault: None,
            deadline: None,
        }
    }

    /// Sets the worker-thread count for level-parallel gate solves.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the event threshold (volts).
    #[must_use]
    pub fn with_event_threshold(mut self, volts: f64) -> Self {
        self.event_threshold = volts;
        self
    }

    /// Sets the observation mode (which nets keep full traces).
    #[must_use]
    pub fn with_observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Sets the handoff-thinning error bound (volts); `0.0` disables.
    #[must_use]
    pub fn with_thin_eps(mut self, eps: f64) -> Self {
        self.thin_eps = eps;
        self
    }

    /// Arms a fault-injection plan for this run (chaos testing).
    #[must_use]
    pub fn with_fault(mut self, fault: Option<Arc<FaultPlan>>) -> Self {
        self.fault = fault;
        self
    }

    /// Attaches a cooperative cancellation token, polled per level and per
    /// gate solve.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Arc<Deadline>>) -> Self {
        self.deadline = deadline;
        self
    }
}

/// How one faulted gate solve was recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryResolution {
    /// Retried on the reference table-evaluation path ([`EvalMode::Reference`])
    /// with the run's own time step. Reference and fast paths are
    /// bit-identical by construction, so this recovery preserves the
    /// bit-for-bit determinism contract.
    ReferenceEval,
    /// Retried on the reference path with a 4× coarser time step — the last
    /// resort when the configured step itself diverges. Accuracy degrades
    /// (the result is *not* bit-identical to a clean run on this gate), which
    /// is why the entry is recorded in the stats for callers to inspect.
    CoarseDt,
}

impl RecoveryResolution {
    /// Short stable label for logs and the serving layer's stats report.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryResolution::ReferenceEval => "reference-eval",
            RecoveryResolution::CoarseDt => "coarse-dt",
        }
    }
}

/// One gate solve that failed (panic, solver error or non-finite output) and
/// was recovered by a degraded retry instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Instance name of the recovered gate.
    pub gate: String,
    /// Name of the gate's output net.
    pub net: String,
    /// What the primary attempt died of (panic payload, solver error or a
    /// non-finite-output description).
    pub failure: String,
    /// Which degraded setting produced the committed waveform.
    pub resolution: RecoveryResolution,
}

/// Activity counters of one simulation run.
///
/// The cache counters are **per-run deltas**: with shared [`SimCaches`] the
/// underlying caches are cumulative across runs, so each run snapshots the
/// counters before and after and reports the difference. That delta is only
/// meaningful when no concurrent run shares the same caches — the query
/// server guarantees this by serializing runs through its session lock.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetsimStats {
    /// Gates handed to the numerical engine (at least one active input).
    pub gates_simulated: usize,
    /// Gates resolved to a DC level without touching the engine.
    pub gates_skipped: usize,
    /// Gates outside the re-evaluated cone whose committed waveforms were
    /// reused from the previous result (only [`resimulate_netlist`] sets
    /// this; full runs touch every gate).
    pub gates_reused: usize,
    /// Nets (primary inputs included) whose waveform excursion exceeded the
    /// event threshold.
    pub events: usize,
    /// Delay-cache lookups answered from the memoized per-(cell, backend,
    /// load-bucket) cache.
    pub cache_hits: usize,
    /// Delay-cache lookups that had to compute their value.
    pub cache_misses: usize,
    /// Gate solves answered whole from the waveform memo cache (zero unless
    /// [`SimCaches::waveforms`] is supplied).
    pub waveform_hits: usize,
    /// Gate solves that ran the numerical engine and were then memoized.
    pub waveform_misses: usize,
    /// High-water mark of simultaneously live waveforms in the
    /// [`WaveformStore`] (nets holding a full trace or non-DC handoff
    /// samples). With [`Observe::All`] this approaches the net count; in
    /// streaming mode it tracks the schedule's level width.
    pub peak_live_waveforms: usize,
    /// Total breakpoints removed from fanout handoffs by
    /// [`NetsimOptions::thin_eps`] thinning (zero when thinning is off).
    pub breakpoints_dropped: usize,
    /// Gates whose primary solve failed (panic, solver error, non-finite
    /// output) and were committed from a degraded retry instead, in level
    /// order. Empty on a healthy run.
    pub recoveries: Vec<Recovery>,
}

/// Shared caches threaded through a sequence of simulations.
///
/// Both caches follow the same scope rule: **one model library per cache**
/// (see [`DelayCache`] / [`WaveformCache`]). A long-running session that
/// keeps a netlist resident passes the same `SimCaches` to every run so warm
/// queries skip re-resolving families, pin capacitances and — with
/// [`SimCaches::waveforms`] set — entire gate solves.
#[derive(Debug, Clone, Copy)]
pub struct SimCaches<'a> {
    /// Model-family + pin-capacitance memoization.
    pub delay: &'a DelayCache,
    /// Whole-gate-solve memoization; `None` disables waveform memoization
    /// (every eventful gate runs the engine, exactly like
    /// [`simulate_netlist`]).
    pub waveforms: Option<&'a WaveformCache>,
}

/// The per-net waveform state of a running simulation: committed traces,
/// fanout handoff drives and event flags, with streaming release of interior
/// traces when [`Observe::Points`] is active.
///
/// The store owns the memory-bounding machinery of the simulator: each net
/// carries a *remaining-reads* refcount initialized from its fanout degree;
/// the sweep consumes one read per gathered
/// input pin, and when a net's count drains in streaming mode — and the net
/// is not an observation point — its handoff samples are released on the
/// spot. `peak_live_waveforms` records the high-water mark of nets holding
/// sample data (full traces or non-DC drives; DC and analytic drives are
/// O(1) and not counted).
#[derive(Debug)]
pub struct WaveformStore {
    streaming: bool,
    thin_eps: f64,
    observed: Vec<bool>,
    traces: Vec<Option<Waveform>>,
    drives: Vec<Option<DriveWaveform>>,
    active: Vec<bool>,
    remaining_reads: Vec<u32>,
    live: Vec<bool>,
    live_count: usize,
    peak_live: usize,
    breakpoints_dropped: usize,
}

impl WaveformStore {
    /// Builds the store for one run: the observed set is every primary output
    /// plus the nets listed in `observe` (all of them with [`Observe::All`]),
    /// and each net's read refcount is its fanout-pin degree.
    ///
    /// # Errors
    ///
    /// [`NetsimError::InvalidParameter`] if an observation point is out of
    /// range for this netlist.
    pub fn new(netlist: &Netlist, observe: &Observe, thin_eps: f64) -> Result<Self, NetsimError> {
        let nets = netlist.net_count();
        let (streaming, observed) = match observe {
            Observe::All => (false, vec![true; nets]),
            Observe::Points(points) => {
                let mut observed = vec![false; nets];
                for &po in netlist.primary_outputs() {
                    observed[po.index()] = true;
                }
                for &net in points {
                    if net.index() >= nets {
                        return Err(NetsimError::InvalidParameter(format!(
                            "observation point #{} is out of range for a netlist \
                             with {nets} nets",
                            net.index()
                        )));
                    }
                    observed[net.index()] = true;
                }
                (true, observed)
            }
        };
        Ok(WaveformStore {
            streaming,
            thin_eps,
            observed,
            traces: vec![None; nets],
            drives: vec![None; nets],
            active: vec![false; nets],
            remaining_reads: netlist
                .net_refs()
                .map(|net| netlist.fanout_of(net).len() as u32)
                .collect(),
            live: vec![false; nets],
            live_count: 0,
            peak_live: 0,
            breakpoints_dropped: 0,
        })
    }

    /// Whether this store streams (drops un-observed traces).
    pub fn streaming(&self) -> bool {
        self.streaming
    }

    /// Whether a net keeps its full trace in the result.
    pub fn is_observed(&self, net: NetRef) -> bool {
        self.observed[net.index()]
    }

    /// High-water mark of simultaneously live waveforms so far.
    pub fn peak_live_waveforms(&self) -> usize {
        self.peak_live
    }

    /// Breakpoints removed by handoff thinning so far.
    pub fn breakpoints_dropped(&self) -> usize {
        self.breakpoints_dropped
    }

    fn wants_trace(&self, idx: usize) -> bool {
        self.observed[idx] || !self.streaming
    }

    fn refresh_live(&mut self, idx: usize) {
        let now = self.traces[idx].is_some()
            || matches!(
                self.drives[idx],
                Some(DriveWaveform::Pwl(_)) | Some(DriveWaveform::Sampled(_))
            );
        if now != self.live[idx] {
            self.live[idx] = now;
            if now {
                self.live_count += 1;
                self.peak_live = self.peak_live.max(self.live_count);
            } else {
                self.live_count -= 1;
            }
        }
    }

    /// The committed handoff drive of a net. The level schedule plus the
    /// fanout refcounts guarantee every input a gate gathers is still held.
    fn drive(&self, net: NetRef) -> &DriveWaveform {
        self.drives[net.index()]
            .as_ref()
            .expect("level order and fanout refcounts guarantee committed inputs")
    }

    fn is_active(&self, net: NetRef) -> bool {
        self.active[net.index()]
    }

    /// Commits a primary input: event flag from the drive's span, trace (if
    /// kept) sampled from the drive, handoff re-wrapped so sampled drives fan
    /// out as a shared PWL (`Arc` clones, not sample copies — evaluation is
    /// bit-identical through `Waveform::value_at`).
    fn commit_input(
        &mut self,
        net: NetRef,
        drive: &DriveWaveform,
        t_stop: f64,
        event_threshold: f64,
    ) -> Result<(), NetsimError> {
        let idx = net.index();
        let (lo, hi) = drive_span(drive, t_stop);
        self.active[idx] = hi - lo >= event_threshold;
        if self.wants_trace(idx) {
            self.traces[idx] = Some(drive_to_waveform(drive, t_stop)?);
        }
        self.drives[idx] = Some(match drive {
            DriveWaveform::Sampled(w) => DriveWaveform::from_waveform(w.clone()),
            other => other.clone(),
        });
        self.refresh_live(idx);
        Ok(())
    }

    /// Commits a quiescent gate output: DC handoff, flat two-point trace when
    /// the net is kept (streaming skips even that allocation).
    fn commit_quiescent(
        &mut self,
        net: NetRef,
        level_v: f64,
        t_stop: f64,
    ) -> Result<(), NetsimError> {
        let idx = net.index();
        if self.wants_trace(idx) {
            self.traces[idx] = Some(Waveform::new(vec![0.0, t_stop], vec![level_v, level_v])?);
        }
        self.drives[idx] = Some(DriveWaveform::dc(level_v));
        self.refresh_live(idx);
        Ok(())
    }

    /// Commits an engine-solved gate output. Eventful outputs hand fanouts
    /// the solved samples (shared, or thinned to `thin_eps`); settled outputs
    /// hand a DC level so quiescence keeps propagating. The full trace is
    /// kept only when the net is observed (or the store is non-streaming).
    fn commit_solved(&mut self, net: NetRef, waveform: Arc<Waveform>, event_threshold: f64) {
        let idx = net.index();
        let (lo, hi) = (waveform.min_value(), waveform.max_value());
        if hi - lo >= event_threshold {
            self.active[idx] = true;
            self.drives[idx] = Some(if self.thin_eps > 0.0 {
                let thinned = waveform.thin(self.thin_eps);
                self.breakpoints_dropped += waveform.len().saturating_sub(thinned.len());
                DriveWaveform::from_waveform(thinned)
            } else {
                DriveWaveform::Pwl(Arc::clone(&waveform))
            });
        } else {
            // The output barely moved: hand fanouts its settled DC level so
            // quiescence keeps propagating, but keep the solved waveform for
            // reporting where the net is observed.
            self.drives[idx] = Some(DriveWaveform::dc(waveform.final_value()));
        }
        if self.wants_trace(idx) {
            self.traces[idx] = Some(match Arc::try_unwrap(waveform) {
                Ok(w) => w,
                Err(shared) => (*shared).clone(),
            });
        }
        self.refresh_live(idx);
    }

    /// Re-commits a net from a previous (non-streamed) result, for the gates
    /// outside an incremental re-evaluation cone.
    fn preload(&mut self, net: NetRef, trace: Waveform, drive: DriveWaveform, active: bool) {
        let idx = net.index();
        self.traces[idx] = Some(trace);
        self.drives[idx] = Some(drive);
        self.active[idx] = active;
        self.refresh_live(idx);
    }

    /// Records one fanout pin having gathered this net. In streaming mode,
    /// draining the count on an un-observed net releases its handoff samples
    /// immediately — the schedule can never ask for them again.
    fn consume(&mut self, net: NetRef) {
        let idx = net.index();
        self.remaining_reads[idx] = self.remaining_reads[idx].saturating_sub(1);
        if self.streaming && self.remaining_reads[idx] == 0 && !self.observed[idx] {
            self.drives[idx] = None;
            self.refresh_live(idx);
        }
    }
}

/// The result of a netlist transient simulation: one voltage waveform per
/// *observed* net — primary inputs sampled from their drives, gate outputs
/// either solved by the engine or resolved to their DC level. With
/// [`Observe::All`] (the default) every net is observed; in streaming mode
/// un-observed nets report `None`.
#[derive(Debug, Clone)]
pub struct NetsimResult {
    waveforms: Vec<Option<Waveform>>,
    net_names: Vec<String>,
    vdd: f64,
    stats: NetsimStats,
    /// Committed per-net handoff drives, kept so [`resimulate_netlist`] can
    /// hand untouched nets' exact drives (Arc'd PWL or DC, cheap clones) to
    /// the gates inside a re-evaluated cone. Streamed results release
    /// un-observed entries.
    drives: Vec<Option<DriveWaveform>>,
    /// Committed per-net event flags, carried over for nets outside a
    /// re-evaluated cone.
    active: Vec<bool>,
    /// Which nets were observation points for this run.
    observed: Vec<bool>,
    /// Whether the run streamed (dropped un-observed traces).
    streamed: bool,
}

impl NetsimResult {
    /// The waveform on a net, or `None` if the run streamed
    /// ([`Observe::Points`]) and the net was not an observation point.
    /// Non-streamed results return `Some` for every net.
    pub fn waveform(&self, net: NetRef) -> Option<&Waveform> {
        self.waveforms[net.index()].as_ref()
    }

    /// Whether a net was an observation point of this run (always true for
    /// non-streamed runs).
    pub fn observed(&self, net: NetRef) -> bool {
        self.observed[net.index()]
    }

    /// Whether this run streamed (kept traces only on observation points).
    pub fn streamed(&self) -> bool {
        self.streamed
    }

    /// Name of a net (mirrors the simulated netlist, so results stay
    /// printable without holding onto the netlist).
    pub fn net_name(&self, net: NetRef) -> &str {
        &self.net_names[net.index()]
    }

    /// Number of nets (observed or not).
    pub fn net_count(&self) -> usize {
        self.waveforms.len()
    }

    /// Supply voltage the arrival/slew thresholds are relative to.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Activity counters of the run.
    pub fn stats(&self) -> NetsimStats {
        self.stats.clone()
    }

    /// The 50 % crossing time of the waveform on a net, for the given
    /// direction. `None` if the net never crosses — or is not observed.
    pub fn arrival_time(&self, net: NetRef, rising: bool) -> Option<f64> {
        self.waveform(net)?.crossing(0.5 * self.vdd, rising)
    }

    /// The earliest 50 % crossing in either direction, with the direction
    /// that produced it (tie-break: [`mcsm_spice::waveform::earliest_crossing`])
    /// — the form for comparing arrivals without guessing edge polarities.
    pub fn arrival_any(&self, net: NetRef) -> Option<(f64, bool)> {
        mcsm_spice::waveform::earliest_crossing(
            self.arrival_time(net, true),
            self.arrival_time(net, false),
        )
    }

    /// The 10 %–90 % transition time of the waveform on a net. `None` if it
    /// never completes the transition — or is not observed.
    pub fn slew(&self, net: NetRef, rising: bool) -> Option<f64> {
        self.waveform(net)?.transition_time(self.vdd, rising)
    }
}

/// The voltage span `[min, max]` a drive covers over `[0, t_stop]`.
///
/// Analytic drives are evaluated at their slope breakpoints (plus the window
/// ends) — exact for every `SourceWaveform` shape, which is piecewise linear
/// between breakpoints. Sampled/PWL drives take their in-window samples plus
/// the interpolated window ends.
fn drive_span(drive: &DriveWaveform, t_stop: f64) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut take = |v: f64| {
        lo = lo.min(v);
        hi = hi.max(v);
    };
    match drive {
        DriveWaveform::Analytic(src) => {
            take(src.eval(0.0));
            take(src.eval(t_stop));
            for b in src.breakpoints() {
                if b > 0.0 && b < t_stop {
                    take(src.eval(b));
                }
            }
        }
        DriveWaveform::Sampled(w) => span_of_waveform(w, t_stop, &mut take),
        DriveWaveform::Pwl(w) => span_of_waveform(w, t_stop, &mut take),
    }
    (lo, hi)
}

fn span_of_waveform(w: &Waveform, t_stop: f64, take: &mut impl FnMut(f64)) {
    take(w.value_at(0.0));
    take(w.value_at(t_stop));
    for (&t, &v) in w.times().iter().zip(w.values()) {
        if t > 0.0 && t < t_stop {
            take(v);
        }
    }
}

/// Samples a drive into a full [`Waveform`] over `[0, t_stop]`, for reporting
/// primary-input nets. Analytic drives keep their exact breakpoint structure;
/// sampled drives pass through unchanged.
fn drive_to_waveform(drive: &DriveWaveform, t_stop: f64) -> Result<Waveform, NetsimError> {
    match drive {
        DriveWaveform::Analytic(src) => {
            let mut times = vec![0.0];
            let mut breaks = src.breakpoints();
            breaks.sort_by(|a, b| a.partial_cmp(b).expect("breakpoints are finite"));
            for b in breaks {
                if b > 0.0 && b < t_stop && times.last() != Some(&b) {
                    times.push(b);
                }
            }
            if times.last() != Some(&t_stop) {
                times.push(t_stop);
            }
            let values = times.iter().map(|&t| src.eval(t)).collect();
            Ok(Waveform::new(times, values)?)
        }
        DriveWaveform::Sampled(w) => Ok(w.clone()),
        DriveWaveform::Pwl(w) => Ok((**w).clone()),
    }
}

/// One gate's solve job: the model, its gathered input range in the level's
/// shared drive pool, and the output net. Holding a `Range` instead of an
/// owned `Vec` keeps the gather phase allocation-free across levels.
struct GateSolve<'a> {
    model: &'a mcsm_core::store::ModelStore,
    kind: mcsm_cells::cell::CellKind,
    inputs: Range<usize>,
    load: f64,
    gate: GateRef,
    output: NetRef,
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs one solve attempt with panic isolation: a panicking gate becomes an
/// `Err(description)` instead of tearing down the level sweep (the worker
/// closure runs under `par_map`, whose scope would otherwise re-raise).
fn run_guarded<T>(f: impl FnOnce() -> Result<T, NetsimError>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!("gate solve panicked: {}", panic_message(&*payload))),
    }
}

/// Whether every sample of a solved waveform is finite — the divergence
/// detector of the degraded-mode retry chain.
fn waveform_is_finite(w: &Waveform) -> bool {
    w.values().iter().all(|v| v.is_finite())
}

/// A copy of `calculator` stepping on the reference table-evaluation path,
/// with `dt` scaled by `dt_factor` (`1.0` keeps the configured step).
fn degraded_calculator(calculator: &DelayCalculator, dt_factor: f64) -> DelayCalculator {
    let mut degraded = calculator.clone();
    degraded.sim.eval = EvalMode::Reference;
    degraded.sim.dt = (calculator.sim.dt * dt_factor).min(calculator.sim.t_stop);
    degraded
}

/// Solves one gate with fault injection, divergence detection and the
/// degraded-mode retry chain.
///
/// The primary attempt runs the configured calculator through the waveform
/// memo; a failure (injected or real panic, solver error, or non-finite
/// output samples) is retried first on the reference evaluation path
/// (bit-identical to the fast path by construction) and then on the reference
/// path with a 4× coarser step. Both retries bypass the waveform memo — its
/// keys do not include the time step, so caching a degraded solve would
/// poison warm queries. An unrecoverable gate yields
/// [`NetsimError::GateUnrecoverable`] naming the gate, its output net and
/// every attempted fallback.
fn solve_gate_resilient(
    netlist: &Netlist,
    options: &NetsimOptions,
    cache: &DelayCache,
    waveforms: Option<&WaveformCache>,
    inputs: &[DriveWaveform],
    solve: &GateSolve<'_>,
) -> Result<(Waveform, Option<Recovery>), NetsimError> {
    if let Some(deadline) = &options.deadline {
        if deadline.expired() {
            return Err(NetsimError::Cancelled {
                context: format!(
                    "gate `{}` (net `{}`)",
                    netlist.gate_name(solve.gate),
                    netlist.net_name(solve.output)
                ),
            });
        }
    }
    let mut gate_span = mcsm_obs::span("netsim.gate");
    gate_span.arg("gate", solve.gate.index() as f64);
    gate_span.arg("net", solve.output.index() as f64);
    let fault = options.fault.as_deref();
    let key = solve.output.index() as u64;
    let primary = run_guarded(|| {
        if let Some(plan) = fault {
            if plan.fires(site::NETSIM_GATE_PANIC, key) {
                panic!("injected fault `{}` (key {key})", site::NETSIM_GATE_PANIC);
            }
        }
        let waveform = options.calculator.gate_output_memoized(
            solve.model,
            solve.kind,
            inputs,
            solve.load,
            Some(cache),
            waveforms,
        )?;
        if let Some(plan) = fault {
            if plan.fires(site::NETSIM_GATE_DIVERGE, key) {
                // Simulated solver divergence: the committed samples come back
                // NaN-poisoned, exactly as a runaway explicit step would look.
                // The memo already holds the *clean* solve (inserted above),
                // so warm queries are unaffected.
                let times = waveform.times().to_vec();
                let values = vec![f64::NAN; times.len()];
                return Ok(Waveform::new(times, values)?);
            }
        }
        Ok(waveform)
    });
    let failure = match primary {
        Ok(w) if waveform_is_finite(&w) => return Ok((w, None)),
        Ok(_) => "non-finite output samples (solver divergence)".to_string(),
        Err(description) => description,
    };

    let recovery = |resolution: RecoveryResolution| Recovery {
        gate: netlist.gate_name(solve.gate).to_string(),
        net: netlist.net_name(solve.output).to_string(),
        failure: failure.clone(),
        resolution,
    };
    let mut attempted = Vec::new();
    for resolution in [
        RecoveryResolution::ReferenceEval,
        RecoveryResolution::CoarseDt,
    ] {
        attempted.push(resolution.label());
        let calculator = match resolution {
            RecoveryResolution::ReferenceEval => degraded_calculator(&options.calculator, 1.0),
            RecoveryResolution::CoarseDt => degraded_calculator(&options.calculator, 4.0),
        };
        let retry = run_guarded(|| {
            Ok(calculator.gate_output_cached(
                solve.model,
                solve.kind,
                inputs,
                solve.load,
                Some(cache),
            )?)
        });
        if let Ok(w) = retry {
            if waveform_is_finite(&w) {
                gate_span.arg("recovered", 1.0);
                return Ok((w, Some(recovery(resolution))));
            }
        }
    }
    Err(NetsimError::GateUnrecoverable {
        gate: netlist.gate_name(solve.gate).to_string(),
        net: netlist.net_name(solve.output).to_string(),
        failure,
        attempted: attempted.join(", "),
    })
}

/// Simulates a whole netlist: every primary input driven by
/// `input_drives[net]`, every other net's waveform computed by chaining
/// per-gate model solves through the level schedule.
///
/// The model family each gate runs is the calculator's backend exactly as in
/// the STA layer (including the §3.4 selective policy and the documented
/// fallback chains); loads come from [`effective_load`]. Gates whose inputs
/// are all quiescent are resolved to DC without entering the engine — see the
/// module docs for the event model. With [`NetsimOptions::observe`] set to
/// [`Observe::Points`] the run streams: see [`WaveformStore`].
///
/// # Errors
///
/// * [`NetsimError::SequentialNetlist`] — the netlist contains register
///   gates (clocked simulation lives in `mcsm-seq`);
/// * [`NetsimError::MissingDrive`] — a primary input has no drive;
/// * [`NetsimError::DrivenInternalNet`] — a drive targets a non-input net;
/// * [`NetsimError::InvalidParameter`] — a malformed threshold, thinning
///   bound or observation point;
/// * [`NetsimError::Sta`] — model resolution or per-gate evaluation failed.
pub fn simulate_netlist(
    netlist: &Netlist,
    library: &ModelLibrary,
    input_drives: &HashMap<NetRef, DriveWaveform>,
    options: &NetsimOptions,
) -> Result<NetsimResult, NetsimError> {
    let cache = DelayCache::new();
    run_levels(
        netlist,
        library,
        input_drives,
        options,
        SimCaches {
            delay: &cache,
            waveforms: None,
        },
        None,
    )
}

/// Like [`simulate_netlist`], but consulting caller-owned [`SimCaches`]
/// instead of a fresh per-run [`DelayCache`] — the full-run entry point of a
/// long-running session. With a warm [`WaveformCache`] a repeated run skips
/// the numerical engine entirely; results are bit-identical to
/// [`simulate_netlist`] at any thread count and cache temperature (exact-bits
/// memo keys — see [`WaveformCache`]).
///
/// # Errors
///
/// Same as [`simulate_netlist`].
pub fn simulate_netlist_cached(
    netlist: &Netlist,
    library: &ModelLibrary,
    input_drives: &HashMap<NetRef, DriveWaveform>,
    options: &NetsimOptions,
    caches: SimCaches<'_>,
) -> Result<NetsimResult, NetsimError> {
    run_levels(netlist, library, input_drives, options, caches, None)
}

/// Incremental re-simulation after an ECO edit or drive change: re-solves
/// only the downstream [`cone_of_influence`] of `seeds`, reusing the
/// committed waveforms of `previous` for every net outside the cone.
///
/// `seeds` must cover every gate whose inputs, model or effective load
/// changed since `previous` was computed — the `seeds_for_*` helpers in
/// [`crate::schedule`] produce the right seeds for drive changes, gate
/// retypes and net-load edits. Downstream closure is taken here, so callers
/// pass only the directly-invalidated gates.
///
/// The structural cone is a superset of the dynamic activity cone, so the
/// result is **bit-identical** to a from-scratch [`simulate_netlist_cached`]
/// run of the edited netlist: every reused net provably sees bit-identical
/// inputs and loads. `stats.gates_reused` counts the gates that were not
/// re-solved.
///
/// Incremental runs require full retention on both sides: a streamed
/// `previous` has released the very waveforms reuse depends on, and a
/// streamed re-run could not be reused later itself — both are rejected.
///
/// # Errors
///
/// Same as [`simulate_netlist`], plus [`NetsimError::InvalidParameter`] when
/// `previous` was computed on a netlist with a different net count, when
/// `previous` streamed, or when `options.observe` is not [`Observe::All`].
pub fn resimulate_netlist(
    netlist: &Netlist,
    library: &ModelLibrary,
    input_drives: &HashMap<NetRef, DriveWaveform>,
    options: &NetsimOptions,
    caches: SimCaches<'_>,
    previous: &NetsimResult,
    seeds: &[GateRef],
) -> Result<NetsimResult, NetsimError> {
    if previous.net_count() != netlist.net_count() {
        return Err(NetsimError::InvalidParameter(format!(
            "previous result has {} nets, netlist has {} — resimulate requires \
             the result of this same netlist",
            previous.net_count(),
            netlist.net_count()
        )));
    }
    if previous.streamed() {
        return Err(NetsimError::InvalidParameter(
            "previous result streamed (Observe::Points) and released its \
             interior waveforms — incremental re-simulation needs a full \
             Observe::All result"
                .to_string(),
        ));
    }
    if options.observe != Observe::All {
        return Err(NetsimError::InvalidParameter(
            "incremental re-simulation requires Observe::All — streamed runs \
             cannot be reused as a future `previous`"
                .to_string(),
        ));
    }
    let cone = cone_of_influence(netlist, seeds);
    run_levels(
        netlist,
        library,
        input_drives,
        options,
        caches,
        Some((previous, &cone)),
    )
}

/// The one level-sweep engine behind every public entry point. With
/// `previous = Some((result, cone))`, gates outside `cone` are pre-committed
/// from `result` and skipped by the sweep.
fn run_levels(
    netlist: &Netlist,
    library: &ModelLibrary,
    input_drives: &HashMap<NetRef, DriveWaveform>,
    options: &NetsimOptions,
    caches: SimCaches<'_>,
    previous: Option<(&NetsimResult, &[GateRef])>,
) -> Result<NetsimResult, NetsimError> {
    if let Some(gate) = netlist
        .gate_refs()
        .find(|&g| netlist.gate_kind(g).is_sequential())
    {
        return Err(NetsimError::SequentialNetlist {
            gate: netlist.gate_name(gate).to_string(),
        });
    }
    for &pi in netlist.primary_inputs() {
        if !input_drives.contains_key(&pi) {
            return Err(NetsimError::MissingDrive(netlist.net_name(pi).to_string()));
        }
    }
    for &net in input_drives.keys() {
        if !netlist.is_primary_input(net) {
            return Err(NetsimError::DrivenInternalNet(
                netlist.net_name(net).to_string(),
            ));
        }
    }
    if !(options.event_threshold >= 0.0) || !options.event_threshold.is_finite() {
        return Err(NetsimError::InvalidParameter(format!(
            "event threshold must be finite and non-negative, got {}",
            options.event_threshold
        )));
    }
    if !(options.thin_eps >= 0.0) || !options.thin_eps.is_finite() {
        return Err(NetsimError::InvalidParameter(format!(
            "thin_eps must be finite and non-negative, got {}",
            options.thin_eps
        )));
    }

    let t_stop = options.calculator.sim.t_stop;
    let vdd = options.calculator.vdd;
    let cache = caches.delay;
    let mut run_span = mcsm_obs::span("netsim.run");
    run_span.arg("gates", netlist.gate_count() as f64);
    run_span.arg("incremental", if previous.is_some() { 1.0 } else { 0.0 });
    let mut stats = NetsimStats::default();
    // Cache counters are cumulative across runs of shared caches; report this
    // run's contribution as a delta (the session layer serializes runs, so no
    // concurrent run perturbs the snapshot).
    let delay_hits_before = cache.hits();
    let delay_misses_before = cache.misses();
    let waveform_counts_before = caches.waveforms.map(|w| (w.hits(), w.misses()));

    // Per-net handoff state, committed level by level and released eagerly
    // when streaming.
    let mut store = WaveformStore::new(netlist, &options.observe, options.thin_eps)?;

    // Incremental scope: pre-commit every out-of-cone gate's output from the
    // previous result, then let the sweep skip those gates entirely.
    // (`previous` is never streamed — resimulate_netlist rejects that — so
    // every reused entry is present.)
    let in_cone: Option<Vec<bool>> = match previous {
        Some((prev, cone)) => {
            let mut mask = vec![false; netlist.gate_count()];
            for gate in cone {
                mask[gate.index()] = true;
            }
            for gate in netlist.gate_refs() {
                if !mask[gate.index()] {
                    let out = netlist.output_of(gate).index();
                    store.preload(
                        netlist.output_of(gate),
                        prev.waveforms[out]
                            .as_ref()
                            .expect("non-streamed results hold every waveform")
                            .clone(),
                        prev.drives[out]
                            .as_ref()
                            .expect("non-streamed results hold every drive")
                            .clone(),
                        prev.active[out],
                    );
                    stats.gates_reused += 1;
                }
            }
            Some(mask)
        }
        None => None,
    };

    for (&net, drive) in input_drives {
        store.commit_input(net, drive, t_stop, options.event_threshold)?;
    }

    let schedule = netlist.levels();
    // Per-level scratch, reused across levels so the sequential gather phase
    // stays allocation-free once the deepest level has been seen.
    let mut level_inputs: Vec<DriveWaveform> = Vec::new();
    let mut solves: Vec<GateSolve<'_>> = Vec::new();
    let mut logic_buf: Vec<bool> = Vec::new();
    let mut level_count = 0u64;
    for (level_index, level) in schedule.iter().enumerate() {
        level_count += 1;
        let mut level_span = mcsm_obs::span("netsim.level");
        let solved_before = stats.gates_simulated;
        let skipped_before = stats.gates_skipped;
        let recovered_before = stats.recoveries.len();
        let mut level_reused = 0usize;
        // Cooperative cancellation checkpoint: a request whose deadline
        // passed abandons the sweep here (and again per gate inside the solve
        // closure) without touching any caller-owned committed state.
        if let Some(deadline) = &options.deadline {
            if deadline.expired() {
                return Err(NetsimError::Cancelled {
                    context: "level sweep".to_string(),
                });
            }
        }
        // Gather phase (sequential, cheap): split the level into gates that
        // saw an event and gates that stayed quiescent. Input drives land in
        // one flat pool per level; each solve keeps a range into it.
        level_inputs.clear();
        solves.clear();
        for &gate_ref in level {
            if let Some(mask) = &in_cone {
                if !mask[gate_ref.index()] {
                    level_reused += 1;
                    continue; // pre-committed from the previous result
                }
            }
            let kind = netlist.gate_kind(gate_ref);
            let inputs = netlist.inputs_of(gate_ref);
            let output = netlist.output_of(gate_ref);

            if inputs.iter().any(|&net| store.is_active(net)) {
                // Cloning the drives is cheap by construction: handoff drives
                // are `Pwl` (Arc'd samples) and quiescent nets are DC.
                let start = level_inputs.len();
                for &net in inputs {
                    level_inputs.push(store.drive(net).clone());
                }
                let load =
                    effective_load(netlist, library, cache, output, options.primary_output_load)?;
                solves.push(GateSolve {
                    model: library.store(kind)?,
                    kind,
                    inputs: start..level_inputs.len(),
                    load,
                    gate: gate_ref,
                    output,
                });
                stats.gates_simulated += 1;
            } else {
                // Quiescent gate: its output is the DC level of its Boolean
                // function at the input logic values — no engine run, and no
                // waveform clones either (only initial values are read).
                logic_buf.clear();
                for &net in inputs {
                    logic_buf.push(store.drive(net).initial_value() > 0.5 * vdd);
                }
                let level_v = if kind.evaluate(&logic_buf) { vdd } else { 0.0 };
                store.commit_quiescent(output, level_v, t_stop)?;
                stats.gates_skipped += 1;
            }
            // Every input pin of this gate has gathered what it needs; in
            // streaming mode a drained un-observed net frees its samples now.
            for &net in inputs {
                store.consume(net);
            }
        }

        // Solve phase: every eventful gate of the level in parallel, through
        // the waveform memo when one is supplied (a warm hit skips the engine
        // with bit-identical output — exact-bits keys). Each solve is panic-
        // isolated and retried on degraded settings before giving up; fault
        // decisions are pure functions of (seed, site, output-net index), so
        // the same faults fire at every thread count.
        let outputs = par::par_map(options.threads, &solves, |_, solve| {
            solve_gate_resilient(
                netlist,
                options,
                cache,
                caches.waveforms,
                &level_inputs[solve.inputs.clone()],
                solve,
            )
        });

        // Commit phase (sequential, in level order, so the first error — and
        // the recovery log — matches what a sequential sweep would report).
        for (solve, outcome) in solves.iter().zip(outputs) {
            let (waveform, recovery) = outcome?;
            if let Some(recovery) = recovery {
                stats.recoveries.push(recovery);
            }
            store.commit_solved(solve.output, Arc::new(waveform), options.event_threshold);
        }

        if level_span.enabled() {
            level_span.arg("level", level_index as f64);
            level_span.arg("solved", (stats.gates_simulated - solved_before) as f64);
            level_span.arg("skipped", (stats.gates_skipped - skipped_before) as f64);
            level_span.arg("reused", level_reused as f64);
            level_span.arg(
                "recovered",
                (stats.recoveries.len() - recovered_before) as f64,
            );
        }
    }

    stats.peak_live_waveforms = store.peak_live_waveforms();
    stats.breakpoints_dropped = store.breakpoints_dropped();
    stats.cache_hits = cache.hits() - delay_hits_before;
    stats.cache_misses = cache.misses() - delay_misses_before;
    if let (Some(w), Some((hits_before, misses_before))) =
        (caches.waveforms, waveform_counts_before)
    {
        stats.waveform_hits = w.hits() - hits_before;
        stats.waveform_misses = w.misses() - misses_before;
    }

    let WaveformStore {
        streaming,
        observed,
        traces,
        drives,
        active,
        ..
    } = store;
    stats.events = active.iter().filter(|&&a| a).count();

    // Mirror the per-run stats into the global metric registry. Every value
    // is a deterministic function of the workload (pinned at 1/2/8 threads by
    // the netsim determinism tests), so counter snapshots stay bit-identical
    // across thread schedules.
    mcsm_obs::counters(&[
        ("netsim.runs", 1),
        ("netsim.levels", level_count),
        ("netsim.gates_simulated", stats.gates_simulated as u64),
        ("netsim.gates_skipped", stats.gates_skipped as u64),
        ("netsim.gates_reused", stats.gates_reused as u64),
        ("netsim.events", stats.events as u64),
        ("netsim.cache_hits", stats.cache_hits as u64),
        ("netsim.cache_misses", stats.cache_misses as u64),
        ("netsim.waveform_hits", stats.waveform_hits as u64),
        ("netsim.waveform_misses", stats.waveform_misses as u64),
        ("netsim.recoveries", stats.recoveries.len() as u64),
        (
            "netsim.breakpoints_dropped",
            stats.breakpoints_dropped as u64,
        ),
    ]);
    mcsm_obs::gauge_max(
        "netsim.peak_live_waveforms",
        stats.peak_live_waveforms as f64,
    );
    if run_span.enabled() {
        run_span.arg("levels", level_count as f64);
        run_span.arg("solved", stats.gates_simulated as f64);
        run_span.arg("skipped", stats.gates_skipped as f64);
        run_span.arg("reused", stats.gates_reused as f64);
        run_span.arg("recovered", stats.recoveries.len() as f64);
    }

    // Netlist validation guarantees every net is a primary input or a gate
    // output, so a non-streamed schedule reaches all of them; a streamed run
    // intentionally holds `None` for released interior nets.
    if !streaming {
        for (net, (waveform, drive)) in netlist.net_refs().zip(traces.iter().zip(&drives)) {
            if waveform.is_none() || drive.is_none() {
                return Err(NetsimError::InvalidParameter(format!(
                    "net `{}` was never reached by the schedule",
                    netlist.net_name(net)
                )));
            }
        }
    }

    Ok(NetsimResult {
        waveforms: traces,
        net_names: netlist
            .net_refs()
            .map(|n| netlist.net_name(n).to_string())
            .collect(),
        vdd,
        stats,
        drives,
        active,
        observed,
        streamed: streaming,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsm_cells::cell::CellKind;
    use mcsm_cells::tech::Technology;
    use mcsm_core::config::CharacterizationConfig;
    use mcsm_core::sim::CsmSimOptions;
    use mcsm_net::{inverter_chain, nand_chain, NetlistBuilder};
    use mcsm_sta::delaycalc::DelayBackend;

    fn library() -> ModelLibrary {
        ModelLibrary::characterize(
            &Technology::cmos_130nm(),
            &[CellKind::Inverter, CellKind::Nand2, CellKind::Nor2],
            &CharacterizationConfig::coarse(),
        )
        .unwrap()
    }

    fn options(vdd: f64) -> NetsimOptions {
        NetsimOptions::new(
            DelayCalculator::new(
                DelayBackend::CompleteMcsm,
                CsmSimOptions::new(4e-9, 2e-12),
                vdd,
            ),
            2e-15,
        )
    }

    #[test]
    fn drive_span_is_exact_for_analytic_and_sampled_shapes() {
        let ramp = DriveWaveform::rising_ramp(1.2, 1e-9, 100e-12);
        let (lo, hi) = drive_span(&ramp, 4e-9);
        assert_eq!((lo, hi), (0.0, 1.2));
        // A ramp that starts after the window never registers as an event.
        let late = DriveWaveform::rising_ramp(1.2, 9e-9, 100e-12);
        let (lo, hi) = drive_span(&late, 4e-9);
        assert_eq!((lo, hi), (0.0, 0.0));
        let dc = DriveWaveform::dc(0.7);
        assert_eq!(drive_span(&dc, 4e-9), (0.7, 0.7));
        // A pulse's peak is a breakpoint, so a mid-window pulse is caught
        // even though its endpoints sit at the base level.
        let pulse = DriveWaveform::Analytic(mcsm_spice::source::SourceWaveform::Pulse {
            base: 0.0,
            peak: 1.2,
            t_delay: 1e-9,
            t_rise: 50e-12,
            t_width: 100e-12,
            t_fall: 50e-12,
        });
        let (lo, hi) = drive_span(&pulse, 4e-9);
        assert_eq!((lo, hi), (0.0, 1.2));
        let sampled = DriveWaveform::Sampled(
            Waveform::new(vec![0.0, 1e-9, 2e-9], vec![0.1, 0.9, 0.2]).unwrap(),
        );
        let (lo, hi) = drive_span(&sampled, 4e-9);
        assert_eq!((lo, hi), (0.1, 0.9));
        // Samples beyond the window do not count.
        let (lo, hi) = drive_span(&sampled, 0.5e-9);
        assert!((lo - 0.1).abs() < 1e-12 && (hi - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drive_to_waveform_keeps_breakpoints_and_passthrough() {
        let ramp = DriveWaveform::falling_ramp(1.2, 1e-9, 100e-12);
        let w = drive_to_waveform(&ramp, 4e-9).unwrap();
        assert_eq!(w.times(), &[0.0, 1e-9, 1e-9 + 100e-12, 4e-9]);
        assert_eq!(w.values(), &[1.2, 1.2, 0.0, 0.0]);
        let dc = drive_to_waveform(&DriveWaveform::dc(0.3), 4e-9).unwrap();
        assert_eq!(dc.len(), 2);
        assert_eq!(dc.final_value(), 0.3);
        let inner = Waveform::new(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap();
        let via_pwl =
            drive_to_waveform(&DriveWaveform::from_waveform(inner.clone()), 4e-9).unwrap();
        assert_eq!(&via_pwl, &inner);
    }

    #[test]
    fn quiescent_inputs_skip_every_gate() {
        let netlist = nand_chain(4);
        let library = library();
        let vdd = library.vdd();
        let mut drives = HashMap::new();
        for &pi in netlist.primary_inputs() {
            drives.insert(pi, DriveWaveform::dc(vdd));
        }
        let result = simulate_netlist(&netlist, &library, &drives, &options(vdd)).unwrap();
        let stats = result.stats();
        assert_eq!(stats.gates_simulated, 0);
        assert_eq!(stats.gates_skipped, 4);
        assert_eq!(stats.events, 0);
        // Full retention keeps a (flat) trace on every net.
        assert_eq!(stats.peak_live_waveforms, netlist.net_count());
        assert_eq!(stats.breakpoints_dropped, 0);
        // All-ones inputs: NAND chain alternates 0, 1, 0, 1 down the chain.
        let out = netlist.find_net("out").unwrap();
        assert_eq!(result.waveform(out).unwrap().final_value(), vdd);
        let n0 = netlist.find_net("n0").unwrap();
        assert_eq!(result.waveform(n0).unwrap().final_value(), 0.0);
        // No net ever crosses mid-rail.
        assert_eq!(result.arrival_any(out), None);
        assert!(!result.streamed());
        assert!(result.observed(n0));
    }

    #[test]
    fn events_propagate_only_through_the_active_cone() {
        // Two independent inverter chains; only one input switches.
        let netlist = NetlistBuilder::new("two_chains")
            .primary_input("a")
            .primary_input("b")
            .gate("ua0", CellKind::Inverter, &["a"], "a0")
            .gate("ua1", CellKind::Inverter, &["a0"], "aout")
            .gate("ub0", CellKind::Inverter, &["b"], "b0")
            .gate("ub1", CellKind::Inverter, &["b0"], "bout")
            .primary_output("aout")
            .primary_output("bout")
            .build()
            .unwrap();
        let library = library();
        let vdd = library.vdd();
        let mut drives = HashMap::new();
        drives.insert(
            netlist.find_net("a").unwrap(),
            DriveWaveform::rising_ramp(vdd, 1e-9, 80e-12),
        );
        drives.insert(netlist.find_net("b").unwrap(), DriveWaveform::dc(0.0));
        let result = simulate_netlist(&netlist, &library, &drives, &options(vdd)).unwrap();
        let stats = result.stats();
        assert_eq!(stats.gates_simulated, 2, "only the switching cone runs");
        assert_eq!(stats.gates_skipped, 2);
        // a, a0, aout saw events; b, b0, bout stayed quiet.
        assert_eq!(stats.events, 3);
        let aout = netlist.find_net("aout").unwrap();
        let (t, rising) = result.arrival_any(aout).unwrap();
        assert!(rising && t > 1e-9, "t = {t}");
        assert!(result.slew(aout, true).unwrap() > 0.0);
        // Double inversion of the quiet 0 V input settles back at 0 V.
        let bout = netlist.find_net("bout").unwrap();
        assert_eq!(result.waveform(bout).unwrap().final_value(), 0.0);
        assert_eq!(result.net_name(bout), "bout");
        assert_eq!(result.net_count(), netlist.net_count());
    }

    #[test]
    fn streaming_points_bound_memory_and_stay_bit_identical() {
        // A 24-stage inverter chain with a switching input: every interior
        // net carries an eventful waveform, so full retention holds ~26 live
        // traces while streaming holds a handful.
        let netlist = inverter_chain(24);
        let library = library();
        let vdd = library.vdd();
        let mut drives = HashMap::new();
        for &pi in netlist.primary_inputs() {
            drives.insert(pi, DriveWaveform::rising_ramp(vdd, 0.2e-9, 80e-12));
        }
        let out = netlist.primary_outputs()[0];
        let mid = netlist.find_net("n12").unwrap();
        let full = simulate_netlist(&netlist, &library, &drives, &options(vdd)).unwrap();
        assert!(!full.streamed());
        assert!(full.stats().peak_live_waveforms >= netlist.net_count() - 1);

        for threads in [1, 2, 8] {
            let streamed = simulate_netlist(
                &netlist,
                &library,
                &drives,
                &options(vdd)
                    .with_threads(threads)
                    .with_observe(Observe::Points(vec![mid])),
            )
            .unwrap();
            assert!(streamed.streamed());
            // Observed nets (the PO plus the requested point) are
            // bit-identical to the full run; interior nets are released.
            assert!(streamed.observed(out) && streamed.observed(mid));
            assert_eq!(streamed.waveform(out), full.waveform(out));
            assert_eq!(streamed.waveform(mid), full.waveform(mid));
            let n5 = netlist.find_net("n5").unwrap();
            assert!(!streamed.observed(n5));
            assert_eq!(streamed.waveform(n5), None);
            assert_eq!(streamed.arrival_any(n5), None);
            assert_eq!(streamed.slew(n5, true), None);
            // Event accounting is untouched by streaming…
            assert_eq!(streamed.stats().events, full.stats().events);
            // …but the live high-water mark collapses: a chain hands each
            // waveform to exactly one fanout, which releases it a level later.
            let peak = streamed.stats().peak_live_waveforms;
            assert!(
                peak <= 6,
                "peak_live_waveforms = {peak} for {} nets",
                netlist.net_count()
            );
        }

        // An out-of-range observation point is rejected up front.
        let bogus = Observe::Points(vec![NetRef::from_index(netlist.net_count())]);
        assert!(matches!(
            simulate_netlist(
                &netlist,
                &library,
                &drives,
                &options(vdd).with_observe(bogus)
            ),
            Err(NetsimError::InvalidParameter(_))
        ));
    }

    #[test]
    fn thinned_handoff_is_error_bounded_and_zero_eps_is_exact() {
        // 5 stages: the final (even-indexed) stage output actually toggles,
        // so `out` has a mid-rail crossing to compare.
        let netlist = nand_chain(5);
        let library = library();
        let vdd = library.vdd();
        let mut drives = HashMap::new();
        for (i, &pi) in netlist.primary_inputs().iter().enumerate() {
            drives.insert(
                pi,
                DriveWaveform::rising_ramp(vdd, 0.2e-9 + 30e-12 * i as f64, 80e-12),
            );
        }
        let exact = simulate_netlist(&netlist, &library, &drives, &options(vdd)).unwrap();

        // thin_eps = 0 is the identity: bit-identical everywhere, nothing
        // dropped.
        let zero = simulate_netlist(
            &netlist,
            &library,
            &drives,
            &options(vdd).with_thin_eps(0.0),
        )
        .unwrap();
        for net in netlist.net_refs() {
            assert_eq!(zero.waveform(net), exact.waveform(net));
        }
        assert_eq!(zero.stats().breakpoints_dropped, 0);

        // A loose bound prunes real breakpoints while the chain's final logic
        // levels survive (each stage's input error is bounded by eps, far
        // inside the gates' noise margins).
        let eps = 0.02;
        let thinned = simulate_netlist(
            &netlist,
            &library,
            &drives,
            &options(vdd).with_thin_eps(eps),
        )
        .unwrap();
        assert!(thinned.stats().breakpoints_dropped > 0);
        let out = netlist.find_net("out").unwrap();
        let t_exact = exact.arrival_any(out).unwrap();
        let t_thin = thinned.arrival_any(out).unwrap();
        assert_eq!(t_exact.1, t_thin.1, "edge polarity survives thinning");
        assert!(
            (t_exact.0 - t_thin.0).abs() < 100e-12,
            "arrival moved {} ps",
            (t_exact.0 - t_thin.0).abs() * 1e12
        );
        // NaN / negative bounds are rejected like bad thresholds.
        assert!(matches!(
            simulate_netlist(
                &netlist,
                &library,
                &drives,
                &options(vdd).with_thin_eps(f64::NAN)
            ),
            Err(NetsimError::InvalidParameter(_))
        ));
    }

    #[test]
    fn warm_waveform_cache_skips_the_engine_bit_identically() {
        let netlist = mcsm_net::c17();
        let library = library();
        let vdd = library.vdd();
        let mut drives = HashMap::new();
        for (i, &pi) in netlist.primary_inputs().iter().enumerate() {
            drives.insert(
                pi,
                DriveWaveform::falling_ramp(vdd, 1e-9 + 20e-12 * i as f64, 80e-12),
            );
        }
        let plain = simulate_netlist(&netlist, &library, &drives, &options(vdd)).unwrap();

        let delay = DelayCache::new();
        let memo = WaveformCache::new();
        let caches = SimCaches {
            delay: &delay,
            waveforms: Some(&memo),
        };
        let cold =
            simulate_netlist_cached(&netlist, &library, &drives, &options(vdd), caches).unwrap();
        let warm =
            simulate_netlist_cached(&netlist, &library, &drives, &options(vdd), caches).unwrap();
        for net in netlist.net_refs() {
            assert_eq!(plain.waveform(net), cold.waveform(net));
            assert_eq!(plain.waveform(net), warm.waveform(net));
        }
        // The cold run solved every eventful gate once; the warm repeat
        // answered all of them from the memo without touching the engine.
        let solved = cold.stats().gates_simulated;
        assert!(solved > 0);
        assert_eq!(cold.stats().waveform_misses, solved);
        assert_eq!(cold.stats().waveform_hits, 0);
        assert_eq!(warm.stats().waveform_misses, 0);
        assert_eq!(warm.stats().waveform_hits, solved);
    }

    #[test]
    fn incremental_resim_touches_only_the_cone_and_pins_full_equality() {
        let mut netlist = mcsm_net::c17();
        let library = library();
        let vdd = library.vdd();
        let mut drives = HashMap::new();
        for (i, &pi) in netlist.primary_inputs().iter().enumerate() {
            drives.insert(
                pi,
                DriveWaveform::falling_ramp(vdd, 1e-9 + 20e-12 * i as f64, 80e-12),
            );
        }
        let delay = DelayCache::new();
        let caches = SimCaches {
            delay: &delay,
            waveforms: None,
        };
        let baseline =
            simulate_netlist_cached(&netlist, &library, &drives, &options(vdd), caches).unwrap();

        // ECO: bump the load on output net N22 — only its driver g22 resolves.
        let n22 = netlist.find_net("N22").unwrap();
        netlist.set_net_load(n22, 1e-15).unwrap();
        let seeds = crate::schedule::seeds_for_load_change(&netlist, n22);
        for threads in [1, 2, 8] {
            let incremental = resimulate_netlist(
                &netlist,
                &library,
                &drives,
                &options(vdd).with_threads(threads),
                caches,
                &baseline,
                &seeds,
            )
            .unwrap();
            let full = simulate_netlist(
                &netlist,
                &library,
                &drives,
                &options(vdd).with_threads(threads),
            )
            .unwrap();
            for net in netlist.net_refs() {
                assert_eq!(
                    incremental.waveform(net),
                    full.waveform(net),
                    "net {} at {} threads",
                    netlist.net_name(net),
                    threads
                );
            }
            let stats = incremental.stats();
            assert_eq!(stats.gates_simulated + stats.gates_skipped, 1);
            assert_eq!(stats.gates_reused, 5);
        }

        // A stale previous result from a different netlist is rejected.
        let other = nand_chain(2);
        assert!(matches!(
            resimulate_netlist(
                &other,
                &library,
                &drives,
                &options(vdd),
                caches,
                &baseline,
                &[]
            ),
            Err(NetsimError::InvalidParameter(_))
        ));

        // A streamed previous result released its interior waveforms and is
        // rejected, as is a streamed re-run.
        let streamed = simulate_netlist(
            &netlist,
            &library,
            &drives,
            &options(vdd).with_observe(Observe::Points(vec![])),
        )
        .unwrap();
        assert!(matches!(
            resimulate_netlist(
                &netlist,
                &library,
                &drives,
                &options(vdd),
                caches,
                &streamed,
                &seeds
            ),
            Err(NetsimError::InvalidParameter(_))
        ));
        assert!(matches!(
            resimulate_netlist(
                &netlist,
                &library,
                &drives,
                &options(vdd).with_observe(Observe::Points(vec![n22])),
                caches,
                &baseline,
                &seeds
            ),
            Err(NetsimError::InvalidParameter(_))
        ));
    }

    #[test]
    fn sequential_netlists_are_rejected_with_a_pointer_to_seq() {
        let netlist = mcsm_net::s27();
        let library = library();
        let vdd = library.vdd();
        let mut drives = HashMap::new();
        for &pi in netlist.primary_inputs() {
            drives.insert(pi, DriveWaveform::dc(0.0));
        }
        let err = simulate_netlist(&netlist, &library, &drives, &options(vdd)).unwrap_err();
        assert!(matches!(err, NetsimError::SequentialNetlist { .. }));
        let msg = err.to_string();
        assert!(msg.contains("simulate_sequential"), "{msg}");
    }

    #[test]
    fn missing_and_misplaced_drives_are_rejected() {
        let netlist = nand_chain(2);
        let library = library();
        let vdd = library.vdd();
        let mut drives = HashMap::new();
        drives.insert(netlist.find_net("in").unwrap(), DriveWaveform::dc(vdd));
        assert!(matches!(
            simulate_netlist(&netlist, &library, &drives, &options(vdd)),
            Err(NetsimError::MissingDrive(_))
        ));
        for &pi in netlist.primary_inputs() {
            drives.insert(pi, DriveWaveform::dc(vdd));
        }
        drives.insert(netlist.find_net("out").unwrap(), DriveWaveform::dc(0.0));
        assert!(matches!(
            simulate_netlist(&netlist, &library, &drives, &options(vdd)),
            Err(NetsimError::DrivenInternalNet(ref net)) if net == "out"
        ));
        drives.remove(&netlist.find_net("out").unwrap());
        assert!(matches!(
            simulate_netlist(
                &netlist,
                &library,
                &drives,
                &options(vdd).with_event_threshold(f64::NAN),
            ),
            Err(NetsimError::InvalidParameter(_))
        ));
    }
}
