//! Sequential static timing: worst-path setup/hold slack over the
//! register-bounded cones.
//!
//! Signoff timing needs the **latest** (and, for hold, the earliest) arrival
//! any input vector could produce at each register D pin — a property no
//! single functional simulation exhibits. This module therefore runs a
//! classic topological min/max arrival propagation over the comb cone of a
//! [`SeqNetlist`], with every per-pin gate delay produced by the same
//! current-source models the simulator uses: pin `p` of a gate is sensitized
//! (the other pins held at rails that make the output follow pin `p`), a
//! saturated ramp of the path's slew drives it through
//! [`DelayCalculator::gate_output_cached`], and the measured 50 % delay and
//! output transition time propagate `arrival + delay` per direction.
//!
//! Delays are memoized per (cell, pin, input direction, slew bucket, load
//! bucket) shape in a caller-owned [`PinDelayMemo`], so an analysis costs one
//! single-gate solve per distinct shape rather than per gate instance, and a
//! memo kept across analyses — the query server keeps one per clocked
//! session — re-solves only the shapes it has not met before. Each shape is
//! solved at its bucket's representative slew and load, so a memo value is a
//! pure function of its key and a report never depends on what the memo
//! served earlier: an analysis through a warm memo is bit-identical to one
//! through an empty memo. The memo empties itself when handed a different
//! calculator and, after each successful analysis, keeps only the shapes that
//! analysis used.
//!
//! Launch timeline matches the epoch scheduler ([`crate::epoch`]): primary
//! inputs switch at `t0 = 2*clock.slew` with the configured input slew;
//! register Q pins switch a characterized clk-to-q after their
//! insertion-delayed launch edge. Endpoint arithmetic (required times,
//! setup/hold windows from characterized [`RegisterModel`]s) is
//! [`mcsm_sta::slack`]; the worst setup arrival uses the latest path, the
//! hold check the earliest. A negative setup slack here is cross-checked by
//! the test suite against an epoch simulation showing the late transition at
//! the capture instant.
//!
//! [`RegisterModel`]: mcsm_core::characterize::registers::RegisterModel
//! [`DelayCalculator::gate_output_cached`]: mcsm_sta::DelayCalculator::gate_output_cached

use crate::epoch::epoch_t0;
use crate::error::SeqError;
use crate::partition::{NetSource, SeqNetlist};
use mcsm_cells::cell::CellKind;
use mcsm_core::sim::DriveWaveform;
use mcsm_net::Netlist;
use mcsm_netsim::effective_load;
use mcsm_sta::{
    output_endpoint, register_endpoint, ClockSpec, DelayCache, DelayCalculator, EndpointSlack,
    ModelLibrary, SlackReport,
};
use std::collections::HashMap;

/// Options for sequential timing analysis.
#[derive(Debug, Clone)]
pub struct SeqTimingOptions {
    /// Per-pin delay solves (backend, stepping, supply). The window
    /// (`calculator.sim.t_stop`) must be long enough for a single gate
    /// solve: a few input slews plus the gate delay.
    pub calculator: DelayCalculator,
    /// Additional lumped load on every primary output (farads).
    pub primary_output_load: f64,
    /// Transition time of primary-input launch ramps (seconds).
    pub pi_slew: f64,
}

impl SeqTimingOptions {
    /// Sequential timing options with a 50 ps input slew.
    pub fn new(calculator: DelayCalculator, primary_output_load: f64) -> Self {
        SeqTimingOptions {
            calculator,
            primary_output_load,
            pi_slew: 50e-12,
        }
    }

    /// Sets the primary-input transition time.
    #[must_use]
    pub fn with_pi_slew(mut self, seconds: f64) -> Self {
        self.pi_slew = seconds;
        self
    }
}

/// One path head: `(arrival of the 50 % crossing, transition time)`.
type Point = (f64, f64);

/// Earliest/latest path heads reaching a net with one transition direction.
#[derive(Debug, Clone, Copy, Default)]
struct DirBand {
    earliest: Option<Point>,
    latest: Option<Point>,
}

impl DirBand {
    fn seed(point: Point) -> Self {
        DirBand {
            earliest: Some(point),
            latest: Some(point),
        }
    }

    fn merge_earliest(&mut self, point: Point) {
        if self.earliest.is_none_or(|(t, _)| point.0 < t) {
            self.earliest = Some(point);
        }
    }

    fn merge_latest(&mut self, point: Point) {
        if self.latest.is_none_or(|(t, _)| point.0 > t) {
            self.latest = Some(point);
        }
    }
}

/// Rise/fall arrival bands on one net.
#[derive(Debug, Clone, Copy, Default)]
struct NetBands {
    bands: [DirBand; 2],
}

fn dir(rising: bool) -> usize {
    usize::from(!rising)
}

impl NetBands {
    fn latest(&self) -> Option<Point> {
        let mut best: Option<Point> = None;
        for band in &self.bands {
            if let Some(point) = band.latest {
                if best.is_none_or(|(t, _)| point.0 > t) {
                    best = Some(point);
                }
            }
        }
        best
    }

    fn earliest(&self) -> Option<Point> {
        let mut best: Option<Point> = None;
        for band in &self.bands {
            if let Some(point) = band.earliest {
                if best.is_none_or(|(t, _)| point.0 < t) {
                    best = Some(point);
                }
            }
        }
        best
    }
}

/// Memo key for one sensitized pin delay: cell, pin, input direction, input
/// slew (femtosecond bucket) and output load (attofarad bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PinKey {
    kind: CellKind,
    pin: usize,
    in_rising: bool,
    slew_fs: u64,
    load_af: u64,
}

/// One memoized pin delay and the analysis that last used it.
#[derive(Debug, Clone, Copy)]
struct PinDelay {
    delay: f64,
    out_slew: f64,
    out_rising: bool,
    used_in: u64,
}

/// Sensitized per-pin delays, memoized across [`analyze_sequential`] calls.
///
/// Keyed by (cell, pin, input direction, input slew in femtoseconds, output
/// load in attofarads). Each value is solved at its bucket's representative
/// slew and load — `slew_fs × 1 fs` (at least 1 fs) and `load_af × 1 aF` —
/// never at whichever exact values reached the bucket first, so it is a pure
/// function of its key: an analysis through a warm memo returns exactly the
/// report an empty memo gives.
///
/// The memo records the [`DelayCalculator`] it was filled under and empties
/// itself when an analysis hands it a different one (another backend,
/// window or time step). After each successful analysis it keeps only the
/// shapes that analysis used, so its size stays that of one analysis
/// however many edits come between analyses.
///
/// **Scope: one model library per memo**, as for [`DelayCache`]: the key
/// identifies the pin shape, not the library it was solved against, so a
/// memo must only ever be used with one `ModelLibrary`; a caller that swaps
/// libraries starts a new memo.
#[derive(Debug, Default)]
pub struct PinDelayMemo {
    calculator: Option<DelayCalculator>,
    entries: HashMap<PinKey, PinDelay>,
    /// Number of the latest analysis; entries stamped with it were used by
    /// that analysis.
    analysis: u64,
    solves: usize,
    hits: usize,
}

impl PinDelayMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        PinDelayMemo::default()
    }

    /// Number of memoized pin shapes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo holds no pin shapes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pin shapes the latest analysis had to solve.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Pin-delay lookups the latest analysis answered from the memo.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Opens an analysis under `calculator`: empties the memo if it was
    /// filled under another calculator, and resets the per-analysis counts.
    fn begin(&mut self, calculator: &DelayCalculator) {
        if self.calculator.as_ref() != Some(calculator) {
            self.entries.clear();
            self.calculator = Some(calculator.clone());
        }
        self.analysis += 1;
        self.solves = 0;
        self.hits = 0;
    }

    /// Closes a successful analysis: drops every shape it did not use.
    fn retain_used(&mut self) {
        let analysis = self.analysis;
        self.entries.retain(|_, entry| entry.used_in == analysis);
    }
}

/// Finds rail values for the non-switching pins that make the output follow
/// pin `pin`, plus the output direction for a rising/falling input. Returns
/// `None` if no static side-input assignment sensitizes the pin (which would
/// make the cell untimeable path-by-path).
fn sensitize(kind: CellKind, pin: usize) -> Option<(Vec<bool>, bool)> {
    let n = kind.input_count();
    let others: Vec<usize> = (0..n).filter(|&i| i != pin).collect();
    for assignment in 0..(1u32 << others.len()) {
        let mut logic = vec![false; n];
        for (bit, &other) in others.iter().enumerate() {
            logic[other] = (assignment >> bit) & 1 == 1;
        }
        logic[pin] = false;
        let out_low_pin = kind.evaluate(&logic);
        logic[pin] = true;
        let out_high_pin = kind.evaluate(&logic);
        if out_low_pin != out_high_pin {
            logic[pin] = false; // return side values only
            return Some((logic, out_high_pin));
        }
    }
    None
}

/// The 50 % delay, output transition time and output direction of pin `pin`
/// of a `kind` gate driven by an `in_slew` ramp into `load`.
///
/// A memo hit answers without allocating and stamps the shape as used by the
/// current analysis. A miss sensitizes the pin and runs one single-gate CSM
/// solve at the bucket's representative slew and load (see
/// [`PinDelayMemo`]), then memoizes the result.
#[allow(clippy::too_many_arguments)]
fn pin_delay(
    library: &ModelLibrary,
    calculator: &DelayCalculator,
    cache: &DelayCache,
    memo: &mut PinDelayMemo,
    kind: CellKind,
    pin: usize,
    in_rising: bool,
    in_slew: f64,
    load: f64,
) -> Result<(f64, f64, bool), SeqError> {
    let key = PinKey {
        kind,
        pin,
        in_rising,
        slew_fs: (in_slew * 1e15).round().max(1.0) as u64,
        load_af: DelayCache::load_bucket(load),
    };
    if let Some(entry) = memo.entries.get_mut(&key) {
        entry.used_in = memo.analysis;
        memo.hits += 1;
        return Ok((entry.delay, entry.out_slew, entry.out_rising));
    }

    let (side_values, out_rises_with_pin) = sensitize(kind, pin).ok_or_else(|| {
        SeqError::Unsupported(format!(
            "no static side-input assignment sensitizes pin {pin} of {}",
            kind.name()
        ))
    })?;
    // Output direction: the output follows (or inverts) the pin.
    let out_rising = if out_rises_with_pin {
        in_rising
    } else {
        !in_rising
    };
    let in_slew = key.slew_fs as f64 * 1e-15;
    let load = key.load_af as f64 * 1e-18;
    let vdd = calculator.vdd;
    let t_start = 4.0 * in_slew;
    let t_in50 = t_start + 0.5 * in_slew;
    let mut inputs = Vec::with_capacity(kind.input_count());
    for (i, &side) in side_values.iter().enumerate() {
        if i == pin {
            inputs.push(if in_rising {
                DriveWaveform::rising_ramp(vdd, t_start, in_slew)
            } else {
                DriveWaveform::falling_ramp(vdd, t_start, in_slew)
            });
        } else {
            inputs.push(DriveWaveform::dc(if side { vdd } else { 0.0 }));
        }
    }
    let waveform =
        calculator.gate_output_cached(library.store(kind)?, kind, &inputs, load, Some(cache))?;
    let t_out50 = waveform.crossing(0.5 * vdd, out_rising).ok_or_else(|| {
        SeqError::InvalidParameter(format!(
            "{} pin {pin} output never crossed 50% within the analysis window \
             ({:.3e} s) — raise the calculator's t_stop",
            kind.name(),
            calculator.sim.t_stop
        ))
    })?;
    let out_slew = waveform.transition_time(vdd, out_rising).unwrap_or(in_slew);
    let delay = t_out50 - t_in50;
    memo.solves += 1;
    memo.entries.insert(
        key,
        PinDelay {
            delay,
            out_slew,
            out_rising,
            used_in: memo.analysis,
        },
    );
    Ok((delay, out_slew, out_rising))
}

/// Analyzes setup/hold slack of every register D pin and primary output of a
/// sequential netlist against `clock`.
///
/// The `library` must hold a register model for every register kind (see
/// `ModelLibrary::characterize_registers`) plus combinational models for the
/// cone's gates.
///
/// Per-pin delays come from `memo`, which solves only the pin shapes it has
/// not met before (see [`PinDelayMemo`]); a caller that keeps no state
/// passes `&mut PinDelayMemo::default()`. The report is the same for any
/// memo. Each call adds its solve and hit counts to the
/// `seq.pin_delay.{solves,hits}` counters inside a `seq.slack` span.
///
/// # Errors
///
/// Propagates partitioning failures, clock validation failures
/// ([`SeqError::ClockMismatch`], [`SeqError::Sta`]), missing models, and
/// per-pin solve failures.
pub fn analyze_sequential(
    netlist: &Netlist,
    library: &ModelLibrary,
    clock: &ClockSpec,
    options: &SeqTimingOptions,
    memo: &mut PinDelayMemo,
) -> Result<SlackReport, SeqError> {
    let mut span = mcsm_obs::span("seq.slack");
    memo.begin(&options.calculator);
    let report = analyze(netlist, library, clock, options, memo);
    if report.is_ok() {
        memo.retain_used();
    }
    span.arg("pin_solves", memo.solves as f64);
    span.arg("pin_hits", memo.hits as f64);
    mcsm_obs::counters(&[
        ("seq.pin_delay.solves", memo.solves as u64),
        ("seq.pin_delay.hits", memo.hits as u64),
    ]);
    report
}

/// [`analyze_sequential`] inside the memo's analysis bracket.
fn analyze(
    netlist: &Netlist,
    library: &ModelLibrary,
    clock: &ClockSpec,
    options: &SeqTimingOptions,
    memo: &mut PinDelayMemo,
) -> Result<SlackReport, SeqError> {
    let seq = SeqNetlist::partition(netlist)?;
    clock.validate().map_err(SeqError::Sta)?;
    let clock_name = netlist.net_name(seq.clock_net());
    if clock.clock != clock_name {
        return Err(SeqError::ClockMismatch(format!(
            "clock spec is for `{}` but the netlist's clock net is `{clock_name}`",
            clock.clock
        )));
    }
    if !(options.pi_slew > 0.0) {
        return Err(SeqError::InvalidParameter(format!(
            "pi_slew must be positive, got {}",
            options.pi_slew
        )));
    }

    let t0 = epoch_t0(clock);
    let cache = DelayCache::new();

    // Per-register launch points (50 % crossing of the Q ramp) per direction,
    // shared by cone seeding and direct-path endpoints.
    let mut q_launch: Vec<[Point; 2]> = Vec::with_capacity(seq.registers().len());
    for reg in seq.registers() {
        let model = library.register(reg.kind)?;
        let load = effective_load(
            netlist,
            library,
            &cache,
            reg.q_net,
            options.primary_output_load,
        )?;
        let insertion = clock.insertion_of(&reg.name);
        let mut points = [(0.0, 0.0); 2];
        for rising in [true, false] {
            let (delay, slew) = model.clk_to_q(load, rising)?;
            points[dir(rising)] = (t0 + insertion + delay, slew);
        }
        q_launch.push(points);
    }

    let source_bands = |source: NetSource| -> NetBands {
        let mut bands = NetBands::default();
        match source {
            NetSource::PrimaryInput(_) => {
                let point = (t0 + 0.5 * options.pi_slew, options.pi_slew);
                bands.bands = [DirBand::seed(point), DirBand::seed(point)];
            }
            NetSource::RegisterQ(idx) => {
                for rising in [true, false] {
                    bands.bands[dir(rising)] = DirBand::seed(q_launch[idx][dir(rising)]);
                }
            }
            NetSource::CombGate(_) => unreachable!("cone inputs are never comb-driven"),
        }
        bands
    };

    // Min/max arrival propagation over the comb cone in level order.
    let comb_bands: Option<Vec<NetBands>> = match seq.comb() {
        None => None,
        Some(comb) => {
            let mut bands: Vec<NetBands> = vec![NetBands::default(); comb.net_count()];
            for &(comb_net, source) in seq.comb_inputs() {
                bands[comb_net.index()] = source_bands(source);
            }
            let schedule = comb.levels();
            for level in schedule.iter() {
                for &gate in level {
                    let kind = comb.gate_kind(gate);
                    let out = comb.output_of(gate);
                    let load =
                        effective_load(comb, library, &cache, out, options.primary_output_load)?;
                    for (pin, &in_net) in comb.inputs_of(gate).iter().enumerate() {
                        for in_rising in [true, false] {
                            let band = bands[in_net.index()].bands[dir(in_rising)];
                            for (is_latest, point) in [(false, band.earliest), (true, band.latest)]
                            {
                                let Some((arrival, slew)) = point else {
                                    continue;
                                };
                                let (delay, out_slew, out_rising) = pin_delay(
                                    library,
                                    &options.calculator,
                                    &cache,
                                    memo,
                                    kind,
                                    pin,
                                    in_rising,
                                    slew,
                                    load,
                                )?;
                                let head = (arrival + delay, out_slew);
                                let out_band = &mut bands[out.index()].bands[dir(out_rising)];
                                if is_latest {
                                    out_band.merge_latest(head);
                                } else {
                                    out_band.merge_earliest(head);
                                }
                            }
                        }
                    }
                }
            }
            Some(bands)
        }
    };

    let bands_of = |source: NetSource| -> Result<NetBands, SeqError> {
        match source {
            NetSource::CombGate(orig_net) => {
                let comb = seq.comb().expect("comb-driven sources imply a cone");
                let net = comb.find_net(netlist.net_name(orig_net))?;
                Ok(comb_bands.as_ref().expect("cone was propagated")[net.index()])
            }
            direct => Ok(source_bands(direct)),
        }
    };

    let mut endpoints: Vec<EndpointSlack> =
        Vec::with_capacity(seq.registers().len() + seq.po_sources().len());
    for (idx, reg) in seq.registers().iter().enumerate() {
        let model = library.register(reg.kind)?;
        let bands = bands_of(seq.d_sources()[idx])?;
        let (arrival, slew) = split(bands.latest(), t0);
        let mut endpoint = register_endpoint(model, clock, &reg.name, arrival, slew)?;
        // Setup uses the latest path; hold must use the earliest one — the
        // first post-launch-edge transition is what can race the hold window.
        if let Some((t, early_slew)) = bands.earliest() {
            let hold = model.hold_time(early_slew).map_err(SeqError::Model)?;
            endpoint.hold = hold;
            endpoint.hold_slack = Some((t - t0) - (clock.insertion_of(&reg.name) + hold));
        }
        endpoints.push(endpoint);
    }
    for (&po, &source) in netlist.primary_outputs().iter().zip(seq.po_sources()) {
        let (arrival, slew) = split(bands_of(source)?.latest(), t0);
        endpoints.push(output_endpoint(clock, netlist.net_name(po), arrival, slew));
    }
    Ok(SlackReport::new(endpoints))
}

/// Converts a path head on the epoch timeline into `t0`-relative
/// `(arrival, slew)` options for the slack arithmetic.
fn split(point: Option<Point>, t0: f64) -> (Option<f64>, Option<f64>) {
    match point {
        Some((t, slew)) => (Some(t - t0), Some(slew)),
        None => (None, None),
    }
}
