//! Per-gate delay calculation: input waveforms in, output waveform out.
//!
//! This is where a timing tool chooses which model *family* to evaluate; the
//! evaluation itself is uniform — every backend resolves to a `dyn CellModel`
//! through [`ModelStore::resolve`] and runs through the one generic engine in
//! `mcsm_core::sim`. The four backends mirror the paper's comparison:
//!
//! * [`DelayBackend::SisOnly`] — always use the single-input-switching model of
//!   the first switching pin (what a conventional STA tool does even for MIS
//!   events);
//! * [`DelayBackend::BaselineMis`] — use the MIS model that ignores the internal
//!   node (Section 3.1);
//! * [`DelayBackend::CompleteMcsm`] — use the complete MCSM where available
//!   (Sections 3.2–3.3), falling back to the baseline and then SIS models for
//!   two-input cells that do not have internal-node tables;
//! * [`DelayBackend::Selective`] — the paper's §3.4 mode: a
//!   [`SelectivePolicy`] picks the complete or the simple MIS model per gate
//!   from the load it drives.
//!
//! Cells with more than two inputs are only coverable by `SisOnly` today (the
//! characterization flow produces 2-input MIS/MCSM tables); requesting a MIS
//! backend for them is a reported error, never a silent SIS downgrade.
//!
//! Every gate evaluation runs the engine's allocation-free LUT fast path: the
//! engine builds one `EvalState` (a lookup cursor per model table grid) per
//! gate simulation and reuses it across all of that gate's sub-steps, so table
//! lookups are O(1) amortized over the whole waveform sweep. Setting
//! [`CsmSimOptions::eval`] to `EvalMode::Reference` in the calculator's `sim`
//! options retains the historical allocating `LutNd::eval` path — bit-identical
//! by construction, pinned in `tests/lut_fastpath.rs` at 1/2/8 threads and
//! gated for speedup by the `sim_hotpath` benchmark.

use crate::error::StaError;
use mcsm_cells::cell::CellKind;
use mcsm_core::selective::{ModelChoice, SelectivePolicy};
use mcsm_core::sim::{simulate, CsmSimOptions, DriveWaveform};
use mcsm_core::store::{ModelBackend, ModelStore};
use mcsm_core::CsmError;
use mcsm_spice::waveform::Waveform;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

/// Which model family the calculator prefers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayBackend {
    /// Single-input-switching models only.
    SisOnly,
    /// Multiple-input-switching model without internal-node state.
    BaselineMis,
    /// The complete MCSM (internal node modeled).
    CompleteMcsm,
    /// Selective modeling (Section 3.4): per gate, the policy compares the
    /// driven load against the cell's own output capacitance and picks the
    /// complete MCSM (light load) or the simple MIS model (heavy load).
    Selective(SelectivePolicy),
}

/// The model family a backend's fallback chain resolved to for one
/// `(cell, backend, load-bucket)` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ResolvedFamily {
    /// Run the complete MCSM.
    Mcsm,
    /// Run the baseline MIS model.
    Baseline,
    /// Run a SIS model. The concrete pin is picked per event from the input
    /// waveforms, so it is deliberately not part of the cached decision.
    Sis,
}

/// Cache key fragment identifying a backend: a discriminant plus, for
/// [`DelayBackend::Selective`], the policy threshold bits.
type BackendKey = (u8, u64);

/// A memoization cache for the per-gate work that depends only on
/// `(cell kind, backend, load bucket)` — not on the input waveforms:
///
/// * which model **family** the backend's fallback chain resolves to (for the
///   selective backend this includes the §3.4 load-ratio decision);
/// * the **input pin capacitance** a cell presents on one of its pins, used to
///   build lumped loads (keyed by `(kind, pin)` alone, since it is always
///   queried at mid rail).
///
/// Loads are quantized to attofarad buckets ([`DelayCache::load_bucket`]), far
/// below any physically meaningful capacitance difference in these models;
/// load-dependent decisions (the §3.4 selective choice) are evaluated at the
/// bucket center so the cached value is a pure function of its key.
///
/// **Scope: one model library per cache.** The cached values are pure
/// functions of `(key, store contents)`, and the key deliberately does not
/// identify the store — so a cache must only ever be consulted against one
/// set of [`ModelStore`]s (one `ModelLibrary`), as `mcsm_netsim` does by
/// creating a fresh cache per run. Within that scope, sharing the cache
/// across threads (via `Arc` or a scoped borrow) cannot change results:
/// concurrent fills of the same key write the same value. Reusing a cache
/// against a *different* library returns that library the first library's
/// decisions — don't.
#[derive(Debug, Default)]
pub struct DelayCache {
    families: RwLock<HashMap<(CellKind, BackendKey, u64), ResolvedFamily>>,
    pin_caps: RwLock<HashMap<(CellKind, usize), f64>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl DelayCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        DelayCache::default()
    }

    /// Quantizes a lumped load to its cache bucket (attofarad resolution).
    pub fn load_bucket(load_capacitance: f64) -> u64 {
        (load_capacitance * 1e18).round().max(0.0) as u64
    }

    /// Number of lookups answered from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to compute their value.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of cached entries (family resolutions plus pin capacitances).
    pub fn len(&self) -> usize {
        self.families.read().expect("family cache poisoned").len()
            + self
                .pin_caps
                .read()
                .expect("pin-capacitance cache poisoned")
                .len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry and resets the hit/miss counters. The
    /// required reset when a cache outlives its model library (see the scope
    /// note above) — a long-running session that swaps libraries clears
    /// instead of allocating a fresh cache.
    pub fn clear(&self) {
        self.families
            .write()
            .expect("family cache poisoned")
            .clear();
        self.pin_caps
            .write()
            .expect("pin-capacitance cache poisoned")
            .clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// The memoized input pin capacitance for `(kind, pin)`, computing it with
    /// `compute` on the first request.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s failure (failures are not cached).
    pub fn pin_capacitance(
        &self,
        kind: CellKind,
        pin: usize,
        compute: impl FnOnce() -> Result<f64, StaError>,
    ) -> Result<f64, StaError> {
        if let Some(&value) = self
            .pin_caps
            .read()
            .expect("pin-capacitance cache poisoned")
            .get(&(kind, pin))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(value);
        }
        let value = compute()?;
        // Re-check under the write lock: a concurrent filler of the same key
        // counts as a hit, so exactly one miss is recorded per distinct key
        // and the hit/miss statistics are deterministic at any thread count.
        match self
            .pin_caps
            .write()
            .expect("pin-capacitance cache poisoned")
            .entry((kind, pin))
        {
            std::collections::hash_map::Entry::Occupied(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                slot.insert(value);
            }
        }
        Ok(value)
    }

    /// `compute` receives the bucket's **representative load** (its center,
    /// `bucket * 1 aF`), never the raw load: the cached value must be a pure
    /// function of the key, or two loads sharing a bucket but straddling a
    /// selective-policy threshold would make the cached family depend on
    /// which gate filled the cache first — a scheduling-dependent result.
    fn resolved_family(
        &self,
        kind: CellKind,
        backend: BackendKey,
        load_capacitance: f64,
        compute: impl FnOnce(f64) -> ResolvedFamily,
    ) -> ResolvedFamily {
        let bucket = Self::load_bucket(load_capacitance);
        let key = (kind, backend, bucket);
        if let Some(&family) = self
            .families
            .read()
            .expect("family cache poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return family;
        }
        let family = compute(bucket as f64 * 1e-18);
        // Re-check under the write lock (see `pin_capacitance`): one miss per
        // distinct key, deterministic statistics at any thread count.
        match self
            .families
            .write()
            .expect("family cache poisoned")
            .entry(key)
        {
            std::collections::hash_map::Entry::Occupied(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                slot.insert(family);
            }
        }
        family
    }
}

/// Key of one memoized gate solve: `(cell kind, backend, hash of the step
/// options and the canonical input-drive hashes, exact load bits)`.
type WaveformKey = (CellKind, BackendKey, u64, u64);

/// A memoization cache for entire gate solves: the output [`Waveform`] keyed
/// by `(cell kind, backend, input-waveform hash, load)`. A warm lookup skips
/// the numerical engine completely — this is what makes repeated queries
/// against a resident netlist cheap in the query server.
///
/// **Exact-bits bucketing.** Unlike [`DelayCache`], the load key is the exact
/// IEEE-754 bit pattern, *not* an attofarad bucket, and the input key is a
/// canonical content hash of the exact drive samples
/// ([`DriveWaveform::canonical_hash`]). Bucketing nearly-equal keys together
/// would let whichever gate fills the cache first decide the waveform its
/// bucket-mates receive — a scheduling-dependent result under parallel fills.
/// With exact keys, a cached solve is only ever returned for bit-identical
/// inputs, so memoized runs stay bit-identical to unmemoized runs at any
/// thread count. Warm *repeats* — the case that matters — present the same
/// bits and still hit.
///
/// **Scope: one model library per cache**, exactly as for [`DelayCache`]: the
/// key identifies the gate solve, not the library it was solved against.
/// [`WaveformCache::clear`] is the reset for sessions that swap libraries or
/// load another netlist.
///
/// Hit/miss counters use the same deterministic double-check pattern as
/// [`DelayCache`]: exactly one miss per distinct key at any thread count.
#[derive(Debug, Default)]
pub struct WaveformCache {
    solves: RwLock<HashMap<WaveformKey, Waveform>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl WaveformCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        WaveformCache::default()
    }

    /// Number of lookups answered from the cache so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to run the numerical engine.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of memoized gate solves.
    pub fn len(&self) -> usize {
        self.solves.read().expect("waveform cache poisoned").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized solve. The hit and miss counters keep counting
    /// across the call, so deltas a caller takes around it stay valid.
    pub fn clear(&self) {
        self.solves
            .write()
            .expect("waveform cache poisoned")
            .clear();
    }

    /// The memoized solve for `key`, computing it with `compute` on the first
    /// request. Failures are not cached.
    fn solve(
        &self,
        key: WaveformKey,
        compute: impl FnOnce() -> Result<Waveform, StaError>,
    ) -> Result<Waveform, StaError> {
        if let Some(cached) = self
            .solves
            .read()
            .expect("waveform cache poisoned")
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(cached.clone());
        }
        let waveform = compute()?;
        // Re-check under the write lock (see `DelayCache::pin_capacitance`):
        // a concurrent filler of the same key counts as a hit, so exactly one
        // miss is recorded per distinct key. Either copy may be returned —
        // concurrent fills of the same key compute bit-identical waveforms.
        match self
            .solves
            .write()
            .expect("waveform cache poisoned")
            .entry(key)
        {
            std::collections::hash_map::Entry::Occupied(slot) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(slot.get().clone())
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                slot.insert(waveform.clone());
                Ok(waveform)
            }
        }
    }
}

/// A waveform-based gate delay calculator.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayCalculator {
    /// Preferred model family.
    pub backend: DelayBackend,
    /// Time stepping used for the model simulation.
    pub sim: CsmSimOptions,
    /// Supply voltage (volts), used to derive initial logic levels.
    pub vdd: f64,
}

impl DelayCalculator {
    /// Creates a calculator.
    pub fn new(backend: DelayBackend, sim: CsmSimOptions, vdd: f64) -> Self {
        DelayCalculator { backend, sim, vdd }
    }

    fn initial_logic(&self, drive: &DriveWaveform) -> bool {
        drive.initial_value() > 0.5 * self.vdd
    }

    /// Computes the output waveform of one gate.
    ///
    /// `inputs` are the drive waveforms in pin order; `load_capacitance` is the
    /// lumped load at the gate output.
    ///
    /// # Errors
    ///
    /// * [`StaError::MissingModel`] if the store lacks every usable model family
    ///   for this cell and backend — including the case of a 3-input cell
    ///   requested with a MIS backend, for which only 2-input tables exist.
    /// * Model-simulation errors.
    pub fn gate_output(
        &self,
        store: &ModelStore,
        kind: CellKind,
        inputs: &[DriveWaveform],
        load_capacitance: f64,
    ) -> Result<Waveform, StaError> {
        self.gate_output_cached(store, kind, inputs, load_capacitance, None)
    }

    /// Like [`DelayCalculator::gate_output`], consulting a shared [`DelayCache`]
    /// for the model-family resolution. As long as the cache is only used with
    /// one set of stores (see the scope note on [`DelayCache`]), cached runs
    /// are bit-identical to each other at any thread count. Relative to the
    /// *uncached* path the one nuance is the cache's attofarad load
    /// quantization: with [`DelayBackend::Selective`], a load within half an
    /// attofarad of the policy threshold may resolve to the other family than
    /// the raw-load evaluation would — physically meaningless, but worth
    /// knowing when comparing against [`DelayCalculator::gate_output`] at
    /// artificial threshold-straddling loads.
    ///
    /// # Errors
    ///
    /// Same as [`DelayCalculator::gate_output`].
    pub fn gate_output_cached(
        &self,
        store: &ModelStore,
        kind: CellKind,
        inputs: &[DriveWaveform],
        load_capacitance: f64,
        cache: Option<&DelayCache>,
    ) -> Result<Waveform, StaError> {
        if inputs.len() != kind.input_count() {
            return Err(StaError::InvalidParameter(format!(
                "{} expects {} inputs, got {}",
                kind.name(),
                kind.input_count(),
                inputs.len()
            )));
        }

        // Initial output level from the initial input logic state.
        let initial_logic: Vec<bool> = inputs.iter().map(|d| self.initial_logic(d)).collect();
        let v_out_initial = if kind.evaluate(&initial_logic) {
            self.vdd
        } else {
            0.0
        };

        // Single-input cells always use their SIS model.
        if kind.input_count() == 1 {
            return self.sis_only(store, kind, inputs, load_capacitance, v_out_initial);
        }

        // The characterization flow produces MIS/MCSM tables over exactly two
        // switching inputs; a wider cell cannot be timed by a MIS backend, and
        // pretending otherwise by silently running a SIS model would misreport
        // MIS events. Only `SisOnly` may proceed for such cells.
        if kind.input_count() > 2 && self.backend != DelayBackend::SisOnly {
            return Err(StaError::MissingModel(format!(
                "{} has {} inputs, but {:?} only has 2-input tables; characterize an \
                 N-input MIS model or select DelayBackend::SisOnly for this cell",
                kind.name(),
                kind.input_count(),
                self.backend
            )));
        }

        // Two-input cells: resolve the model family the backend's fallback
        // chain lands on (memoized per (cell, backend, load-bucket) when a
        // cache is supplied), then run it.
        // Only the selective backend's resolution depends on the load; the
        // other backends share one cache entry per (cell, backend) instead of
        // one per load bucket.
        let cache_load = match self.backend {
            DelayBackend::Selective(_) => load_capacitance,
            _ => 0.0,
        };
        let family = match cache {
            Some(cache) => {
                cache.resolved_family(kind, self.backend_key(), cache_load, |bucket_load| {
                    self.resolve_family(store, bucket_load)
                })
            }
            None => self.resolve_family(store, load_capacitance),
        };
        match family {
            ResolvedFamily::Mcsm => {
                let model = store.mcsm.as_ref().ok_or_else(|| {
                    StaError::MissingModel(format!(
                        "store has no complete MCSM for {}",
                        kind.name()
                    ))
                })?;
                self.run_model(model, &inputs[..2], load_capacitance, v_out_initial)
            }
            ResolvedFamily::Baseline => {
                let model = store.mis_baseline.as_ref().ok_or_else(|| {
                    StaError::MissingModel(format!(
                        "store has no baseline MIS model for {}",
                        kind.name()
                    ))
                })?;
                self.run_model(model, &inputs[..2], load_capacitance, v_out_initial)
            }
            ResolvedFamily::Sis => {
                self.sis_only(store, kind, inputs, load_capacitance, v_out_initial)
            }
        }
    }

    /// Like [`DelayCalculator::gate_output_cached`], additionally memoizing
    /// the **entire gate solve** in a [`WaveformCache`]: when the same cell,
    /// backend, window, time step, integration scheme, bit-identical input
    /// drives and exact load have been solved before, the cached output
    /// waveform is returned without touching the numerical engine. Pin-count
    /// validation still runs on every call, so a malformed request is never
    /// answered from the cache.
    ///
    /// Memoized results are bit-identical to [`DelayCalculator::gate_output_cached`]
    /// by construction (exact-bits keys — see [`WaveformCache`]). Both caches
    /// share the per-library scope rule.
    ///
    /// # Errors
    ///
    /// Same as [`DelayCalculator::gate_output`]. Failures are not cached.
    pub fn gate_output_memoized(
        &self,
        store: &ModelStore,
        kind: CellKind,
        inputs: &[DriveWaveform],
        load_capacitance: f64,
        cache: Option<&DelayCache>,
        waveforms: Option<&WaveformCache>,
    ) -> Result<Waveform, StaError> {
        let Some(waveforms) = waveforms else {
            return self.gate_output_cached(store, kind, inputs, load_capacitance, cache);
        };
        if inputs.len() != kind.input_count() {
            return Err(StaError::InvalidParameter(format!(
                "{} expects {} inputs, got {}",
                kind.name(),
                kind.input_count(),
                inputs.len()
            )));
        }
        // The step options shape every solve, so a memo that outlives a
        // window or time-step change must not answer from the old solves.
        // `sim.eval` stays out: both evaluation modes are bit-identical.
        let mut hasher = mcsm_num::hash::ByteHasher::new();
        hasher.write_f64(self.sim.t_stop);
        hasher.write_f64(self.sim.dt);
        hasher.write_u8(self.sim.integration as u8);
        hasher.write_u64(inputs.len() as u64);
        for drive in inputs {
            hasher.write_u64(drive.canonical_hash());
        }
        let key = (
            kind,
            self.backend_key(),
            hasher.finish(),
            load_capacitance.to_bits(),
        );
        waveforms.solve(key, || {
            self.gate_output_cached(store, kind, inputs, load_capacitance, cache)
        })
    }

    /// The cache-key fragment identifying this calculator's backend.
    fn backend_key(&self) -> BackendKey {
        match self.backend {
            DelayBackend::SisOnly => (0, 0),
            DelayBackend::BaselineMis => (1, 0),
            DelayBackend::CompleteMcsm => (2, 0),
            DelayBackend::Selective(policy) => (3, policy.load_ratio_threshold.to_bits()),
        }
    }

    /// Resolves which model family this backend runs for a (two-input) cell
    /// driving `load_capacitance`, applying the documented fallback chain.
    /// A pure function of `(backend, store contents, load)`, so it is safe to
    /// memoize per (cell, backend, load-bucket).
    fn resolve_family(&self, store: &ModelStore, load_capacitance: f64) -> ResolvedFamily {
        let complete_chain = || {
            if store.mcsm.is_some() {
                ResolvedFamily::Mcsm
            } else if store.mis_baseline.is_some() {
                ResolvedFamily::Baseline
            } else {
                ResolvedFamily::Sis
            }
        };
        match self.backend {
            DelayBackend::SisOnly => ResolvedFamily::Sis,
            DelayBackend::BaselineMis => {
                if store.mis_baseline.is_some() {
                    ResolvedFamily::Baseline
                } else {
                    ResolvedFamily::Sis
                }
            }
            DelayBackend::CompleteMcsm => complete_chain(),
            DelayBackend::Selective(policy) => match (&store.mcsm, &store.mis_baseline) {
                // Both families available: the §3.4 policy picks per load,
                // exactly as the `SelectiveModel` wrapper would.
                (Some(mcsm), Some(_)) => match policy.choose(mcsm, load_capacitance) {
                    ModelChoice::CompleteMcsm => ResolvedFamily::Mcsm,
                    ModelChoice::SimpleMis => ResolvedFamily::Baseline,
                },
                // A store without both families degrades exactly like the
                // complete backend would.
                _ => complete_chain(),
            },
        }
    }

    /// Runs an already-resolved model through the generic engine. Calls
    /// `simulate` directly rather than the `Simulation` builder: the builder
    /// clones its inputs, and per-gate clones of sampled waveforms add up over
    /// a netlist.
    fn run_model(
        &self,
        model: &dyn mcsm_core::CellModel,
        inputs: &[DriveWaveform],
        load_capacitance: f64,
        v_out_initial: f64,
    ) -> Result<Waveform, StaError> {
        Ok(simulate(
            model,
            inputs,
            load_capacitance,
            v_out_initial,
            None,
            &self.sim,
        )?
        .output)
    }

    /// Resolves a backend from the store, mapping "family not characterized"
    /// to `None` so callers can fall back, while real errors propagate.
    fn try_resolve<'s>(
        &self,
        store: &'s ModelStore,
        backend: ModelBackend,
        load_capacitance: f64,
    ) -> Result<Option<Box<dyn mcsm_core::CellModel + 's>>, StaError> {
        match store.resolve(backend, load_capacitance) {
            Ok(model) => Ok(Some(model)),
            Err(CsmError::MissingModel(_)) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Picks the pin that drives a SIS model of a multi-input cell, or `None`
    /// when the cell's Boolean output at `t_stop` equals its output at t = 0.
    ///
    /// A SIS model holds every other pin at its non-controlling value, so
    /// the driven pin must be the one that decides where the output settles.
    /// Among the pins whose logic level changes, that is the one reaching the
    /// controlling value first; if none ends controlling, the output follows
    /// the last pin to cross. Crossings are at Vdd/2 and ties go to the lowest
    /// pin index.
    fn sis_pin(&self, kind: CellKind, inputs: &[DriveWaveform]) -> Option<usize> {
        let t_stop = self.sim.t_stop;
        let half = 0.5 * self.vdd;
        let initial: Vec<bool> = inputs.iter().map(|d| self.initial_logic(d)).collect();
        let last: Vec<bool> = inputs.iter().map(|d| d.eval(t_stop) > half).collect();
        if kind.evaluate(&initial) == kind.evaluate(&last) {
            return None;
        }
        let controlling = !kind.non_controlling_value();
        let crossing = |pin: usize| crossing_time(&inputs[pin], half, last[pin], t_stop);
        let switching = || (0..inputs.len()).filter(|&pin| initial[pin] != last[pin]);
        // `min_by` keeps the first of equal elements, so both searches below
        // break ties towards the lowest pin index.
        switching()
            .filter(|&pin| last[pin] == controlling)
            .min_by(|&a, &b| crossing(a).total_cmp(&crossing(b)))
            .or_else(|| switching().min_by(|&a, &b| crossing(b).total_cmp(&crossing(a))))
    }

    fn sis_only(
        &self,
        store: &ModelStore,
        kind: CellKind,
        inputs: &[DriveWaveform],
        load_capacitance: f64,
        v_out_initial: f64,
    ) -> Result<Waveform, StaError> {
        // A single-input cell drives its one pin. A wider cell drives the pin
        // `sis_pin` picks, as a SIS-only timing tool would: the other inputs
        // are assumed to be stable at their non-controlling value.
        let pin = if inputs.len() == 1 {
            0
        } else {
            match self.sis_pin(kind, inputs) {
                Some(pin) => pin,
                // The output ends where it started: whatever glitch the
                // inputs cause, a SIS model cannot show it.
                None => {
                    let t_stop = self.sim.t_stop;
                    return Ok(Waveform::new(vec![0.0, t_stop], vec![v_out_initial; 2])?);
                }
            }
        };
        // Prefer the model characterized for that pin; fall back to any
        // characterized SIS pin, whose tables are comparable. Either way the
        // *switching pin's* waveform drives the simulation.
        let model: Box<dyn mcsm_core::CellModel + '_> =
            match self.try_resolve(store, ModelBackend::Sis { pin }, load_capacitance)? {
                Some(model) => model,
                None => Box::new(store.sis.first().ok_or_else(|| {
                    StaError::MissingModel(format!("no SIS model for {} pin {pin}", kind.name()))
                })?),
            };
        self.run_model(
            &*model,
            std::slice::from_ref(&inputs[pin]),
            load_capacitance,
            v_out_initial,
        )
    }
}

/// The first time `drive` crosses `level` in the given direction, or `t_stop`
/// if it never does. Analytic drives are piecewise linear between their
/// breakpoints, so sampling them there is exact.
fn crossing_time(drive: &DriveWaveform, level: f64, rising: bool, t_stop: f64) -> f64 {
    let crossing = match drive {
        DriveWaveform::Sampled(w) => w.crossing(level, rising),
        DriveWaveform::Pwl(w) => w.crossing(level, rising),
        DriveWaveform::Analytic(src) => {
            let mut times = vec![0.0, t_stop];
            times.extend(
                src.breakpoints()
                    .into_iter()
                    .filter(|&t| t > 0.0 && t < t_stop),
            );
            times.sort_by(f64::total_cmp);
            times.dedup();
            let values = times.iter().map(|&t| src.eval(t)).collect();
            Waveform::new(times, values)
                .ok()
                .and_then(|w| w.crossing(level, rising))
        }
    };
    crossing.unwrap_or(t_stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsm_cells::cell::CellTemplate;
    use mcsm_cells::tech::Technology;
    use mcsm_core::characterize::{characterize_mcsm, characterize_mis_baseline, characterize_sis};
    use mcsm_core::config::CharacterizationConfig;

    fn nor2_store() -> ModelStore {
        let tech = Technology::cmos_130nm();
        let template = CellTemplate::new(CellKind::Nor2, tech);
        let cfg = CharacterizationConfig::coarse();
        let mut store = ModelStore::new();
        store
            .sis
            .push(characterize_sis(&template, 0, &cfg).unwrap());
        store
            .sis
            .push(characterize_sis(&template, 1, &cfg).unwrap());
        store.mis_baseline = Some(characterize_mis_baseline(&template, &cfg).unwrap());
        store.mcsm = Some(characterize_mcsm(&template, &cfg).unwrap());
        store
    }

    fn nor3_sis_store() -> ModelStore {
        let tech = Technology::cmos_130nm();
        let template = CellTemplate::new(CellKind::Nor3, tech);
        let cfg = CharacterizationConfig::coarse();
        let mut store = ModelStore::new();
        for pin in 0..CellKind::Nor3.input_count() {
            store
                .sis
                .push(characterize_sis(&template, pin, &cfg).unwrap());
        }
        store
    }

    fn inverter_store() -> ModelStore {
        let tech = Technology::cmos_130nm();
        let template = CellTemplate::new(CellKind::Inverter, tech);
        let cfg = CharacterizationConfig::coarse();
        let mut store = ModelStore::new();
        store
            .sis
            .push(characterize_sis(&template, 0, &cfg).unwrap());
        store
    }

    fn calculator(backend: DelayBackend) -> DelayCalculator {
        DelayCalculator::new(backend, CsmSimOptions::new(3e-9, 1e-12), 1.2)
    }

    #[test]
    fn inverter_output_falls_for_rising_input() {
        let store = inverter_store();
        let calc = calculator(DelayBackend::CompleteMcsm);
        let input = DriveWaveform::rising_ramp(1.2, 0.5e-9, 60e-12);
        let out = calc
            .gate_output(&store, CellKind::Inverter, &[input], 2e-15)
            .unwrap();
        assert!(out.value_at(0.0) > 1.0);
        assert!(out.final_value() < 0.2);
    }

    #[test]
    fn all_backends_handle_a_mis_event_on_nor2() {
        let store = nor2_store();
        let a = DriveWaveform::falling_ramp(1.2, 1e-9, 60e-12);
        let b = DriveWaveform::falling_ramp(1.2, 1e-9, 60e-12);
        for backend in [
            DelayBackend::SisOnly,
            DelayBackend::BaselineMis,
            DelayBackend::CompleteMcsm,
            DelayBackend::Selective(SelectivePolicy::default()),
        ] {
            let calc = calculator(backend);
            let out = calc
                .gate_output(&store, CellKind::Nor2, &[a.clone(), b.clone()], 4e-15)
                .unwrap();
            assert!(out.value_at(0.0) < 0.2, "{backend:?} initial");
            assert!(
                out.final_value() > 1.0,
                "{backend:?} final = {}",
                out.final_value()
            );
        }
    }

    #[test]
    fn selective_backend_switches_model_with_load() {
        let store = nor2_store();
        let a = DriveWaveform::falling_ramp(1.2, 1e-9, 60e-12);
        let b = DriveWaveform::falling_ramp(1.2, 1e-9, 60e-12);
        let own = store
            .mcsm
            .as_ref()
            .unwrap()
            .representative_output_capacitance();
        let policy = SelectivePolicy::default();
        let calc = calculator(DelayBackend::Selective(policy));

        // Light load → complete model; must equal the CompleteMcsm backend.
        let light = calc
            .gate_output(&store, CellKind::Nor2, &[a.clone(), b.clone()], 0.5 * own)
            .unwrap();
        let complete = calculator(DelayBackend::CompleteMcsm)
            .gate_output(&store, CellKind::Nor2, &[a.clone(), b.clone()], 0.5 * own)
            .unwrap();
        assert_eq!(light, complete);

        // Heavy load → simple model; must equal the BaselineMis backend.
        let heavy_load = own * (policy.load_ratio_threshold + 1.0);
        let heavy = calc
            .gate_output(&store, CellKind::Nor2, &[a.clone(), b.clone()], heavy_load)
            .unwrap();
        let baseline = calculator(DelayBackend::BaselineMis)
            .gate_output(&store, CellKind::Nor2, &[a, b], heavy_load)
            .unwrap();
        assert_eq!(heavy, baseline);
    }

    #[test]
    fn three_input_cells_reject_mis_backends_with_a_descriptive_error() {
        let store = nor3_sis_store();
        let falling = || DriveWaveform::falling_ramp(1.2, 1e-9, 60e-12);
        let inputs = [falling(), falling(), falling()];
        for backend in [
            DelayBackend::BaselineMis,
            DelayBackend::CompleteMcsm,
            DelayBackend::Selective(SelectivePolicy::default()),
        ] {
            let calc = calculator(backend);
            let err = calc
                .gate_output(&store, CellKind::Nor3, &inputs, 4e-15)
                .unwrap_err();
            match err {
                StaError::MissingModel(msg) => {
                    assert!(msg.contains("NOR3"), "{msg}");
                    assert!(msg.contains("3 inputs"), "{msg}");
                    assert!(msg.contains("SisOnly"), "{msg}");
                }
                other => panic!("expected MissingModel, got {other:?}"),
            }
        }
        // SisOnly still times the cell (pin 2 switching alone).
        let calc = calculator(DelayBackend::SisOnly);
        let quiet = DriveWaveform::dc(0.0);
        let out = calc
            .gate_output(
                &store,
                CellKind::Nor3,
                &[quiet.clone(), quiet, falling()],
                4e-15,
            )
            .unwrap();
        assert!(out.final_value() > 1.0);
    }

    #[test]
    fn cached_and_uncached_gate_output_are_bit_identical() {
        let store = nor2_store();
        let cache = DelayCache::new();
        let a = DriveWaveform::falling_ramp(1.2, 1e-9, 60e-12);
        let b = DriveWaveform::falling_ramp(1.2, 1e-9, 60e-12);
        for backend in [
            DelayBackend::SisOnly,
            DelayBackend::BaselineMis,
            DelayBackend::CompleteMcsm,
            DelayBackend::Selective(SelectivePolicy::default()),
        ] {
            let calc = calculator(backend);
            let inputs = [a.clone(), b.clone()];
            let plain = calc
                .gate_output(&store, CellKind::Nor2, &inputs, 4e-15)
                .unwrap();
            let first = calc
                .gate_output_cached(&store, CellKind::Nor2, &inputs, 4e-15, Some(&cache))
                .unwrap();
            let second = calc
                .gate_output_cached(&store, CellKind::Nor2, &inputs, 4e-15, Some(&cache))
                .unwrap();
            assert_eq!(plain, first, "{backend:?} cached vs uncached");
            assert_eq!(plain, second, "{backend:?} repeat lookup");
        }
        // Each backend resolved its family once and reused it once.
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 4);
    }

    #[test]
    fn memoized_gate_output_is_bit_identical_and_skips_the_engine() {
        let store = nor2_store();
        let cache = DelayCache::new();
        let waveforms = WaveformCache::new();
        let calc = calculator(DelayBackend::CompleteMcsm);
        let a = DriveWaveform::falling_ramp(1.2, 1e-9, 60e-12);
        let b = DriveWaveform::falling_ramp(1.2, 1.1e-9, 80e-12);
        let inputs = [a.clone(), b.clone()];

        let plain = calc
            .gate_output(&store, CellKind::Nor2, &inputs, 4e-15)
            .unwrap();
        let cold = calc
            .gate_output_memoized(
                &store,
                CellKind::Nor2,
                &inputs,
                4e-15,
                Some(&cache),
                Some(&waveforms),
            )
            .unwrap();
        assert_eq!(plain, cold);
        assert_eq!(waveforms.misses(), 1);
        assert_eq!(waveforms.hits(), 0);
        assert_eq!(waveforms.len(), 1);

        // Warm lookup: same bits in, same bits out, no new solve.
        let warm = calc
            .gate_output_memoized(
                &store,
                CellKind::Nor2,
                &inputs,
                4e-15,
                Some(&cache),
                Some(&waveforms),
            )
            .unwrap();
        assert_eq!(plain, warm);
        assert_eq!(waveforms.misses(), 1);
        assert_eq!(waveforms.hits(), 1);

        // Exact-bits keys: a different load or different drive misses.
        calc.gate_output_memoized(
            &store,
            CellKind::Nor2,
            &inputs,
            4.1e-15,
            Some(&cache),
            Some(&waveforms),
        )
        .unwrap();
        let swapped = [b, a];
        calc.gate_output_memoized(
            &store,
            CellKind::Nor2,
            &swapped,
            4e-15,
            Some(&cache),
            Some(&waveforms),
        )
        .unwrap();
        assert_eq!(waveforms.misses(), 3);
        assert_eq!(waveforms.len(), 3);

        // Without a waveform cache the call degrades to the cached path.
        let degraded = calc
            .gate_output_memoized(&store, CellKind::Nor2, &inputs, 4e-15, Some(&cache), None)
            .unwrap();
        assert_eq!(plain, degraded);

        // Pin-count validation is never answered from the cache.
        assert!(calc
            .gate_output_memoized(
                &store,
                CellKind::Nor2,
                &inputs[..1],
                4e-15,
                Some(&cache),
                Some(&waveforms)
            )
            .is_err());

        // clear() drops the memoized solves but keeps the waveform counters
        // cumulative; the delay cache's clear() resets its counters too.
        let counted = (waveforms.hits(), waveforms.misses());
        waveforms.clear();
        assert!(waveforms.is_empty());
        assert_eq!((waveforms.hits(), waveforms.misses()), counted);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn delay_cache_memoizes_pin_capacitances() {
        let cache = DelayCache::new();
        let mut computed = 0;
        for _ in 0..3 {
            let c = cache
                .pin_capacitance(CellKind::Nor2, 0, || {
                    computed += 1;
                    Ok(1.5e-15)
                })
                .unwrap();
            assert_eq!(c, 1.5e-15);
        }
        assert_eq!(computed, 1);
        assert_eq!(cache.hits(), 2);
        // Failures are not cached: the next call recomputes.
        let err = cache.pin_capacitance(CellKind::Nor2, 1, || {
            Err(StaError::MissingModel("nope".into()))
        });
        assert!(err.is_err());
        assert!(cache
            .pin_capacitance(CellKind::Nor2, 1, || Ok(2e-15))
            .is_ok());
    }

    #[test]
    fn load_buckets_quantize_at_attofarad_resolution() {
        assert_eq!(DelayCache::load_bucket(4e-15), 4000);
        // Differences far below an attofarad share a bucket…
        assert_eq!(
            DelayCache::load_bucket(4e-15),
            DelayCache::load_bucket(4e-15 + 1e-21)
        );
        // …while attofarad-scale differences do not.
        assert_ne!(
            DelayCache::load_bucket(4e-15),
            DelayCache::load_bucket(4.002e-15)
        );
        assert_eq!(DelayCache::load_bucket(-1e-18), 0);
    }

    #[test]
    fn pin_count_mismatch_is_rejected() {
        let store = nor2_store();
        let calc = calculator(DelayBackend::CompleteMcsm);
        let a = DriveWaveform::dc(0.0);
        assert!(calc
            .gate_output(&store, CellKind::Nor2, &[a], 1e-15)
            .is_err());
    }

    #[test]
    fn missing_models_are_reported() {
        let empty = ModelStore::new();
        let calc = calculator(DelayBackend::SisOnly);
        let a = DriveWaveform::dc(0.0);
        let err = calc.gate_output(&empty, CellKind::Inverter, &[a], 1e-15);
        assert!(matches!(err, Err(StaError::MissingModel(_))));
    }

    #[test]
    fn sis_only_picks_the_switching_pin() {
        let store = nor2_store();
        let calc = calculator(DelayBackend::SisOnly);
        // Only pin B switches; pin A stays at the non-controlling value.
        let a = DriveWaveform::dc(0.0);
        let b = DriveWaveform::falling_ramp(1.2, 1e-9, 60e-12);
        let out = calc
            .gate_output(&store, CellKind::Nor2, &[a, b], 4e-15)
            .unwrap();
        assert!(out.final_value() > 1.0);
    }

    #[test]
    fn sis_fallback_model_is_driven_by_the_switching_pin_waveform() {
        // Only pin 0 is characterized, but pin 1 is the switching pin: the
        // fallback model must still see the switching waveform (driving the
        // fallback model's own DC pin instead would never transition).
        let mut store = nor2_store();
        store.sis.retain(|m| m.switching_pin == 0);
        let calc = calculator(DelayBackend::SisOnly);
        let a = DriveWaveform::dc(0.0);
        let b = DriveWaveform::falling_ramp(1.2, 1e-9, 60e-12);
        let out = calc
            .gate_output(&store, CellKind::Nor2, &[a, b], 4e-15)
            .unwrap();
        assert!(
            out.final_value() > 1.0,
            "fallback SIS model saw a non-switching waveform (final = {})",
            out.final_value()
        );
    }

    #[test]
    fn sis_only_settles_where_the_boolean_output_does() {
        // NOR2: `a` falls at 1.00 ns, `b` rises at 1.02 ns. The output starts
        // and ends low; driving `a` alone (with `b` assumed non-controlling)
        // would settle high.
        let store = nor2_store();
        let inputs = [
            DriveWaveform::falling_ramp(1.2, 1.00e-9, 80e-12),
            DriveWaveform::rising_ramp(1.2, 1.02e-9, 80e-12),
        ];
        for backend in [DelayBackend::SisOnly, DelayBackend::CompleteMcsm] {
            let out = calculator(backend)
                .gate_output(&store, CellKind::Nor2, &inputs, 4e-15)
                .unwrap();
            assert!(
                out.final_value() < 0.1,
                "{backend:?} final = {}",
                out.final_value()
            );
        }

        // NAND2: `a` rises while `b` holds 0 V, so the output stays at Vdd.
        let tech = Technology::cmos_130nm();
        let template = CellTemplate::new(CellKind::Nand2, tech);
        let cfg = CharacterizationConfig::coarse();
        let mut nand2 = ModelStore::new();
        for pin in 0..2 {
            nand2
                .sis
                .push(characterize_sis(&template, pin, &cfg).unwrap());
        }
        let inputs = [
            DriveWaveform::rising_ramp(1.2, 1e-9, 80e-12),
            DriveWaveform::dc(0.0),
        ];
        let out = calculator(DelayBackend::SisOnly)
            .gate_output(&nand2, CellKind::Nand2, &inputs, 4e-15)
            .unwrap();
        assert_eq!(out.min_value(), 1.2);
        assert_eq!(out.max_value(), 1.2);
    }

    #[test]
    fn sis_pin_follows_the_controlling_and_the_last_edge() {
        let calc = calculator(DelayBackend::SisOnly);
        let fall = |t: f64| DriveWaveform::falling_ramp(1.2, t, 80e-12);
        let rise = |t: f64| DriveWaveform::rising_ramp(1.2, t, 80e-12);
        // NOR2 '00' -> '11': both end controlling; the first to cross wins.
        assert_eq!(
            calc.sis_pin(CellKind::Nor2, &[rise(1.1e-9), rise(1e-9)]),
            Some(1)
        );
        // NOR2 '11' -> '00': none ends controlling; the last to cross wins.
        assert_eq!(
            calc.sis_pin(CellKind::Nor2, &[fall(1.1e-9), fall(1e-9)]),
            Some(0)
        );
        // Simultaneous edges go to the lowest pin.
        assert_eq!(
            calc.sis_pin(CellKind::Nor2, &[fall(1e-9), fall(1e-9)]),
            Some(0)
        );
        assert_eq!(
            calc.sis_pin(CellKind::Nand2, &[rise(1e-9), rise(1e-9)]),
            Some(0)
        );
        // A quiet pin never drives; an output that ends where it started
        // needs no solve at all.
        let quiet = DriveWaveform::dc(0.0);
        assert_eq!(
            calc.sis_pin(CellKind::Nor3, &[quiet.clone(), quiet.clone(), fall(1e-9)]),
            Some(2)
        );
        assert_eq!(calc.sis_pin(CellKind::Nor2, &[quiet.clone(), quiet]), None);
        // Sampled drives cross where their samples do (here at 1.1 ns, ahead
        // of the analytic ramp's 1.24 ns).
        let sampled = DriveWaveform::from_waveform(
            Waveform::new(vec![0.0, 1e-9, 1.2e-9, 3e-9], vec![0.0, 0.0, 1.2, 1.2]).unwrap(),
        );
        assert_eq!(
            calc.sis_pin(CellKind::Nor2, &[rise(1.2e-9), sampled]),
            Some(1)
        );
    }
}
