//! The backend-neutral netlist IR and its fluent builder.
//!
//! A [`Netlist`] is the *one* circuit description every backend consumes: the
//! netlist simulator (`mcsm-netsim`) times it gate by gate, the SPICE layer
//! expands it transistor-by-transistor, and single gates can be replayed
//! through the generic `CellModel` engine (see [`crate::lower`]). Construction goes through
//! [`NetlistBuilder`], which defers all checking to [`NetlistBuilder::build`]
//! so circuits can be described fluently; `build` validates the whole circuit
//! (pin counts, drivers, dangling nets, combinational loops) and returns a
//! [`NetlistError`] naming the offender on any violation.
//!
//! # Storage model
//!
//! The netlist is stored in flat arena form so million-gate circuits fit in a
//! handful of contiguous allocations: gates are struct-of-arrays (names,
//! kinds, outputs), and both adjacency directions are CSR pools — one
//! `gate_inputs` pool sliced by per-gate offsets, one `fanouts` pool sliced by
//! per-net offsets. [`GateRef`]/[`NetRef`] are `u32`-backed indices into those
//! arenas. Per-gate data is exposed through the borrowed [`GateView`] (and the
//! slice accessors [`Netlist::inputs_of`] / [`Netlist::fanout_of`]) rather
//! than owned structs, so traversal never allocates.
//!
//! Netlists serialize to JSON through `mcsm_num::json` (the workspace has no
//! external dependencies) and deserialize through the same validation path, so
//! a loaded netlist is always structurally sound.

use crate::error::NetlistError;
use mcsm_cells::cell::CellKind;
use mcsm_num::json::{FromJson, JsonError, JsonValue, ToJson};
use std::collections::HashMap;

/// Identifier of a net (wire) within its [`Netlist`].
///
/// `u32`-backed: a netlist holds at most `u32::MAX` nets. Construct with
/// [`NetRef::from_index`] and convert back with [`NetRef::index`]; the field
/// itself is private so downstream crates cannot depend on the representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetRef(u32);

impl NetRef {
    /// Builds a reference from a raw index (the `n`-th net of the netlist).
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn from_index(index: usize) -> NetRef {
        assert!(
            u32::try_from(index).is_ok(),
            "net index {index} exceeds the u32 arena limit"
        );
        NetRef(index as u32)
    }

    /// Raw index of the net. Lowerings preserve this index (the `n`-th net of
    /// the netlist becomes the `n`-th net/node of the lowered form).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a gate instance within its [`Netlist`].
///
/// `u32`-backed like [`NetRef`]; see there for the representation contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateRef(u32);

impl GateRef {
    /// Builds a reference from a raw index (the `n`-th gate in insertion
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn from_index(index: usize) -> GateRef {
        assert!(
            u32::try_from(index).is_ok(),
            "gate index {index} exceeds the u32 arena limit"
        );
        GateRef(index as u32)
    }

    /// Raw index of the gate in insertion order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Borrowed view of one gate instance, assembled from the netlist arenas:
/// `name` and `inputs` borrow straight from the netlist's flat pools.
#[derive(Debug, Clone, Copy)]
pub struct GateView<'a> {
    /// Instance name, unique within the netlist.
    pub name: &'a str,
    /// Cell topology.
    pub kind: CellKind,
    /// Input nets in pin order (`A`, `B`, …).
    pub inputs: &'a [NetRef],
    /// Output net.
    pub output: NetRef,
}

/// Gates grouped into topological levels (see [`Netlist::levels`]).
///
/// Stored as one flat `order` array sliced by per-level offsets, so the whole
/// schedule is two allocations regardless of depth. Level `l` contains every
/// gate whose longest driven path from a schedule root has length `l`; within
/// a level, gates appear in insertion-index order, which is what makes
/// level-parallel simulation deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSchedule {
    offsets: Vec<u32>,
    order: Vec<GateRef>,
}

impl LevelSchedule {
    /// Number of levels (the circuit's logic depth in gates).
    pub fn level_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of scheduled gates across all levels.
    pub fn gate_count(&self) -> usize {
        self.order.len()
    }

    /// The gates of one level, in insertion-index order.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.level_count()`.
    pub fn gates(&self, level: usize) -> &[GateRef] {
        let start = self.offsets[level] as usize;
        let end = self.offsets[level + 1] as usize;
        &self.order[start..end]
    }

    /// Iterates over the levels in dependency order, each as a gate slice.
    pub fn iter(&self) -> impl Iterator<Item = &[GateRef]> + '_ {
        (0..self.level_count()).map(move |l| self.gates(l))
    }
}

/// A validated, backend-neutral gate-level circuit.
///
/// Structure is immutable: the only way to obtain an instance is
/// [`NetlistBuilder::build`] (or JSON deserialization, which goes through the
/// same validation), so every `Netlist` is structurally sound — each net has
/// exactly one driver or is a primary input, every net is consumed or is a
/// primary output, and the gates form a DAG. The only in-place mutations are
/// the connectivity-preserving ECO edits [`Netlist::retype_gate`] and
/// [`Netlist::set_net_load`], which re-run the relevant `build()`-time checks
/// before touching anything.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    net_index: HashMap<String, NetRef>,
    net_loads: Vec<f64>,
    gate_names: Vec<String>,
    gate_kinds: Vec<CellKind>,
    gate_outputs: Vec<NetRef>,
    /// CSR offsets into `gate_inputs`; length `gate_count() + 1`.
    gate_input_offsets: Vec<u32>,
    gate_inputs: Vec<NetRef>,
    drivers: Vec<Option<GateRef>>,
    /// CSR offsets into `fanouts`; length `net_count() + 1`.
    fanout_offsets: Vec<u32>,
    fanouts: Vec<(GateRef, u32)>,
    primary_inputs: Vec<NetRef>,
    primary_outputs: Vec<NetRef>,
    pi_mask: Vec<bool>,
    po_mask: Vec<bool>,
}

impl Netlist {
    /// Human-readable circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Number of gate instances.
    pub fn gate_count(&self) -> usize {
        self.gate_names.len()
    }

    /// Iterates over all gates in insertion order, as borrowed views.
    pub fn iter_gates(&self) -> impl Iterator<Item = GateView<'_>> + '_ {
        (0..self.gate_count()).map(move |idx| self.gate(GateRef(idx as u32)))
    }

    /// References to all gates, in insertion order.
    pub fn gate_refs(&self) -> impl Iterator<Item = GateRef> + '_ {
        (0..self.gate_count()).map(|idx| GateRef(idx as u32))
    }

    /// References to all nets, in [`NetRef::index`] order.
    pub fn net_refs(&self) -> impl Iterator<Item = NetRef> + '_ {
        (0..self.net_count()).map(|idx| NetRef(idx as u32))
    }

    /// Borrowed view of the gate with the given reference.
    pub fn gate(&self, gate: GateRef) -> GateView<'_> {
        let idx = gate.index();
        GateView {
            name: &self.gate_names[idx],
            kind: self.gate_kinds[idx],
            inputs: self.inputs_of(gate),
            output: self.gate_outputs[idx],
        }
    }

    /// Instance name of a gate.
    pub fn gate_name(&self, gate: GateRef) -> &str {
        &self.gate_names[gate.index()]
    }

    /// Cell kind of a gate.
    pub fn gate_kind(&self, gate: GateRef) -> CellKind {
        self.gate_kinds[gate.index()]
    }

    /// Input nets of a gate, in pin order (`A`, `B`, …).
    pub fn inputs_of(&self, gate: GateRef) -> &[NetRef] {
        let idx = gate.index();
        let start = self.gate_input_offsets[idx] as usize;
        let end = self.gate_input_offsets[idx + 1] as usize;
        &self.gate_inputs[start..end]
    }

    /// Output net of a gate.
    pub fn output_of(&self, gate: GateRef) -> NetRef {
        self.gate_outputs[gate.index()]
    }

    /// Looks up a gate by instance name (linear scan — the netlist keeps no
    /// name→gate map, trading lookup speed for arena compactness).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownGate`] if no gate has that name.
    pub fn find_gate(&self, name: &str) -> Result<GateRef, NetlistError> {
        self.gate_names
            .iter()
            .position(|g| g == name)
            .map(|idx| GateRef(idx as u32))
            .ok_or_else(|| NetlistError::UnknownGate(name.to_string()))
    }

    /// Name of a net.
    pub fn net_name(&self, net: NetRef) -> &str {
        &self.net_names[net.index()]
    }

    /// Looks up a net by name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if no net has that name.
    pub fn find_net(&self, name: &str) -> Result<NetRef, NetlistError> {
        self.net_index
            .get(name)
            .copied()
            .ok_or_else(|| NetlistError::UnknownNet(name.to_string()))
    }

    /// Explicit extra lumped load on a net (farads; `0.0` unless set through
    /// [`NetlistBuilder::net_load`]).
    pub fn net_load(&self, net: NetRef) -> f64 {
        self.net_loads[net.index()]
    }

    /// Primary inputs in declaration order.
    pub fn primary_inputs(&self) -> &[NetRef] {
        &self.primary_inputs
    }

    /// Primary outputs in declaration order.
    pub fn primary_outputs(&self) -> &[NetRef] {
        &self.primary_outputs
    }

    /// Whether a net is a primary input (O(1) mask lookup).
    pub fn is_primary_input(&self, net: NetRef) -> bool {
        self.pi_mask[net.index()]
    }

    /// Whether a net is a primary output (O(1) mask lookup).
    pub fn is_primary_output(&self, net: NetRef) -> bool {
        self.po_mask[net.index()]
    }

    /// The gate driving a net, if any (primary inputs have none).
    pub fn driver_of(&self, net: NetRef) -> Option<GateRef> {
        self.drivers[net.index()]
    }

    /// The `(gate, pin)` pairs consuming a net, in gate insertion order.
    pub fn fanout_of(&self, net: NetRef) -> &[(GateRef, u32)] {
        let idx = net.index();
        let start = self.fanout_offsets[idx] as usize;
        let end = self.fanout_offsets[idx + 1] as usize;
        &self.fanouts[start..end]
    }

    /// Whether any gate is a state element (flip-flop or latch). Sequential
    /// netlists are scheduled per clocked epoch by `mcsm-seq`; the purely
    /// combinational engines check this to reject them descriptively.
    pub fn has_sequential_gates(&self) -> bool {
        self.gate_kinds.iter().any(|k| k.is_sequential())
    }

    /// Groups the gates into topological levels in a single O(V+E) pass.
    ///
    /// Level of a gate = longest driven path (in gates) from any schedule
    /// root reaching it, so every gate's inputs are settled by the time its
    /// level runs. Within a level, gates appear in insertion-index order; the
    /// whole schedule is deterministic for a given netlist.
    ///
    /// Sequential gates (registers) are schedule roots: their Q output is
    /// state from the previous clock epoch, not a combinational function of
    /// this epoch's inputs, so they sit at level 0 and the arcs *into* them
    /// (D/CLK pins) do not extend the level depth — exactly mirroring the
    /// register-arc relaxation of the `build()` cycle check.
    pub fn levels(&self) -> LevelSchedule {
        let gates = self.gate_count();
        // Kahn's algorithm with max-level propagation over the fanout CSR.
        // Registers start as roots (pending 0) and edges into them are
        // skipped, so register feedback cycles do not stall the wave.
        let mut pending: Vec<u32> = vec![0; gates];
        for (idx, inputs) in (0..gates).map(|i| (i, self.inputs_of(GateRef(i as u32)))) {
            if self.gate_kinds[idx].is_sequential() {
                continue;
            }
            pending[idx] = inputs
                .iter()
                .filter(|n| self.drivers[n.index()].is_some())
                .count() as u32;
        }
        let mut level: Vec<u32> = vec![0; gates];
        let mut stack: Vec<u32> = (0..gates as u32)
            .filter(|&g| pending[g as usize] == 0)
            .collect();
        let mut max_level = 0u32;
        while let Some(g) = stack.pop() {
            let next = level[g as usize] + 1;
            max_level = max_level.max(level[g as usize]);
            for &(succ, _pin) in self.fanout_of(self.gate_outputs[g as usize]) {
                let s = succ.index();
                if self.gate_kinds[s].is_sequential() {
                    continue;
                }
                if level[s] < next {
                    level[s] = next;
                }
                pending[s] -= 1;
                if pending[s] == 0 {
                    stack.push(succ.0);
                }
            }
        }
        // Counting sort by level; iterating gates in index order makes the
        // placement stable, i.e. index order within each level.
        let level_count = if gates == 0 {
            0
        } else {
            max_level as usize + 1
        };
        let mut offsets = vec![0u32; level_count + 1];
        for &l in &level {
            offsets[l as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..level_count].to_vec();
        let mut order = vec![GateRef(0); gates];
        for (idx, &l) in level.iter().enumerate() {
            let slot = &mut cursor[l as usize];
            order[*slot as usize] = GateRef(idx as u32);
            *slot += 1;
        }
        LevelSchedule { offsets, order }
    }

    /// ECO edit: swaps a gate's cell kind in place, keeping its connectivity.
    ///
    /// This is a *validated* edit — the new cell must accept exactly the pins
    /// the instance already has, the same check [`NetlistBuilder::build`]
    /// performs, so the netlist invariants survive without a full rebuild.
    /// Connectivity (drivers, fanouts, topological order) is untouched by
    /// construction, since only the cell kind changes.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownGate`] for an out-of-range reference and
    /// [`NetlistError::PinCountMismatch`] when the new kind's pin count does
    /// not match the instance's existing input nets. When a register kind is
    /// involved the check is pin-role-aware instead: a retype that would
    /// change a connected pin's role (e.g. NAND2 → DFF turning data pin `B`
    /// into clock pin `CLK`) or add/drop a role-bearing register pin (DFF →
    /// DFFRB lacking the `RB` net) is rejected with
    /// [`NetlistError::PinRoleMismatch`] naming the offending pin. On error
    /// the netlist is unchanged.
    pub fn retype_gate(&mut self, gate: GateRef, kind: CellKind) -> Result<(), NetlistError> {
        let idx = gate.index();
        if idx >= self.gate_count() {
            return Err(NetlistError::UnknownGate(format!("#{idx}")));
        }
        let old = self.gate_kinds[idx];
        let pins = self.inputs_of(gate).len();
        let role_aware = old.is_sequential() || kind.is_sequential();
        if pins != kind.input_count() {
            if role_aware {
                // Name the first pin that would be dropped or is missing,
                // with its role, rather than reporting a bare count.
                let (pin, detail) = if kind.input_count() < pins {
                    let names = old.input_names();
                    let roles = old.pin_roles();
                    let pin = kind.input_count();
                    (
                        pin,
                        format!("`{}` ({}) would be dropped", names[pin], roles[pin].name()),
                    )
                } else {
                    let names = kind.input_names();
                    let roles = kind.pin_roles();
                    let pin = pins;
                    (
                        pin,
                        format!(
                            "`{}` ({}) has no connected net",
                            names[pin],
                            roles[pin].name()
                        ),
                    )
                };
                return Err(NetlistError::PinRoleMismatch {
                    gate: self.gate_names[idx].clone(),
                    from_cell: old.name().to_string(),
                    to_cell: kind.name().to_string(),
                    pin,
                    detail,
                });
            }
            return Err(NetlistError::PinCountMismatch {
                gate: self.gate_names[idx].clone(),
                cell: kind.name().to_string(),
                expected: kind.input_count(),
                got: pins,
            });
        }
        if role_aware && old.pin_roles() != kind.pin_roles() {
            let old_roles = old.pin_roles();
            let new_roles = kind.pin_roles();
            let pin = old_roles
                .iter()
                .zip(&new_roles)
                .position(|(a, b)| a != b)
                .expect("unequal role vectors differ at some pin");
            return Err(NetlistError::PinRoleMismatch {
                gate: self.gate_names[idx].clone(),
                from_cell: old.name().to_string(),
                to_cell: kind.name().to_string(),
                pin,
                detail: format!(
                    "`{}` ({}) would become `{}` ({})",
                    old.input_names()[pin],
                    old_roles[pin].name(),
                    kind.input_names()[pin],
                    new_roles[pin].name()
                ),
            });
        }
        self.gate_kinds[idx] = kind;
        Ok(())
    }

    /// ECO edit: sets the explicit extra lumped load on a net (farads).
    ///
    /// Re-runs the [`NetlistBuilder::build`] load check (finite, non-negative)
    /// before mutating. Connectivity is untouched; only downstream
    /// capacitance-dependent results change.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] for an out-of-range reference and
    /// [`NetlistError::InvalidLoad`] for a negative or non-finite value. On
    /// error the netlist is unchanged.
    pub fn set_net_load(&mut self, net: NetRef, farads: f64) -> Result<(), NetlistError> {
        let name = self
            .net_names
            .get(net.index())
            .ok_or_else(|| NetlistError::UnknownNet(format!("#{}", net.index())))?;
        if farads < 0.0 || !farads.is_finite() {
            return Err(NetlistError::InvalidLoad {
                net: name.clone(),
                farads,
            });
        }
        self.net_loads[net.index()] = farads;
        Ok(())
    }

    /// Serializes the netlist to a JSON tree.
    pub fn to_json_value(&self) -> JsonValue {
        let names = |nets: &[NetRef]| {
            JsonValue::Array(
                nets.iter()
                    .map(|&n| JsonValue::String(self.net_name(n).to_string()))
                    .collect(),
            )
        };
        JsonValue::Object(vec![
            ("name".into(), JsonValue::String(self.name.clone())),
            (
                "nets".into(),
                JsonValue::Array(
                    self.net_names
                        .iter()
                        .zip(&self.net_loads)
                        .map(|(name, &load)| {
                            JsonValue::Object(vec![
                                ("name".into(), JsonValue::String(name.clone())),
                                ("load".into(), JsonValue::Number(load)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("primary_inputs".into(), names(&self.primary_inputs)),
            ("primary_outputs".into(), names(&self.primary_outputs)),
            (
                "gates".into(),
                JsonValue::Array(
                    self.iter_gates()
                        .map(|g| {
                            JsonValue::Object(vec![
                                ("name".into(), JsonValue::String(g.name.to_string())),
                                ("cell".into(), JsonValue::String(g.kind.name().to_string())),
                                (
                                    "inputs".into(),
                                    JsonValue::Array(
                                        g.inputs
                                            .iter()
                                            .map(|&n| {
                                                JsonValue::String(self.net_name(n).to_string())
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "output".into(),
                                    JsonValue::String(self.net_name(g.output).to_string()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes the netlist to a pretty-printed JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// Rebuilds a netlist from a JSON tree, re-running full validation (a
    /// deserialized netlist is as sound as a built one).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Json`] on a malformed document and any
    /// validation error on a structurally invalid circuit.
    pub fn from_json_value(doc: &JsonValue) -> Result<Netlist, NetlistError> {
        let str_of = |v: &JsonValue, what: &str| -> Result<String, NetlistError> {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| NetlistError::Json(format!("{what} must be a string")))
        };
        let array_of = |key: &str| -> Result<Vec<JsonValue>, NetlistError> {
            Ok(doc
                .require(key)?
                .as_array()
                .ok_or_else(|| NetlistError::Json(format!("`{key}` must be an array")))?
                .to_vec())
        };

        let name = str_of(doc.require("name")?, "`name`")?;
        let mut builder = NetlistBuilder::new(&name);

        // Declare nets first, in stored order, so `NetRef` indices survive the
        // round trip exactly.
        for net in array_of("nets")? {
            let net_name = str_of(net.require("name")?, "net `name`")?;
            let load = net
                .require("load")?
                .as_f64()
                .ok_or_else(|| NetlistError::Json("net `load` must be a number".into()))?;
            let net_ref = builder.net_ref(&net_name);
            if load != 0.0 {
                builder.set_load(net_ref, load);
            }
        }
        for pi in array_of("primary_inputs")? {
            let net_ref = builder.net_ref(&str_of(&pi, "primary input")?);
            builder.mark_primary_input(net_ref);
        }
        for po in array_of("primary_outputs")? {
            let net_ref = builder.net_ref(&str_of(&po, "primary output")?);
            builder.mark_primary_output(net_ref);
        }
        let mut input_refs = Vec::new();
        for gate in array_of("gates")? {
            let gate_name = str_of(gate.require("name")?, "gate `name`")?;
            let cell = str_of(gate.require("cell")?, "gate `cell`")?;
            let kind = CellKind::from_name(&cell)
                .ok_or_else(|| NetlistError::Json(format!("unknown cell `{cell}`")))?;
            input_refs.clear();
            for v in gate
                .require("inputs")?
                .as_array()
                .ok_or_else(|| NetlistError::Json("gate `inputs` must be an array".into()))?
            {
                let input = str_of(v, "gate input")?;
                input_refs.push(builder.net_ref(&input));
            }
            let output = builder.net_ref(&str_of(gate.require("output")?, "gate `output`")?);
            builder.add_gate(&gate_name, kind, &input_refs, output);
        }
        builder.build()
    }

    /// Parses a netlist from JSON text (see [`Netlist::from_json_value`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Json`] on malformed input and any validation
    /// error on a structurally invalid circuit.
    pub fn from_json_str(text: &str) -> Result<Netlist, NetlistError> {
        let doc = JsonValue::parse(text)?;
        Netlist::from_json_value(&doc)
    }
}

impl ToJson for Netlist {
    fn to_json(&self) -> JsonValue {
        self.to_json_value()
    }
}

impl FromJson for Netlist {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Netlist::from_json_value(value).map_err(|e| JsonError(e.to_string()))
    }
}

/// Fluent builder for [`Netlist`]: declare nets, primary I/O, gates and
/// explicit loads in any order; all validation is deferred to
/// [`NetlistBuilder::build`].
///
/// Two styles are supported. The fluent string-keyed style reads well for
/// hand-written circuits:
///
/// ```
/// use mcsm_cells::cell::CellKind;
/// use mcsm_net::NetlistBuilder;
///
/// let netlist = NetlistBuilder::new("chain")
///     .primary_input("a")
///     .primary_input("b")
///     .gate("u_nor", CellKind::Nor2, &["a", "b"], "mid")
///     .gate("u_inv", CellKind::Inverter, &["mid"], "out")
///     .net_load("out", 2e-15)
///     .primary_output("out")
///     .build()
///     .expect("valid netlist");
/// assert_eq!(netlist.gate_count(), 2);
/// ```
///
/// Generators producing large circuits should prefer the index-based
/// `&mut self` API ([`NetlistBuilder::net_ref`], [`NetlistBuilder::add_gate`],
/// [`NetlistBuilder::mark_primary_input`], …), which interns every net name
/// once and appends gates straight into the flat arenas:
///
/// ```
/// use mcsm_cells::cell::CellKind;
/// use mcsm_net::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("prog");
/// let a = b.net_ref("a");
/// let out = b.net_ref("out");
/// b.mark_primary_input(a);
/// b.add_gate("u", CellKind::Inverter, &[a], out);
/// b.mark_primary_output(out);
/// assert_eq!(b.build().unwrap().gate_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetlistBuilder {
    name: String,
    net_names: Vec<String>,
    net_index: HashMap<String, NetRef>,
    net_loads: Vec<f64>,
    gate_names: Vec<String>,
    gate_kinds: Vec<CellKind>,
    gate_outputs: Vec<NetRef>,
    /// `gate_inputs[..ends[i]]` minus the previous end is gate `i`'s pins.
    gate_input_ends: Vec<u32>,
    gate_inputs: Vec<NetRef>,
    primary_inputs: Vec<NetRef>,
    primary_outputs: Vec<NetRef>,
}

impl NetlistBuilder {
    /// Starts an empty netlist with the given circuit name.
    pub fn new(name: &str) -> Self {
        NetlistBuilder {
            name: name.to_string(),
            ..NetlistBuilder::default()
        }
    }

    /// Interns a net by name, returning its reference (creates the net on
    /// first mention). This is the index-based twin of [`NetlistBuilder::net`].
    pub fn net_ref(&mut self, name: &str) -> NetRef {
        if let Some(&net) = self.net_index.get(name) {
            return net;
        }
        let net = NetRef::from_index(self.net_names.len());
        self.net_names.push(name.to_string());
        self.net_index.insert(name.to_string(), net);
        self.net_loads.push(0.0);
        net
    }

    /// Appends a gate instance by net reference: `inputs` in pin order,
    /// driving `output`. Returns the new gate's reference.
    pub fn add_gate(
        &mut self,
        name: &str,
        kind: CellKind,
        inputs: &[NetRef],
        output: NetRef,
    ) -> GateRef {
        let gate = GateRef::from_index(self.gate_names.len());
        self.gate_names.push(name.to_string());
        self.gate_kinds.push(kind);
        self.gate_outputs.push(output);
        self.gate_inputs.extend_from_slice(inputs);
        self.gate_input_ends.push(self.gate_inputs.len() as u32);
        gate
    }

    /// Declares a net as a primary input (idempotent), by reference.
    pub fn mark_primary_input(&mut self, net: NetRef) {
        if !self.primary_inputs.contains(&net) {
            self.primary_inputs.push(net);
        }
    }

    /// Declares a net as a primary output (idempotent), by reference.
    pub fn mark_primary_output(&mut self, net: NetRef) {
        if !self.primary_outputs.contains(&net) {
            self.primary_outputs.push(net);
        }
    }

    /// Sets an explicit extra lumped load on a net (farads), by reference.
    /// Replaces any previously set value.
    pub fn set_load(&mut self, net: NetRef, farads: f64) {
        self.net_loads[net.index()] = farads;
    }

    /// Declares a net by name without connecting it (nets are also created
    /// implicitly by every method that mentions them). Mostly useful to pin
    /// down net ordering, e.g. when rebuilding from JSON.
    #[must_use]
    pub fn net(mut self, name: &str) -> Self {
        self.net_ref(name);
        self
    }

    /// Declares a net as a primary input (idempotent).
    #[must_use]
    pub fn primary_input(mut self, net: &str) -> Self {
        let net = self.net_ref(net);
        self.mark_primary_input(net);
        self
    }

    /// Declares a net as a primary output (idempotent).
    #[must_use]
    pub fn primary_output(mut self, net: &str) -> Self {
        let net = self.net_ref(net);
        self.mark_primary_output(net);
        self
    }

    /// Adds a gate instance: `inputs` in pin order, driving `output`.
    #[must_use]
    pub fn gate(mut self, name: &str, kind: CellKind, inputs: &[&str], output: &str) -> Self {
        let inputs: Vec<NetRef> = inputs.iter().map(|n| self.net_ref(n)).collect();
        let output = self.net_ref(output);
        self.add_gate(name, kind, &inputs, output);
        self
    }

    /// Sets an explicit extra lumped load on a net (farads), modeling wire or
    /// off-chip capacitance. Replaces any previously set value.
    #[must_use]
    pub fn net_load(mut self, net: &str, farads: f64) -> Self {
        let net = self.net_ref(net);
        self.set_load(net, farads);
        self
    }

    /// Validates the declarations and produces the immutable [`Netlist`].
    ///
    /// # Errors
    ///
    /// * [`NetlistError::Empty`] — no gates were declared;
    /// * [`NetlistError::DuplicateGate`] — two gates share an instance name;
    /// * [`NetlistError::PinCountMismatch`] — a gate's input count does not
    ///   match its cell kind;
    /// * [`NetlistError::MultipleDrivers`] — a net has two drivers, or a gate
    ///   drives a primary input;
    /// * [`NetlistError::UndrivenNet`] — a consumed net has no driver and is
    ///   not a primary input (a dangling net);
    /// * [`NetlistError::UnreadNet`] — a net feeds nothing and is not a
    ///   primary output;
    /// * [`NetlistError::InvalidLoad`] — an explicit load is negative or
    ///   non-finite;
    /// * [`NetlistError::CombinationalLoop`] — a cycle exists that does not
    ///   pass through a register (cycles crossing sequential gates are legal:
    ///   a register's output is previous-epoch state, not a combinational
    ///   function of this epoch's inputs).
    pub fn build(self) -> Result<Netlist, NetlistError> {
        let gates = self.gate_names.len();
        let nets = self.net_names.len();
        if gates == 0 {
            return Err(NetlistError::Empty);
        }

        let mut pi_mask = vec![false; nets];
        for pi in &self.primary_inputs {
            pi_mask[pi.index()] = true;
        }
        let mut po_mask = vec![false; nets];
        for po in &self.primary_outputs {
            po_mask[po.index()] = true;
        }

        // Gate-local checks, in declaration order.
        let mut seen: HashMap<&str, usize> = HashMap::with_capacity(gates);
        let mut start = 0usize;
        for idx in 0..gates {
            let end = self.gate_input_ends[idx] as usize;
            if seen.insert(&self.gate_names[idx], idx).is_some() {
                return Err(NetlistError::DuplicateGate(self.gate_names[idx].clone()));
            }
            let kind = self.gate_kinds[idx];
            if end - start != kind.input_count() {
                return Err(NetlistError::PinCountMismatch {
                    gate: self.gate_names[idx].clone(),
                    cell: kind.name().to_string(),
                    expected: kind.input_count(),
                    got: end - start,
                });
            }
            start = end;
        }
        drop(seen);

        // Driver map; a net may have at most one, and primary inputs none.
        let mut drivers: Vec<Option<GateRef>> = vec![None; nets];
        for (idx, output) in self.gate_outputs.iter().enumerate() {
            let out = output.index();
            if let Some(first) = drivers[out] {
                return Err(NetlistError::MultipleDrivers {
                    net: self.net_names[out].clone(),
                    first: self.gate_names[first.index()].clone(),
                    second: self.gate_names[idx].clone(),
                });
            }
            if pi_mask[out] {
                return Err(NetlistError::MultipleDrivers {
                    net: self.net_names[out].clone(),
                    first: "<primary input>".to_string(),
                    second: self.gate_names[idx].clone(),
                });
            }
            drivers[out] = Some(GateRef(idx as u32));
        }

        // Fanout counts and connectivity checks, in original (gate, pin)
        // order so the first offender reported matches declaration order.
        let mut fanout_counts = vec![0u32; nets];
        let mut start = 0usize;
        for idx in 0..gates {
            let end = self.gate_input_ends[idx] as usize;
            for (pin, input) in self.gate_inputs[start..end].iter().enumerate() {
                fanout_counts[input.index()] += 1;
                if drivers[input.index()].is_none() && !pi_mask[input.index()] {
                    return Err(NetlistError::UndrivenNet {
                        net: self.net_names[input.index()].clone(),
                        consumer: format!("feeding gate `{}` pin {pin}", self.gate_names[idx]),
                    });
                }
            }
            start = end;
        }
        for po in &self.primary_outputs {
            if drivers[po.index()].is_none() && !pi_mask[po.index()] {
                return Err(NetlistError::UndrivenNet {
                    net: self.net_names[po.index()].clone(),
                    consumer: "a primary output".to_string(),
                });
            }
        }
        for (idx, name) in self.net_names.iter().enumerate() {
            if fanout_counts[idx] == 0 && !po_mask[idx] {
                return Err(NetlistError::UnreadNet(name.clone()));
            }
        }

        // Explicit loads must be physical.
        for (idx, &load) in self.net_loads.iter().enumerate() {
            if load < 0.0 || !load.is_finite() {
                return Err(NetlistError::InvalidLoad {
                    net: self.net_names[idx].clone(),
                    farads: load,
                });
            }
        }

        // Second CSR pass: fill the fanout pool. Iterating gates (then pins)
        // in insertion order keeps each net's fanout list in gate order.
        let mut fanout_offsets = vec![0u32; nets + 1];
        for idx in 0..nets {
            fanout_offsets[idx + 1] = fanout_offsets[idx] + fanout_counts[idx];
        }
        let mut cursor: Vec<u32> = fanout_offsets[..nets].to_vec();
        let mut fanouts = vec![(GateRef(0), 0u32); self.gate_inputs.len()];
        let mut start = 0usize;
        for idx in 0..gates {
            let end = self.gate_input_ends[idx] as usize;
            for (pin, input) in self.gate_inputs[start..end].iter().enumerate() {
                let slot = &mut cursor[input.index()];
                fanouts[*slot as usize] = (GateRef(idx as u32), pin as u32);
                *slot += 1;
            }
            start = end;
        }

        // Cycle check: Kahn's algorithm over the freshly built fanout CSR.
        // Each fanout entry of a driven net is one gate-to-gate edge — except
        // edges *into* a sequential gate (its D/CLK pins), which are register
        // arcs: a register's output is previous-epoch state, so a cycle is
        // legal exactly when every lap through it crosses a register.
        // Registers therefore start in the wave and their incoming edges are
        // skipped; whatever remains unplaced is a genuine combinational loop.
        let mut pending = vec![0u32; gates];
        let mut start = 0usize;
        for (idx, slot) in pending.iter_mut().enumerate() {
            let end = self.gate_input_ends[idx] as usize;
            if !self.gate_kinds[idx].is_sequential() {
                *slot = self.gate_inputs[start..end]
                    .iter()
                    .filter(|n| drivers[n.index()].is_some())
                    .count() as u32;
            }
            start = end;
        }
        let mut wave: Vec<u32> = (0..gates as u32)
            .filter(|&idx| pending[idx as usize] == 0)
            .collect();
        let mut placed = 0;
        while let Some(idx) = wave.pop() {
            placed += 1;
            let out = self.gate_outputs[idx as usize].index();
            let span = fanout_offsets[out] as usize..fanout_offsets[out + 1] as usize;
            for &(succ, _pin) in &fanouts[span] {
                if self.gate_kinds[succ.index()].is_sequential() {
                    continue;
                }
                pending[succ.index()] -= 1;
                if pending[succ.index()] == 0 {
                    wave.push(succ.0);
                }
            }
        }
        if placed < gates {
            let gates = self
                .gate_names
                .iter()
                .enumerate()
                .filter(|(idx, _)| pending[*idx] > 0)
                .map(|(_, name)| name.clone())
                .collect();
            return Err(NetlistError::CombinationalLoop { gates });
        }

        let mut gate_input_offsets = vec![0u32; gates + 1];
        gate_input_offsets[1..].copy_from_slice(&self.gate_input_ends);

        Ok(Netlist {
            name: self.name,
            net_names: self.net_names,
            net_index: self.net_index,
            net_loads: self.net_loads,
            gate_names: self.gate_names,
            gate_kinds: self.gate_kinds,
            gate_outputs: self.gate_outputs,
            gate_input_offsets,
            gate_inputs: self.gate_inputs,
            drivers,
            fanout_offsets,
            fanouts,
            primary_inputs: self.primary_inputs,
            primary_outputs: self.primary_outputs,
            pi_mask,
            po_mask,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Netlist {
        NetlistBuilder::new("chain")
            .primary_input("a")
            .primary_input("b")
            .gate("u_nor", CellKind::Nor2, &["a", "b"], "mid")
            .gate("u_inv", CellKind::Inverter, &["mid"], "out")
            .primary_output("out")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_a_connected_netlist() {
        let n = chain();
        assert_eq!(n.name(), "chain");
        assert_eq!(n.net_count(), 4);
        assert_eq!(n.gate_count(), 2);
        let mid = n.find_net("mid").unwrap();
        let u_nor = n.find_gate("u_nor").unwrap();
        assert_eq!(n.driver_of(mid), Some(u_nor));
        assert_eq!(n.fanout_of(mid).len(), 1);
        assert_eq!(n.gate(n.fanout_of(mid)[0].0).name, "u_inv");
        assert!(n.is_primary_input(n.find_net("a").unwrap()));
        assert!(n.is_primary_output(n.find_net("out").unwrap()));
        assert!(n.find_net("nope").is_err());
        assert!(n.find_gate("nope").is_err());
        assert_eq!(n.net_load(mid), 0.0);
    }

    #[test]
    fn index_api_matches_the_fluent_api() {
        let fluent = chain();
        let mut b = NetlistBuilder::new("chain");
        let a = b.net_ref("a");
        let bb = b.net_ref("b");
        let mid = b.net_ref("mid");
        let out = b.net_ref("out");
        b.mark_primary_input(a);
        b.mark_primary_input(bb);
        b.add_gate("u_nor", CellKind::Nor2, &[a, bb], mid);
        b.add_gate("u_inv", CellKind::Inverter, &[mid], out);
        b.mark_primary_output(out);
        let indexed = b.build().unwrap();
        assert_eq!(fluent, indexed);
    }

    #[test]
    fn refs_round_trip_through_indices() {
        let n = chain();
        for gate in n.gate_refs() {
            assert_eq!(GateRef::from_index(gate.index()), gate);
        }
        for net in n.net_refs() {
            assert_eq!(NetRef::from_index(net.index()), net);
        }
    }

    #[test]
    fn gate_views_and_csr_slices_are_consistent() {
        let n = chain();
        for gate in n.gate_refs() {
            let view = n.gate(gate);
            assert_eq!(view.name, n.gate_name(gate));
            assert_eq!(view.kind, n.gate_kind(gate));
            assert_eq!(view.inputs, n.inputs_of(gate));
            assert_eq!(view.output, n.output_of(gate));
            assert_eq!(view.inputs.len(), view.kind.input_count());
            assert_eq!(n.driver_of(view.output), Some(gate));
            // Every input appears in that net's fanout, with this pin index.
            for (pin, &input) in view.inputs.iter().enumerate() {
                assert!(n
                    .fanout_of(input)
                    .iter()
                    .any(|&(g, p)| g == gate && p as usize == pin));
            }
        }
    }

    #[test]
    fn levels_respect_dependencies_and_index_order() {
        let n = chain();
        let levels = n.levels();
        assert_eq!(levels.level_count(), 2);
        assert_eq!(levels.gate_count(), 2);
        assert_eq!(levels.gates(0), &[n.find_gate("u_nor").unwrap()]);
        assert_eq!(levels.gates(1), &[n.find_gate("u_inv").unwrap()]);
        assert_eq!(levels.iter().count(), 2);
    }

    #[test]
    fn explicit_loads_are_recorded() {
        let n = NetlistBuilder::new("loaded")
            .primary_input("a")
            .gate("u", CellKind::Inverter, &["a"], "out")
            .net_load("out", 5e-15)
            .primary_output("out")
            .build()
            .unwrap();
        assert_eq!(n.net_load(n.find_net("out").unwrap()), 5e-15);
    }

    #[test]
    fn retype_gate_validates_like_build() {
        let mut n = chain();
        let u_nor = n.find_gate("u_nor").unwrap();
        // NOR2 → NAND2 keeps the pin count: connectivity is untouched.
        n.retype_gate(u_nor, CellKind::Nand2).unwrap();
        assert_eq!(n.gate(u_nor).kind, CellKind::Nand2);
        let mid = n.find_net("mid").unwrap();
        assert_eq!(n.driver_of(mid), Some(u_nor));
        // NOR2 → INV would orphan a pin; rejected with the build()-time error
        // and the netlist left unchanged.
        let err = n.retype_gate(u_nor, CellKind::Inverter).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::PinCountMismatch { ref gate, expected: 1, got: 2, .. } if gate == "u_nor"
        ));
        assert_eq!(n.gate(u_nor).kind, CellKind::Nand2);
        assert!(matches!(
            n.retype_gate(GateRef::from_index(99), CellKind::Inverter)
                .unwrap_err(),
            NetlistError::UnknownGate(_)
        ));
    }

    #[test]
    fn set_net_load_validates_like_build() {
        let mut n = chain();
        let mid = n.find_net("mid").unwrap();
        n.set_net_load(mid, 3e-15).unwrap();
        assert_eq!(n.net_load(mid), 3e-15);
        for bad in [-1e-15, f64::NAN, f64::INFINITY] {
            let err = n.set_net_load(mid, bad).unwrap_err();
            assert!(matches!(
                err,
                NetlistError::InvalidLoad { ref net, .. } if net == "mid"
            ));
        }
        assert_eq!(n.net_load(mid), 3e-15);
        assert!(matches!(
            n.set_net_load(NetRef::from_index(99), 0.0).unwrap_err(),
            NetlistError::UnknownNet(_)
        ));
    }

    #[test]
    fn empty_netlist_is_rejected() {
        assert_eq!(
            NetlistBuilder::new("empty").build().unwrap_err(),
            NetlistError::Empty
        );
    }

    #[test]
    fn pin_count_mismatch_names_the_gate() {
        let err = NetlistBuilder::new("bad")
            .primary_input("a")
            .gate("u1", CellKind::Nand2, &["a"], "out")
            .primary_output("out")
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            NetlistError::PinCountMismatch { ref gate, expected: 2, got: 1, .. } if gate == "u1"
        ));
    }

    #[test]
    fn duplicate_gate_names_are_rejected() {
        let err = NetlistBuilder::new("bad")
            .primary_input("a")
            .gate("u", CellKind::Inverter, &["a"], "x")
            .gate("u", CellKind::Inverter, &["x"], "y")
            .primary_output("y")
            .build()
            .unwrap_err();
        assert_eq!(err, NetlistError::DuplicateGate("u".into()));
    }

    #[test]
    fn double_drivers_are_rejected() {
        let err = NetlistBuilder::new("bad")
            .primary_input("a")
            .gate("u1", CellKind::Inverter, &["a"], "out")
            .gate("u2", CellKind::Inverter, &["a"], "out")
            .primary_output("out")
            .build()
            .unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn driving_a_primary_input_is_rejected() {
        let err = NetlistBuilder::new("bad")
            .primary_input("a")
            .primary_input("b")
            .gate("u1", CellKind::Inverter, &["a"], "b")
            .primary_output("b")
            .build()
            .unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn dangling_input_net_is_rejected() {
        let err = NetlistBuilder::new("bad")
            .gate("u1", CellKind::Inverter, &["floating"], "out")
            .primary_output("out")
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            NetlistError::UndrivenNet { ref net, .. } if net == "floating"
        ));
    }

    #[test]
    fn undriven_primary_output_is_rejected() {
        let err = NetlistBuilder::new("bad")
            .primary_input("a")
            .gate("u1", CellKind::Inverter, &["a"], "out")
            .primary_output("out")
            .primary_output("ghost")
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            NetlistError::UndrivenNet { ref net, .. } if net == "ghost"
        ));
    }

    #[test]
    fn unread_net_is_rejected() {
        let err = NetlistBuilder::new("bad")
            .primary_input("a")
            .primary_input("unused")
            .gate("u1", CellKind::Inverter, &["a"], "out")
            .primary_output("out")
            .build()
            .unwrap_err();
        assert_eq!(err, NetlistError::UnreadNet("unused".into()));
    }

    /// A one-register feedback loop: q = DFF(d); d = INV(q).
    fn feedback() -> Netlist {
        NetlistBuilder::new("feedback")
            .primary_input("clk")
            .gate("r0", CellKind::Dff, &["d", "clk"], "q")
            .gate("u_inv", CellKind::Inverter, &["q"], "d")
            .primary_output("q")
            .build()
            .unwrap()
    }

    #[test]
    fn register_feedback_cycles_are_legal() {
        let n = feedback();
        assert!(n.has_sequential_gates());
        assert!(!chain().has_sequential_gates());
        // The register sits at level 0, the cone gate above it.
        let levels = n.levels();
        assert_eq!(levels.level_count(), 2);
        assert_eq!(levels.gates(0), &[n.find_gate("r0").unwrap()]);
        assert_eq!(levels.gates(1), &[n.find_gate("u_inv").unwrap()]);
    }

    #[test]
    fn cycles_not_crossing_a_register_still_fail() {
        // r0 breaks one loop, but u1/u2 form a second, purely combinational
        // one — that one must still be reported.
        let err = NetlistBuilder::new("bad")
            .primary_input("clk")
            .gate("r0", CellKind::Dff, &["d", "clk"], "q")
            .gate("u_inv", CellKind::Inverter, &["q"], "d")
            .gate("u1", CellKind::Nand2, &["q", "y"], "x")
            .gate("u2", CellKind::Inverter, &["x"], "y")
            .primary_output("y")
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            NetlistError::CombinationalLoop { ref gates }
                if gates == &["u1".to_string(), "u2".to_string()]
        ));
    }

    #[test]
    fn retype_between_register_kinds_is_role_aware() {
        let mut n = feedback();
        let r0 = n.find_gate("r0").unwrap();
        // DFF → DFFRB needs an RB net the instance does not have; the error
        // names the missing reset pin rather than a bare pin count.
        let err = n.retype_gate(r0, CellKind::DffRb).unwrap_err();
        match &err {
            NetlistError::PinRoleMismatch { pin, detail, .. } => {
                assert_eq!(*pin, 2);
                assert!(detail.contains("RB"), "{detail}");
                assert!(detail.contains("async-reset"), "{detail}");
            }
            other => panic!("expected PinRoleMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("`RB`"), "{err}");
        // DFF → LATCHD would turn the clock pin into a latch enable.
        let err = n.retype_gate(r0, CellKind::LatchD).unwrap_err();
        match &err {
            NetlistError::PinRoleMismatch { pin, detail, .. } => {
                assert_eq!(*pin, 1);
                assert!(detail.contains("CLK") && detail.contains("EN"), "{detail}");
            }
            other => panic!("expected PinRoleMismatch, got {other:?}"),
        }
        // DFF → NAND2 would turn the clock pin into a data pin.
        let err = n.retype_gate(r0, CellKind::Nand2).unwrap_err();
        assert!(
            matches!(&err, NetlistError::PinRoleMismatch { pin: 1, .. }),
            "{err:?}"
        );
        // And the reverse: a combinational gate cannot silently become a
        // register.
        let u_inv = n.find_gate("u_inv").unwrap();
        let err = n.retype_gate(u_inv, CellKind::Dff).unwrap_err();
        assert!(
            matches!(&err, NetlistError::PinRoleMismatch { pin: 1, .. }),
            "{err:?}"
        );
        // The netlist survived every rejection unchanged.
        assert_eq!(n.gate_kind(r0), CellKind::Dff);
        assert_eq!(n.gate_kind(u_inv), CellKind::Inverter);
        // Comb ↔ comb retypes keep the historical count-based error.
        let err = n.retype_gate(u_inv, CellKind::Nor2).unwrap_err();
        assert!(matches!(err, NetlistError::PinCountMismatch { .. }));
    }

    #[test]
    fn register_netlists_round_trip_through_json() {
        let n = NetlistBuilder::new("seq_rt")
            .primary_input("clk")
            .primary_input("rb")
            .gate("r0", CellKind::DffRb, &["d", "clk", "rb"], "q")
            .gate("u_inv", CellKind::Inverter, &["q"], "d")
            .net_load("q", 1.5e-15)
            .primary_output("q")
            .build()
            .unwrap();
        let back = Netlist::from_json_str(&n.to_json_string()).unwrap();
        assert_eq!(n, back);
        assert_eq!(
            back.gate_kind(back.find_gate("r0").unwrap()),
            CellKind::DffRb
        );
    }

    #[test]
    fn combinational_loop_is_rejected() {
        let err = NetlistBuilder::new("bad")
            .gate("u1", CellKind::Inverter, &["b"], "a")
            .gate("u2", CellKind::Inverter, &["a"], "b")
            .primary_output("a")
            .primary_output("b")
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            NetlistError::CombinationalLoop { ref gates } if gates.len() == 2
        ));
    }

    #[test]
    fn invalid_loads_are_rejected() {
        for bad in [-1e-15, f64::NAN, f64::INFINITY] {
            let err = NetlistBuilder::new("bad")
                .primary_input("a")
                .gate("u", CellKind::Inverter, &["a"], "out")
                .net_load("out", bad)
                .primary_output("out")
                .build()
                .unwrap_err();
            assert!(matches!(err, NetlistError::InvalidLoad { .. }), "{bad}");
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let n = NetlistBuilder::new("rt")
            .primary_input("a")
            .primary_input("b")
            .gate("u_nor", CellKind::Nor2, &["a", "b"], "mid")
            .gate("u_inv", CellKind::Inverter, &["mid"], "out")
            .net_load("out", 2.5e-15)
            .primary_output("out")
            .build()
            .unwrap();
        let text = n.to_json_string();
        let back = Netlist::from_json_str(&text).unwrap();
        assert_eq!(n, back);
        // The ToJson / FromJson trait impls agree with the inherent methods.
        let via_trait = <Netlist as FromJson>::from_json(&ToJson::to_json(&n)).unwrap();
        assert_eq!(n, via_trait);
    }

    #[test]
    fn malformed_json_is_reported() {
        assert!(matches!(
            Netlist::from_json_str("{not json"),
            Err(NetlistError::Json(_))
        ));
        // Unknown cells are a JSON-shape error.
        let doc = r#"{"name":"x","nets":[{"name":"a","load":0.0},{"name":"o","load":0.0}],
            "primary_inputs":["a"],"primary_outputs":["o"],
            "gates":[{"name":"u","cell":"XOR9","inputs":["a"],"output":"o"}]}"#;
        assert!(matches!(
            Netlist::from_json_str(doc),
            Err(NetlistError::Json(ref msg)) if msg.contains("XOR9")
        ));
        // A well-formed document describing an invalid circuit fails
        // validation, not parsing.
        let doc = r#"{"name":"x","nets":[{"name":"a","load":0.0},{"name":"o","load":0.0}],
            "primary_inputs":[],"primary_outputs":["o"],
            "gates":[{"name":"u","cell":"INV","inputs":["a"],"output":"o"}]}"#;
        assert!(matches!(
            Netlist::from_json_str(doc),
            Err(NetlistError::UndrivenNet { .. })
        ));
    }
}
