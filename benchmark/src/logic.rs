//! Output checks made apart from the CSM path: the benchmark's own
//! gate-level Boolean evaluation, settle check, zero-delay cycle simulation
//! and slack-report arithmetic.

use mcsm_cells::cell::{CellKind, PinRole};
use mcsm_net::{GateRef, NetRef, Netlist};
use mcsm_num::json::JsonValue;

/// The benchmark's own truth tables. `None` for cells the workloads never
/// use, so an unexpected cell is reported instead of guessed.
pub fn eval_gate(kind: CellKind, inputs: &[bool]) -> Option<bool> {
    match (kind, inputs) {
        (CellKind::Inverter, [a]) => Some(!a),
        (CellKind::Nand2, [a, b]) => Some(!(a & b)),
        (CellKind::Nor2, [a, b]) => Some(!(a | b)),
        _ => None,
    }
}

/// Combinational gates of `netlist` in an order where every gate comes after
/// the drivers of its inputs; register outputs count as sources.
pub fn comb_order(netlist: &Netlist) -> Vec<GateRef> {
    let mut pending: Vec<usize> = vec![0; netlist.gate_count()];
    let mut ready = Vec::new();
    for gate in netlist.gate_refs() {
        if netlist.gate_kind(gate).is_sequential() {
            continue;
        }
        pending[gate.index()] = netlist
            .inputs_of(gate)
            .iter()
            .filter(|&&net| {
                netlist
                    .driver_of(net)
                    .is_some_and(|d| !netlist.gate_kind(d).is_sequential())
            })
            .count();
        if pending[gate.index()] == 0 {
            ready.push(gate);
        }
    }
    let mut order = Vec::with_capacity(netlist.gate_count());
    while let Some(gate) = ready.pop() {
        order.push(gate);
        for &(reader, _) in netlist.fanout_of(netlist.output_of(gate)) {
            if netlist.gate_kind(reader).is_sequential() {
                continue;
            }
            pending[reader.index()] -= 1;
            if pending[reader.index()] == 0 {
                ready.push(reader);
            }
        }
    }
    order
}

/// Logic value of every net, given the values of the source nets (primary
/// inputs, plus register outputs for clocked netlists) in `values`, which is
/// indexed by net and completed in place.
///
/// # Errors
///
/// Names the first gate whose cell has no truth table here.
pub fn propagate(netlist: &Netlist, order: &[GateRef], values: &mut [bool]) -> Result<(), String> {
    let mut pins = Vec::with_capacity(2);
    for &gate in order {
        pins.clear();
        pins.extend(netlist.inputs_of(gate).iter().map(|n| values[n.index()]));
        let kind = netlist.gate_kind(gate);
        values[netlist.output_of(gate).index()] = eval_gate(kind, &pins).ok_or_else(|| {
            format!(
                "gate `{}`: no truth table for {}",
                netlist.gate_name(gate),
                kind.name()
            )
        })?;
    }
    Ok(())
}

/// Logic values of every net of a combinational netlist for the given
/// primary-input values.
///
/// # Errors
///
/// As [`propagate`].
pub fn logic_values(netlist: &Netlist, inputs: &[(NetRef, bool)]) -> Result<Vec<bool>, String> {
    let mut values = vec![false; netlist.net_count()];
    for &(net, value) in inputs {
        values[net.index()] = value;
    }
    propagate(netlist, &comb_order(netlist), &mut values)?;
    Ok(values)
}

/// Check (a): a net whose final voltage is more than `tolerance` volts away
/// from the rail its final logic value gives. Returns a description of the
/// first such net among `observed`, each given as `(net, final voltage)`.
pub fn settle_violation(
    netlist: &Netlist,
    logic: &[bool],
    observed: impl IntoIterator<Item = (NetRef, f64)>,
    vdd: f64,
    tolerance: f64,
) -> Option<String> {
    observed.into_iter().find_map(|(net, volts)| {
        let rail = if logic[net.index()] { vdd } else { 0.0 };
        ((volts - rail).abs() > tolerance).then(|| {
            format!(
                "net `{}` settles at {volts:.3} V, logic {} wants {rail:.2} V",
                netlist.net_name(net),
                u8::from(logic[net.index()])
            )
        })
    })
}

/// A zero-delay model of a clocked netlist: every register captures the
/// logic value of its D net at each clock edge.
#[derive(Debug, Clone)]
pub struct ZeroDelayPipeline {
    order: Vec<GateRef>,
    /// `(D net, Q net)` of every register, in netlist gate order (the order
    /// the server lists registers in).
    registers: Vec<(NetRef, NetRef)>,
    /// Register values launched at the start of the next cycle.
    pub state: Vec<bool>,
    /// Current value of each net that is a non-clock primary input.
    inputs: Vec<(NetRef, bool)>,
    /// Register state the last cycle started from (with `last_inputs`), so a
    /// retype can replay it.
    last_state: Option<Vec<bool>>,
    last_inputs: Vec<(NetRef, bool)>,
}

impl ZeroDelayPipeline {
    /// All registers and inputs start at 0, like the server's `load_clock`.
    pub fn new(netlist: &Netlist, clock: NetRef) -> Self {
        let registers: Vec<_> = netlist
            .gate_refs()
            .filter(|&g| netlist.gate_kind(g).is_sequential())
            .map(|g| {
                let roles = netlist.gate_kind(g).pin_roles();
                let data = roles.iter().position(|&r| r == PinRole::Data).unwrap_or(0);
                (netlist.inputs_of(g)[data], netlist.output_of(g))
            })
            .collect();
        let inputs: Vec<(NetRef, bool)> = netlist
            .primary_inputs()
            .iter()
            .filter(|&&pi| pi != clock)
            .map(|&pi| (pi, false))
            .collect();
        ZeroDelayPipeline {
            order: comb_order(netlist),
            state: vec![false; registers.len()],
            registers,
            last_inputs: inputs.clone(),
            inputs,
            last_state: None,
        }
    }

    fn capture(
        &self,
        netlist: &Netlist,
        state: &[bool],
        inputs: &[(NetRef, bool)],
    ) -> Result<Vec<bool>, String> {
        let mut values = vec![false; netlist.net_count()];
        for &(net, value) in inputs {
            values[net.index()] = value;
        }
        for (&(_, q), &value) in self.registers.iter().zip(state) {
            values[q.index()] = value;
        }
        propagate(netlist, &self.order, &mut values)?;
        Ok(self
            .registers
            .iter()
            .map(|&(d, _)| values[d.index()])
            .collect())
    }

    /// One clock cycle with the given input changes; returns the captured
    /// register values.
    ///
    /// # Errors
    ///
    /// As [`propagate`].
    pub fn cycle(
        &mut self,
        netlist: &Netlist,
        changes: &[(NetRef, bool)],
    ) -> Result<&[bool], String> {
        for &(net, value) in changes {
            if let Some(slot) = self.inputs.iter_mut().find(|(n, _)| *n == net) {
                slot.1 = value;
            }
        }
        let next = self.capture(netlist, &self.state, &self.inputs)?;
        self.last_state = Some(std::mem::replace(&mut self.state, next));
        self.last_inputs.clone_from(&self.inputs);
        Ok(&self.state)
    }

    /// After a retype of a combinational gate: the server replays the last
    /// cycle with the edited netlist, so the model does too.
    ///
    /// # Errors
    ///
    /// As [`propagate`].
    pub fn replay_last(&mut self, netlist: &Netlist) -> Result<(), String> {
        if let Some(before) = &self.last_state {
            self.state = self.capture(netlist, before, &self.last_inputs)?;
        }
        Ok(())
    }
}

/// Check (e) on one `slack` answer: every endpoint satisfies
/// `setup_slack = required - arrival`; register endpoints also satisfy
/// `required = period + insertion - setup`; endpoints come worst first; and
/// no endpoint violates setup (the benchmark's clock period is chosen so no
/// stage does). Returns the setup slacks in listed order.
///
/// # Errors
///
/// Describes the first endpoint that breaks a rule.
pub fn check_slack(answer: &JsonValue, period: f64, insertion: f64) -> Result<Vec<f64>, String> {
    const TOL: f64 = 1e-15;
    let endpoints = match answer.get("endpoints") {
        Some(JsonValue::Array(items)) if !items.is_empty() => items,
        _ => return Err("slack answer has no endpoints".into()),
    };
    let mut slacks = Vec::with_capacity(endpoints.len());
    for endpoint in endpoints {
        let name = endpoint
            .get("endpoint")
            .and_then(JsonValue::as_str)
            .unwrap_or("?");
        let field = |key: &str| endpoint.get(key).and_then(JsonValue::as_f64);
        let (Some(arrival), Some(required), Some(setup), Some(slack)) = (
            field("arrival_s"),
            field("required_s"),
            field("setup_s"),
            field("setup_slack_s"),
        ) else {
            return Err(format!(
                "endpoint `{name}` lacks arrival, required, setup or slack"
            ));
        };
        if (slack - (required - arrival)).abs() > TOL {
            return Err(format!(
                "endpoint `{name}`: setup slack {slack:e} != required {required:e} - arrival {arrival:e}"
            ));
        }
        let kind = endpoint.get("kind").and_then(JsonValue::as_str);
        if kind == Some("register-d") && (required - (period + insertion - setup)).abs() > TOL {
            return Err(format!(
                "endpoint `{name}`: required {required:e} != period + insertion - setup {:e}",
                period + insertion - setup
            ));
        }
        if slack <= 0.0 {
            return Err(format!(
                "endpoint `{name}` violates setup by {:e} s",
                -slack
            ));
        }
        if slacks.last().is_some_and(|&prev| prev > slack) {
            return Err(format!("endpoint `{name}` is listed after a worse-off one"));
        }
        slacks.push(slack);
    }
    Ok(slacks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsm_net::NetlistBuilder;

    #[test]
    fn truth_tables_cover_every_row() {
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(eval_gate(CellKind::Nand2, &[a, b]), Some(!(a && b)));
            assert_eq!(eval_gate(CellKind::Nor2, &[a, b]), Some(!(a || b)));
        }
        assert_eq!(eval_gate(CellKind::Inverter, &[true]), Some(false));
        assert_eq!(eval_gate(CellKind::Nand3, &[true, true, true]), None);
        assert_eq!(eval_gate(CellKind::Nand2, &[true]), None);
    }

    fn half_adder_ish() -> Netlist {
        // Gates inserted out of topological order on purpose.
        NetlistBuilder::new("t")
            .primary_input("a")
            .primary_input("b")
            .gate("g2", CellKind::Inverter, &["x"], "y")
            .gate("g1", CellKind::Nand2, &["a", "b"], "x")
            .gate("g3", CellKind::Nor2, &["y", "a"], "z")
            .primary_output("z")
            .build()
            .unwrap()
    }

    #[test]
    fn logic_values_follow_topological_order() {
        let n = half_adder_ish();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let z = n.find_net("z").unwrap();
        let y = n.find_net("y").unwrap();
        let v = logic_values(&n, &[(a, true), (b, true)]).unwrap();
        assert!(v[y.index()]);
        assert!(!v[z.index()]);
        let v = logic_values(&n, &[(a, false), (b, true)]).unwrap();
        assert!(!v[y.index()]);
        assert!(v[z.index()]);
    }

    #[test]
    fn settle_check_flags_only_the_wrong_rail() {
        let n = half_adder_ish();
        let z = n.find_net("z").unwrap();
        let logic = vec![false; n.net_count()];
        assert!(settle_violation(&n, &logic, [(z, 0.1)], 1.2, 0.12).is_none());
        let err = settle_violation(&n, &logic, [(z, 1.17)], 1.2, 0.12).unwrap();
        assert!(err.contains("`z`"), "{err}");
    }

    #[test]
    fn zero_delay_pipeline_shifts_and_replays_after_retype() {
        // in0 -> INV -> r0 -> NAND2(q0, in1) -> r1
        let mut n = NetlistBuilder::new("p")
            .primary_input("clk")
            .primary_input("in0")
            .primary_input("in1")
            .gate("inv", CellKind::Inverter, &["in0"], "d0")
            .gate("r0", CellKind::Dff, &["d0", "clk"], "q0")
            .gate("nd", CellKind::Nand2, &["q0", "in1"], "d1")
            .gate("r1", CellKind::Dff, &["d1", "clk"], "q1")
            .primary_output("q1")
            .build()
            .unwrap();
        let clk = n.find_net("clk").unwrap();
        let in1 = n.find_net("in1").unwrap();
        let mut model = ZeroDelayPipeline::new(&n, clk);
        assert_eq!(model.cycle(&n, &[]).unwrap(), &[true, true]);
        assert_eq!(model.cycle(&n, &[(in1, true)]).unwrap(), &[true, false]);
        let nd = n.find_gate("nd").unwrap();
        n.retype_gate(nd, CellKind::Nor2).unwrap();
        model.replay_last(&n).unwrap();
        // NOR2(q0 = 1, in1 = 1) = 0 either way; r0 still sees NOT in0.
        assert_eq!(model.state, vec![true, false]);
        assert_eq!(model.cycle(&n, &[(in1, false)]).unwrap(), &[true, false]);
    }

    fn endpoint(name: &str, kind: &str, arrival: f64, required: f64, setup: f64) -> String {
        format!(
            r#"{{"endpoint":"{name}","kind":"{kind}","arrival_s":{arrival:e},"required_s":{required:e},"setup_s":{setup:e},"setup_slack_s":{:e}}}"#,
            required - arrival
        )
    }

    #[test]
    fn slack_check_accepts_consistent_reports_and_rejects_broken_ones() {
        let period = 1e-9;
        let ok = format!(
            r#"{{"endpoints":[{},{}]}}"#,
            endpoint("r1", "register-d", 0.6e-9, period - 50e-12, 50e-12),
            endpoint("r0", "register-d", 0.2e-9, period - 50e-12, 50e-12)
        );
        let slacks = check_slack(&JsonValue::parse(&ok).unwrap(), period, 0.0).unwrap();
        assert_eq!(slacks.len(), 2);
        assert!(slacks[0] < slacks[1]);

        let unsorted = format!(
            r#"{{"endpoints":[{},{}]}}"#,
            endpoint("r0", "register-d", 0.2e-9, period - 50e-12, 50e-12),
            endpoint("r1", "register-d", 0.6e-9, period - 50e-12, 50e-12)
        );
        assert!(check_slack(&JsonValue::parse(&unsorted).unwrap(), period, 0.0).is_err());

        let wrong_required = format!(
            r#"{{"endpoints":[{}]}}"#,
            endpoint("r0", "register-d", 0.2e-9, period, 50e-12)
        );
        assert!(check_slack(&JsonValue::parse(&wrong_required).unwrap(), period, 0.0).is_err());

        let violated = format!(
            r#"{{"endpoints":[{}]}}"#,
            endpoint("r0", "register-d", 1.2e-9, period - 50e-12, 50e-12)
        );
        assert!(check_slack(&JsonValue::parse(&violated).unwrap(), period, 0.0).is_err());
    }
}
