//! Lowering a [`Netlist`] into the forms other engines consume.
//!
//! The netlist simulator (`mcsm-netsim`) reads a [`Netlist`] directly; the
//! two lowerings here cover the rest of the workspace:
//!
//! * [`Netlist::to_spice_circuit`] — the transistor-level form
//!   ([`mcsm_spice::circuit::Circuit`]), with every gate expanded through its
//!   [`mcsm_cells::cell::CellTemplate`], for golden-reference cross-checks;
//! * [`Netlist::simulate_gate`] — replays one gate of the netlist through the
//!   generic [`mcsm_core::model::CellModel`] engine, resolving whichever model
//!   family a [`ModelBackend`] requests.

use crate::error::NetlistError;
use crate::netlist::{GateRef, NetRef, Netlist};
use mcsm_cells::cell::CellTemplate;
use mcsm_cells::tech::Technology;
use mcsm_core::sim::{simulate, CsmSimOptions, DriveWaveform, SimResult};
use mcsm_core::store::{ModelBackend, ModelStore};
use mcsm_spice::circuit::{Circuit, ElementId, NodeId};
use mcsm_spice::source::SourceWaveform;

/// The SPICE lowering of a [`Netlist`]: the expanded circuit plus the handles
/// a testbench needs to drive and probe it.
#[derive(Debug, Clone)]
pub struct SpiceNetlist {
    /// The transistor-level circuit (shared `vdd` rail, one node per net,
    /// every gate instantiated with its instance name as node prefix).
    pub circuit: Circuit,
    /// The supply node.
    pub vdd: NodeId,
    /// Circuit node of each net, indexed by [`NetRef::index`].
    pub nodes: Vec<NodeId>,
    /// One placeholder voltage source per primary input (driving the net at
    /// DC 0 V), in primary-input declaration order. Replace its waveform via
    /// [`Circuit::set_vsource_waveform`] to apply stimuli.
    pub input_sources: Vec<(NetRef, ElementId)>,
}

impl Netlist {
    /// Lowers the netlist to a transistor-level [`Circuit`] in the given
    /// technology.
    ///
    /// The circuit gets a DC `vdd` supply, one node per net (named after the
    /// net), one placeholder voltage source per primary input (DC 0 V — swap
    /// in real stimuli with [`Circuit::set_vsource_waveform`]), every gate
    /// expanded through its [`CellTemplate`] (internal stack nodes namespaced
    /// by instance name), and a grounded capacitor per explicit net load.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Spice`] if circuit construction fails.
    pub fn to_spice_circuit(&self, technology: &Technology) -> Result<SpiceNetlist, NetlistError> {
        let mut circuit = Circuit::new();
        let vdd = circuit.node("vdd");
        circuit.add_vsource(vdd, Circuit::ground(), SourceWaveform::dc(technology.vdd))?;

        let nodes: Vec<NodeId> = (0..self.net_count())
            .map(|i| circuit.node(self.net_name(NetRef::from_index(i))))
            .collect();

        let mut input_sources = Vec::with_capacity(self.primary_inputs().len());
        for &pi in self.primary_inputs() {
            let source = circuit.add_vsource(
                nodes[pi.index()],
                Circuit::ground(),
                SourceWaveform::dc(0.0),
            )?;
            input_sources.push((pi, source));
        }

        let mut inputs: Vec<NodeId> = Vec::with_capacity(4);
        for gate in self.iter_gates() {
            let template = CellTemplate::new(gate.kind, technology.clone());
            inputs.clear();
            inputs.extend(gate.inputs.iter().map(|n| nodes[n.index()]));
            template.instantiate(
                &mut circuit,
                gate.name,
                &inputs,
                nodes[gate.output.index()],
                vdd,
            )?;
        }

        for (idx, &node) in nodes.iter().enumerate() {
            let load = self.net_load(NetRef::from_index(idx));
            if load > 0.0 {
                circuit.add_capacitor(node, Circuit::ground(), load)?;
            }
        }

        Ok(SpiceNetlist {
            circuit,
            vdd,
            nodes,
            input_sources,
        })
    }

    /// Replays one gate of the netlist through the generic `CellModel` engine.
    ///
    /// `inputs` are drive waveforms in pin order (one per gate input);
    /// `backend` picks the model family out of `store` exactly as
    /// [`ModelStore::resolve`] would; the initial output level is derived from
    /// the gate's Boolean function at the initial input logic values (against
    /// the resolved model's own supply voltage) — the same convention
    /// `mcsm_sta::DelayCalculator` uses, which is what makes a netlist gate
    /// replay bit-identical to the corresponding delay-calculator solve.
    ///
    /// For [`ModelBackend::Sis`] the resolved model has one pin; the waveform
    /// of the requested pin drives it. All other backends see the first
    /// `num_pins` input waveforms.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::PinCountMismatch`] if `inputs` does not match the
    ///   gate's pin count;
    /// * [`NetlistError::Model`] for model-resolution or simulation failures.
    pub fn simulate_gate(
        &self,
        gate: GateRef,
        store: &ModelStore,
        backend: ModelBackend,
        inputs: &[DriveWaveform],
        load_capacitance: f64,
        options: &CsmSimOptions,
    ) -> Result<SimResult, NetlistError> {
        let inst = self.gate(gate);
        if inputs.len() != inst.kind.input_count() {
            return Err(NetlistError::PinCountMismatch {
                gate: inst.name.to_string(),
                cell: inst.kind.name().to_string(),
                expected: inst.kind.input_count(),
                got: inputs.len(),
            });
        }

        let model = store.resolve(backend, load_capacitance)?;
        let vdd = model.vdd();
        let initial_logic: Vec<bool> = inputs
            .iter()
            .map(|d| d.initial_value() > 0.5 * vdd)
            .collect();
        let v_out_initial = if inst.kind.evaluate(&initial_logic) {
            vdd
        } else {
            0.0
        };
        let model_inputs: &[DriveWaveform] = match backend {
            ModelBackend::Sis { pin } => {
                if pin >= inputs.len() {
                    return Err(NetlistError::Model(format!(
                        "gate `{}` has no pin {pin}",
                        inst.name
                    )));
                }
                std::slice::from_ref(&inputs[pin])
            }
            _ => &inputs[..model.num_pins().min(inputs.len())],
        };
        Ok(simulate(
            &*model,
            model_inputs,
            load_capacitance,
            v_out_initial,
            None,
            options,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use mcsm_cells::cell::CellKind;
    use mcsm_core::characterize::{characterize_mcsm, characterize_sis};
    use mcsm_core::config::CharacterizationConfig;
    use mcsm_spice::analysis::{transient, TranOptions};

    fn chain() -> Netlist {
        NetlistBuilder::new("chain")
            .primary_input("a")
            .primary_input("b")
            .gate("u_nor", CellKind::Nor2, &["a", "b"], "mid")
            .gate("u_inv", CellKind::Inverter, &["mid"], "out")
            .net_load("out", 2e-15)
            .primary_output("out")
            .build()
            .unwrap()
    }

    #[test]
    fn spice_lowering_is_simulatable() {
        let n = chain();
        let tech = Technology::cmos_130nm();
        let mut lowered = n.to_spice_circuit(&tech).unwrap();
        assert_eq!(lowered.nodes.len(), n.net_count());
        assert_eq!(lowered.input_sources.len(), 2);

        // Drive both inputs with falling ramps: NOR2 output rises, INV falls.
        for &(_, source) in &lowered.input_sources {
            lowered
                .circuit
                .set_vsource_waveform(
                    source,
                    SourceWaveform::falling_ramp(tech.vdd, 0.4e-9, 60e-12),
                )
                .unwrap();
        }
        let result = transient(&lowered.circuit, &TranOptions::new(2.5e-9, 4e-12)).unwrap();
        let mid = result.node("mid").unwrap();
        let out = result.node("out").unwrap();
        assert!(mid.final_value() > 0.9 * tech.vdd, "{}", mid.final_value());
        assert!(out.final_value() < 0.1 * tech.vdd, "{}", out.final_value());
    }

    #[test]
    fn simulate_gate_replays_through_the_generic_engine() {
        let n = chain();
        let tech = Technology::cmos_130nm();
        let template = CellTemplate::new(CellKind::Nor2, tech.clone());
        let cfg = CharacterizationConfig::coarse();
        let mut store = ModelStore::new();
        store
            .sis
            .push(characterize_sis(&template, 0, &cfg).unwrap());
        store.mcsm = Some(characterize_mcsm(&template, &cfg).unwrap());

        let gate = n.find_gate("u_nor").unwrap();
        let drives = [
            DriveWaveform::falling_ramp(tech.vdd, 0.4e-9, 60e-12),
            DriveWaveform::falling_ramp(tech.vdd, 0.4e-9, 60e-12),
        ];
        let options = CsmSimOptions::new(2.5e-9, 1e-12);
        let result = n
            .simulate_gate(
                gate,
                &store,
                ModelBackend::CompleteMcsm,
                &drives,
                4e-15,
                &options,
            )
            .unwrap();
        // '11' -> '00' MIS event: the NOR2 output rises from 0.
        assert!(result.output.value_at(0.0) < 0.1);
        assert!(result.output.final_value() > 0.9 * tech.vdd);
        assert_eq!(result.state_traces.len(), 1);

        // The SIS backend replays the requested pin only.
        let sis = n
            .simulate_gate(
                gate,
                &store,
                ModelBackend::Sis { pin: 0 },
                &drives,
                4e-15,
                &options,
            )
            .unwrap();
        assert!(sis.output.final_value() > 0.9 * tech.vdd);

        // Wrong arity is a netlist-level error.
        assert!(matches!(
            n.simulate_gate(
                gate,
                &store,
                ModelBackend::CompleteMcsm,
                &drives[..1],
                4e-15,
                &options,
            ),
            Err(NetlistError::PinCountMismatch { .. })
        ));
        // A missing family is a model error.
        assert!(matches!(
            n.simulate_gate(
                gate,
                &store,
                ModelBackend::BaselineMis,
                &drives,
                4e-15,
                &options,
            ),
            Err(NetlistError::Model(_))
        ));
    }
}
