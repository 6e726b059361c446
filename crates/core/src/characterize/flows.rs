//! End-to-end characterization flows: cell template in, model out.
//!
//! Three flows mirror the three model families:
//!
//! * [`characterize_mcsm`] — forces inputs, internal node and output
//!   (4-dimensional tables; Sections 3.2–3.3);
//! * [`characterize_mis_baseline`] — forces inputs and output only, letting the
//!   internal node float to its DC value (3-dimensional tables; Section 3.1);
//! * [`characterize_sis`] — forces one switching input and the output with the
//!   remaining inputs at their non-controlling value (2-dimensional tables;
//!   Section 2.1).

use super::rig::{Rig, RigPin};
use super::tables::{capacitance_tables, current_tables, input_pin_capacitance};
use crate::config::CharacterizationConfig;
use crate::error::CsmError;
use crate::model::{McsmModel, MisBaselineModel, SisModel};
use crate::store::ModelStore;
use crate::table::{voltage_axis, Table1, TableGroup};
use mcsm_cells::cell::{CellKind, CellTemplate};
use mcsm_num::grid::Axis;
use mcsm_num::lut::LutNd;
use mcsm_num::par;
use mcsm_spice::circuit::{Circuit, NodeId};
use mcsm_spice::source::SourceWaveform;

/// Builds the characterization circuit for a cell: supply source plus one
/// forcing source per probed pin. `force_internal` selects whether the internal
/// stack node gets its own source (MCSM) or is left floating (baseline MIS).
/// `sis_pin` restricts probing to a single input, holding the others at DC.
fn build_rig(
    template: &CellTemplate,
    force_internal: bool,
    sis_pin: Option<usize>,
) -> Result<Rig, CsmError> {
    let tech = template.technology().clone();
    let kind = template.kind();
    let mut circuit = Circuit::new();
    let vdd_node = circuit.node("vdd");
    let out_node = circuit.node("out");
    let input_nodes: Vec<NodeId> = kind
        .input_names()
        .iter()
        .map(|n| circuit.node(&n.to_lowercase()))
        .collect();

    circuit.add_vsource(vdd_node, Circuit::ground(), SourceWaveform::dc(tech.vdd))?;

    let ports = template.instantiate(&mut circuit, "dut", &input_nodes, out_node, vdd_node)?;

    let mut pins = Vec::new();
    let non_controlling = if kind.non_controlling_value() {
        tech.vdd
    } else {
        0.0
    };

    for (idx, (&node, name)) in input_nodes.iter().zip(kind.input_names()).enumerate() {
        let probed = match sis_pin {
            Some(pin) => idx == pin,
            None => idx < 2,
        };
        if probed {
            let src = circuit.add_vsource(node, Circuit::ground(), SourceWaveform::dc(0.0))?;
            pins.push(RigPin {
                name: name.to_lowercase(),
                source: src,
                node,
            });
        } else {
            // Held at the non-controlling value for the whole characterization.
            circuit.add_vsource(node, Circuit::ground(), SourceWaveform::dc(non_controlling))?;
        }
    }

    if force_internal {
        let internal = *ports.internal.first().ok_or_else(|| {
            CsmError::UnsupportedCell(format!(
                "{} has no internal stack node; use the baseline or SIS model",
                kind.name()
            ))
        })?;
        let src = circuit.add_vsource(internal, Circuit::ground(), SourceWaveform::dc(0.0))?;
        pins.push(RigPin {
            name: "n".into(),
            source: src,
            node: internal,
        });
    }

    let out_src = circuit.add_vsource(out_node, Circuit::ground(), SourceWaveform::dc(0.0))?;
    pins.push(RigPin {
        name: "out".into(),
        source: out_src,
        node: out_node,
    });

    Ok(Rig::new(circuit, pins, tech.vdd))
}

fn voltage_axes(vdd: f64, margin: f64, points: usize, count: usize) -> Result<Vec<Axis>, CsmError> {
    (0..count)
        .map(|_| voltage_axis(vdd, margin, points).map_err(CsmError::from))
        .collect()
}

/// Clamps a capacitance table at zero and converts it into the typed wrapper.
fn non_negative(lut: LutNd) -> LutNd {
    lut.map(|v| v.max(0.0))
}

/// Characterizes the complete MCSM of a two-input cell with one internal stack
/// node (NAND2, NOR2).
///
/// # Errors
///
/// * [`CsmError::UnsupportedCell`] if the cell does not have exactly two inputs
///   and one internal node.
/// * [`CsmError::InvalidParameter`] for an invalid configuration.
/// * Simulation errors from the underlying sweeps.
pub fn characterize_mcsm(
    template: &CellTemplate,
    config: &CharacterizationConfig,
) -> Result<McsmModel, CsmError> {
    config.validate().map_err(CsmError::InvalidParameter)?;
    let kind = template.kind();
    if kind.input_count() != 2 || kind.internal_node_count() != 1 {
        return Err(CsmError::UnsupportedCell(format!(
            "MCSM characterization needs a 2-input cell with one internal node; {} has {} inputs and {} internal nodes",
            kind.name(),
            kind.input_count(),
            kind.internal_node_count()
        )));
    }
    let vdd = template.technology().vdd;
    let mut rig = build_rig(template, true, None)?;
    // Pin order: a, b, n, out.
    let current_axes = voltage_axes(vdd, config.voltage_margin, config.current_grid_points, 4)?;
    let model = format!("{} MCSM", kind.name());
    let currents = current_tables(&mut rig, &current_axes, &[3, 2])?;
    let currents = currents.try_into().expect("two current tables");
    let current_tables = TableGroup::new(&model, McsmModel::CURRENT_TABLES, currents)?;

    let cap_axes = voltage_axes(
        vdd,
        config.voltage_margin,
        config.capacitance_grid_points,
        4,
    )?;
    let caps = capacitance_tables(&mut rig, &cap_axes, &[0, 1], 3, Some(2), config)?;
    let cm_a_lut = non_negative(caps.miller_to_output[0].clone());
    let cm_b_lut = non_negative(caps.miller_to_output[1].clone());
    let c_o_lut = non_negative(
        caps.output_total
            .zip_with(&caps.miller_to_output[0], |t, m| t - m)?
            .zip_with(&caps.miller_to_output[1], |t, m| t - m)?,
    );
    let c_n_lut = non_negative(caps.internal.clone().expect("internal pin was probed"));
    let cap_tables = TableGroup::new(
        &model,
        McsmModel::CAP_TABLES,
        [cm_a_lut, cm_b_lut, c_o_lut, c_n_lut],
    )?;

    // Input pin capacitances: 1-D in the input's own voltage, with the other
    // input at its non-controlling value, the internal node at mid rail and the
    // output held at mid rail.
    let non_controlling = if kind.non_controlling_value() {
        vdd
    } else {
        0.0
    };
    let input_axis = voltage_axis(vdd, config.voltage_margin, config.input_cap_grid_points)?;
    let held_a = [0.0, non_controlling, 0.5 * vdd, 0.5 * vdd];
    let held_b = [non_controlling, 0.0, 0.5 * vdd, 0.5 * vdd];
    let c_in_a = non_negative(input_pin_capacitance(
        &mut rig,
        &input_axis,
        0,
        &held_a,
        config,
    )?);
    let c_in_b = non_negative(input_pin_capacitance(
        &mut rig,
        &input_axis,
        1,
        &held_b,
        config,
    )?);

    Ok(McsmModel {
        cell_name: kind.name().to_string(),
        vdd,
        current_tables,
        cap_tables,
        c_in_a: Table1::new(c_in_a)?,
        c_in_b: Table1::new(c_in_b)?,
    })
}

/// Characterizes the baseline MIS model (no internal node) of a two-input cell.
///
/// # Errors
///
/// * [`CsmError::UnsupportedCell`] if the cell does not have exactly two inputs.
/// * Simulation errors from the underlying sweeps.
pub fn characterize_mis_baseline(
    template: &CellTemplate,
    config: &CharacterizationConfig,
) -> Result<MisBaselineModel, CsmError> {
    config.validate().map_err(CsmError::InvalidParameter)?;
    let kind = template.kind();
    if kind.input_count() != 2 {
        return Err(CsmError::UnsupportedCell(format!(
            "baseline MIS characterization needs a 2-input cell; {} has {}",
            kind.name(),
            kind.input_count()
        )));
    }
    let vdd = template.technology().vdd;
    let mut rig = build_rig(template, false, None)?;
    // Pin order: a, b, out.
    let current_axes = voltage_axes(vdd, config.voltage_margin, config.current_grid_points, 3)?;
    let model = format!("{} baseline MIS", kind.name());
    let io = current_tables(&mut rig, &current_axes, &[2])?;
    let current_tables = TableGroup::new(
        &model,
        MisBaselineModel::CURRENT_TABLES,
        io.try_into().expect("one current table"),
    )?;

    let cap_axes = voltage_axes(
        vdd,
        config.voltage_margin,
        config.capacitance_grid_points,
        3,
    )?;
    let caps = capacitance_tables(&mut rig, &cap_axes, &[0, 1], 2, None, config)?;
    let cm_a_lut = non_negative(caps.miller_to_output[0].clone());
    let cm_b_lut = non_negative(caps.miller_to_output[1].clone());
    let c_o_lut = non_negative(
        caps.output_total
            .zip_with(&caps.miller_to_output[0], |t, m| t - m)?
            .zip_with(&caps.miller_to_output[1], |t, m| t - m)?,
    );
    let cap_tables = TableGroup::new(
        &model,
        MisBaselineModel::CAP_TABLES,
        [cm_a_lut, cm_b_lut, c_o_lut],
    )?;

    let non_controlling = if kind.non_controlling_value() {
        vdd
    } else {
        0.0
    };
    let input_axis = voltage_axis(vdd, config.voltage_margin, config.input_cap_grid_points)?;
    let held_a = [0.0, non_controlling, 0.5 * vdd];
    let held_b = [non_controlling, 0.0, 0.5 * vdd];
    let c_in_a = non_negative(input_pin_capacitance(
        &mut rig,
        &input_axis,
        0,
        &held_a,
        config,
    )?);
    let c_in_b = non_negative(input_pin_capacitance(
        &mut rig,
        &input_axis,
        1,
        &held_b,
        config,
    )?);

    Ok(MisBaselineModel {
        cell_name: kind.name().to_string(),
        vdd,
        current_tables,
        cap_tables,
        c_in_a: Table1::new(c_in_a)?,
        c_in_b: Table1::new(c_in_b)?,
    })
}

/// Characterizes the single-input-switching model of any cell for the given
/// switching pin, holding every other input at its non-controlling value.
///
/// # Errors
///
/// * [`CsmError::InvalidParameter`] if the pin index is out of range.
/// * Simulation errors from the underlying sweeps.
pub fn characterize_sis(
    template: &CellTemplate,
    switching_pin: usize,
    config: &CharacterizationConfig,
) -> Result<SisModel, CsmError> {
    config.validate().map_err(CsmError::InvalidParameter)?;
    let kind = template.kind();
    if switching_pin >= kind.input_count() {
        return Err(CsmError::InvalidParameter(format!(
            "{} has {} inputs; pin {switching_pin} does not exist",
            kind.name(),
            kind.input_count()
        )));
    }
    let vdd = template.technology().vdd;
    let mut rig = build_rig(template, false, Some(switching_pin))?;
    // Pin order: in, out.
    let current_axes = voltage_axes(vdd, config.voltage_margin, config.current_grid_points, 2)?;
    let model = format!("{} SIS (pin {switching_pin})", kind.name());
    let io = current_tables(&mut rig, &current_axes, &[1])?;
    let current_tables = TableGroup::new(
        &model,
        SisModel::CURRENT_TABLES,
        io.try_into().expect("one current table"),
    )?;

    let cap_axes = voltage_axes(
        vdd,
        config.voltage_margin,
        config.capacitance_grid_points,
        2,
    )?;
    let caps = capacitance_tables(&mut rig, &cap_axes, &[0], 1, None, config)?;
    let cm_lut = non_negative(caps.miller_to_output[0].clone());
    let c_o_lut = non_negative(
        caps.output_total
            .zip_with(&caps.miller_to_output[0], |t, m| t - m)?,
    );
    let cap_tables = TableGroup::new(&model, SisModel::CAP_TABLES, [cm_lut, c_o_lut])?;

    let input_axis = voltage_axis(vdd, config.voltage_margin, config.input_cap_grid_points)?;
    let held = [0.0, 0.5 * vdd];
    let c_in = non_negative(input_pin_capacitance(
        &mut rig,
        &input_axis,
        0,
        &held,
        config,
    )?);

    Ok(SisModel {
        cell_name: kind.name().to_string(),
        vdd,
        switching_pin,
        other_inputs_high: kind.non_controlling_value(),
        current_tables,
        cap_tables,
        c_in: Table1::new(c_in)?,
    })
}

/// One unit of work inside a characterization batch: a single model family
/// (and, for SIS, switching pin) of one cell.
///
/// Characterization cost is dominated by the DC/ramp sweeps of each family, and
/// each family characterizes against its own freshly built [`Rig`], so tasks
/// are embarrassingly parallel. [`characterize_batch`] fans a list of them over
/// the [`mcsm_num::par`] pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CharacterizationTask {
    /// The single-input-switching model of one pin (Section 2.1).
    Sis {
        /// The switching pin to characterize.
        pin: usize,
    },
    /// The baseline MIS model (Section 3.1); two-input cells only.
    MisBaseline,
    /// The complete MCSM (Sections 3.2–3.3); two-input cells with one internal
    /// stack node only.
    Mcsm,
}

/// A characterized model of any family, as produced by one
/// [`CharacterizationTask`].
#[derive(Debug, Clone, PartialEq)]
pub enum CharacterizedModel {
    /// A single-input-switching model.
    Sis(SisModel),
    /// A baseline MIS model.
    MisBaseline(MisBaselineModel),
    /// A complete MCSM.
    Mcsm(McsmModel),
}

/// The tasks [`characterize_store`] and [`characterize_batch`] run for a cell
/// kind: one SIS model per input pin; for two-input cells also the baseline MIS
/// model; and, when the cell has exactly one internal stack node, the complete
/// MCSM.
pub fn characterization_tasks(kind: CellKind) -> Vec<CharacterizationTask> {
    let mut tasks: Vec<CharacterizationTask> = (0..kind.input_count())
        .map(|pin| CharacterizationTask::Sis { pin })
        .collect();
    if kind.input_count() == 2 {
        tasks.push(CharacterizationTask::MisBaseline);
        if kind.internal_node_count() == 1 {
            tasks.push(CharacterizationTask::Mcsm);
        }
    }
    tasks
}

/// Runs one characterization task against a template.
///
/// # Errors
///
/// Propagates the underlying flow's failure.
pub fn run_characterization_task(
    template: &CellTemplate,
    task: CharacterizationTask,
    config: &CharacterizationConfig,
) -> Result<CharacterizedModel, CsmError> {
    match task {
        CharacterizationTask::Sis { pin } => {
            characterize_sis(template, pin, config).map(CharacterizedModel::Sis)
        }
        CharacterizationTask::MisBaseline => {
            characterize_mis_baseline(template, config).map(CharacterizedModel::MisBaseline)
        }
        CharacterizationTask::Mcsm => {
            characterize_mcsm(template, config).map(CharacterizedModel::Mcsm)
        }
    }
}

/// Characterizes every model family a cell supports into one [`ModelStore`],
/// fanning the per-family tasks over `threads` worker threads (`0` = auto,
/// `1` = sequential). The store contents are bit-identical for every thread
/// count: each task is an independent pure function of `(template, config)`
/// and results are assembled in task order.
///
/// # Errors
///
/// Propagates characterization failures; with several failing tasks the error
/// of the first task in [`characterization_tasks`] order is reported, matching
/// the sequential flow.
pub fn characterize_store(
    template: &CellTemplate,
    config: &CharacterizationConfig,
    threads: usize,
) -> Result<ModelStore, CsmError> {
    Ok(
        characterize_batch(std::slice::from_ref(template), config, threads)?
            .pop()
            .expect("one store per template"),
    )
}

/// Characterizes a whole library — one [`ModelStore`] per template — with the
/// flattened `(template, family)` task list fanned over `threads` worker
/// threads (`0` = auto, `1` = sequential).
///
/// This is the batch entry point the paper's "cheap enough to run at scale"
/// pitch needs: the grid sweeps of all cells and families run concurrently,
/// while the deterministic reduction in [`mcsm_num::par::par_map_result`]
/// keeps the result bit-identical to the sequential flow.
///
/// # Errors
///
/// Propagates characterization failures (first failing task in sequential
/// order).
pub fn characterize_batch(
    templates: &[CellTemplate],
    config: &CharacterizationConfig,
    threads: usize,
) -> Result<Vec<ModelStore>, CsmError> {
    let tasks: Vec<(usize, CharacterizationTask)> = templates
        .iter()
        .enumerate()
        .flat_map(|(index, template)| {
            characterization_tasks(template.kind())
                .into_iter()
                .map(move |task| (index, task))
        })
        .collect();

    let models = par::par_map_result(threads, &tasks, |_, &(index, task)| {
        run_characterization_task(&templates[index], task, config)
    })?;

    let mut stores: Vec<ModelStore> = templates.iter().map(|_| ModelStore::new()).collect();
    for (&(index, _), model) in tasks.iter().zip(models) {
        let store = &mut stores[index];
        match model {
            CharacterizedModel::Sis(model) => store.sis.push(model),
            CharacterizedModel::MisBaseline(model) => store.mis_baseline = Some(model),
            CharacterizedModel::Mcsm(model) => store.mcsm = Some(model),
        }
    }
    Ok(stores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsm_cells::tech::Technology;

    fn nor2() -> CellTemplate {
        CellTemplate::new(CellKind::Nor2, Technology::cmos_130nm())
    }

    fn inverter() -> CellTemplate {
        CellTemplate::new(CellKind::Inverter, Technology::cmos_130nm())
    }

    #[test]
    fn mcsm_characterization_of_nor2_has_sane_signs() {
        let model = characterize_mcsm(&nor2(), &CharacterizationConfig::coarse()).unwrap();
        let vdd = model.vdd;
        // Both inputs high, output forced high → NMOS pull-down discharges the
        // output: positive I_o.
        assert!(model.output_current(vdd, vdd, vdd, vdd) > 1e-6);
        // Both inputs low, output forced low → PMOS stack charges the output:
        // negative I_o.
        assert!(model.output_current(0.0, 0.0, vdd, 0.0) < -1e-6);
        // Output near Vdd with inputs low → little current (output at its rail).
        let settled = model.output_current(0.0, 0.0, vdd, vdd);
        assert!(settled.abs() < 1e-5, "settled current {settled}");
        // Internal node: with B low the stack connects N towards Vdd, so forcing
        // N low draws a charging (negative, into-the-node) current.
        assert!(model.internal_current(0.0, 0.0, 0.0, 0.0) < -1e-6);
        // Capacitances are positive and of femto-farad order.
        let (cma, cmb, co, cn) = model.capacitances(0.6, 0.6, 0.6, 0.6);
        for (name, c) in [("cma", cma), ("cmb", cmb), ("co", co), ("cn", cn)] {
            assert!(c > 0.0 && c < 100e-15, "{name} = {c}");
        }
        assert!(model.input_capacitance(0, 0.6).unwrap() > 0.0);
        // Equilibrium internal voltage follows the input state as in Section 2.2.
        let v_n_10 = model.equilibrium_internal_voltage(vdd, 0.0, 0.0);
        let v_n_01 = model.equilibrium_internal_voltage(0.0, vdd, 0.0);
        assert!(v_n_10 > 0.8 * vdd, "v_n('10') = {v_n_10}");
        assert!(v_n_01 < 0.6 * vdd, "v_n('01') = {v_n_01}");
    }

    #[test]
    fn mcsm_rejects_cells_without_internal_node() {
        let err = characterize_mcsm(&inverter(), &CharacterizationConfig::coarse());
        assert!(matches!(err, Err(CsmError::UnsupportedCell(_))));
    }

    #[test]
    fn baseline_characterization_of_nor2() {
        let model = characterize_mis_baseline(&nor2(), &CharacterizationConfig::coarse()).unwrap();
        let vdd = model.vdd;
        assert!(model.output_current(vdd, vdd, vdd) > 1e-6);
        assert!(model.output_current(0.0, 0.0, 0.0) < -1e-6);
        let (cma, cmb, co) = model.capacitances(0.6, 0.6, 0.6);
        assert!(cma > 0.0 && cmb > 0.0 && co > 0.0);
    }

    #[test]
    fn baseline_rejects_non_two_input_cells() {
        let err = characterize_mis_baseline(&inverter(), &CharacterizationConfig::coarse());
        assert!(matches!(err, Err(CsmError::UnsupportedCell(_))));
    }

    #[test]
    fn sis_characterization_of_inverter() {
        let model = characterize_sis(&inverter(), 0, &CharacterizationConfig::coarse()).unwrap();
        let vdd = model.vdd;
        // Input high, output forced high → pull-down.
        assert!(model.output_current(vdd, vdd) > 1e-6);
        // Input low, output forced low → pull-up.
        assert!(model.output_current(0.0, 0.0) < -1e-6);
        let (cm, co) = model.capacitances(0.6, 0.6);
        assert!(cm > 0.0 && co > 0.0);
        assert!(model.input_capacitance(0.6) > 0.0);
    }

    #[test]
    fn sis_rejects_bad_pin() {
        let err = characterize_sis(&inverter(), 3, &CharacterizationConfig::coarse());
        assert!(matches!(err, Err(CsmError::InvalidParameter(_))));
    }

    #[test]
    fn characterization_tasks_mirror_cell_capabilities() {
        assert_eq!(
            characterization_tasks(CellKind::Inverter),
            vec![CharacterizationTask::Sis { pin: 0 }]
        );
        assert_eq!(
            characterization_tasks(CellKind::Nor2),
            vec![
                CharacterizationTask::Sis { pin: 0 },
                CharacterizationTask::Sis { pin: 1 },
                CharacterizationTask::MisBaseline,
                CharacterizationTask::Mcsm,
            ]
        );
        // Three-input cells are SIS-only (no 3-input MIS tables exist).
        assert_eq!(characterization_tasks(CellKind::Nor3).len(), 3);
        assert!(characterization_tasks(CellKind::Nor3)
            .iter()
            .all(|t| matches!(t, CharacterizationTask::Sis { .. })));
    }

    #[test]
    fn parallel_batch_is_bit_identical_to_sequential() {
        let templates = [inverter(), nor2()];
        let config = CharacterizationConfig::coarse();
        let sequential = characterize_batch(&templates, &config, 1).unwrap();
        let parallel = characterize_batch(&templates, &config, 4).unwrap();
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.len(), 2);
        assert_eq!(sequential[0].sis.len(), 1);
        assert!(sequential[0].mcsm.is_none());
        assert_eq!(sequential[1].sis.len(), 2);
        assert!(sequential[1].mcsm.is_some());
        assert!(sequential[1].mis_baseline.is_some());
    }

    #[test]
    fn characterize_store_matches_the_individual_flows() {
        let template = nor2();
        let config = CharacterizationConfig::coarse();
        let store = characterize_store(&template, &config, 2).unwrap();
        assert_eq!(
            store.mcsm,
            Some(characterize_mcsm(&template, &config).unwrap())
        );
        assert_eq!(
            store.sis_for_pin(1),
            Some(&characterize_sis(&template, 1, &config).unwrap())
        );
    }

    #[test]
    fn batch_reports_the_first_failing_task_deterministically() {
        // An invalid config fails every task; the error must be the sequential
        // one (first task of the first template) at any thread count.
        let mut config = CharacterizationConfig::coarse();
        config.probe_delta_v = 0.0;
        let templates = [nor2(), inverter()];
        let err_seq = characterize_batch(&templates, &config, 1).unwrap_err();
        let err_par = characterize_batch(&templates, &config, 4).unwrap_err();
        assert_eq!(format!("{err_seq}"), format!("{err_par}"));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = CharacterizationConfig::coarse();
        cfg.probe_delta_v = 0.0;
        assert!(characterize_mcsm(&nor2(), &cfg).is_err());
        assert!(characterize_mis_baseline(&nor2(), &cfg).is_err());
        assert!(characterize_sis(&nor2(), 0, &cfg).is_err());
    }
}
