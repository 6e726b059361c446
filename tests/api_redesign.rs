//! Integration tests for the `CellModel` / `Simulation` API redesign: a model
//! store must survive a JSON round trip *through `resolve()`* — i.e. the
//! reloaded store resolves every backend and produces identical waveforms.

use mcsm_cells::cell::{CellKind, CellTemplate};
use mcsm_cells::tech::Technology;
use mcsm_core::characterize::{characterize_mcsm, characterize_mis_baseline, characterize_sis};
use mcsm_core::config::CharacterizationConfig;
use mcsm_core::selective::SelectivePolicy;
use mcsm_core::sim::{CsmSimOptions, DriveWaveform, Simulation};
use mcsm_core::store::{ModelBackend, ModelStore};
use mcsm_core::CsmError;

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

fn falling(vdd: f64) -> DriveWaveform {
    DriveWaveform::falling_ramp(vdd, 0.5e-9, 60e-12)
}

#[test]
fn store_round_trips_through_json_and_resolve() {
    let store = nor2_store();
    let reloaded = ModelStore::from_json(&store.to_json().unwrap()).unwrap();
    assert_eq!(store, reloaded);

    let vdd = 1.2;
    let load = 4e-15;
    let opts = CsmSimOptions::new(2e-9, 1e-12);
    let inputs = [falling(vdd), falling(vdd)];

    // Every backend resolves from the reloaded store and reproduces the
    // original store's waveform exactly.
    for backend in [
        ModelBackend::BaselineMis,
        ModelBackend::CompleteMcsm,
        ModelBackend::Selective(SelectivePolicy::default()),
    ] {
        let original = Simulation::of(&*store.resolve(backend, load).unwrap())
            .inputs(&inputs)
            .load(load)
            .initial_output(0.0)
            .options(opts.clone())
            .run()
            .unwrap();
        let round_tripped = Simulation::of(&*reloaded.resolve(backend, load).unwrap())
            .inputs(&inputs)
            .load(load)
            .initial_output(0.0)
            .options(opts.clone())
            .run()
            .unwrap();
        assert_eq!(original, round_tripped, "backend {backend:?}");
    }

    // SIS resolves per pin after the round trip, too.
    for pin in 0..2 {
        let model = reloaded.resolve(ModelBackend::Sis { pin }, load).unwrap();
        assert_eq!(model.num_pins(), 1);
        let result = Simulation::of(&*model)
            .input(falling(vdd))
            .load(load)
            .initial_output(0.0)
            .options(opts.clone())
            .run()
            .unwrap();
        assert!(result.output.final_value() > 1.0);
    }
}

#[test]
fn resolve_reports_missing_families_after_partial_round_trip() {
    // Strip the baseline model, round-trip, and check the selective backend
    // refuses with a MissingModel error instead of silently downgrading.
    let mut store = nor2_store();
    store.mis_baseline = None;
    let reloaded = ModelStore::from_json(&store.to_json().unwrap()).unwrap();
    assert!(reloaded.mis_baseline.is_none());
    assert!(matches!(
        reloaded.resolve(ModelBackend::Selective(SelectivePolicy::default()), 1e-15),
        Err(CsmError::MissingModel(_))
    ));
    assert!(matches!(
        reloaded.resolve(ModelBackend::BaselineMis, 1e-15),
        Err(CsmError::MissingModel(_))
    ));
    // The families that are present still resolve.
    assert!(reloaded.resolve(ModelBackend::CompleteMcsm, 1e-15).is_ok());
}
