//! The `batch` experiment: parallel whole-library characterization, timed
//! sequential-vs-parallel.
//!
//! This is the throughput side of the paper's pitch — current-source models
//! only pay off if characterizing a library is cheap enough to run at scale.
//! The experiment characterizes every model family of a cell list twice —
//! once on one thread, once on `threads` — checks the stores are
//! **bit-identical**, and emits a machine-readable [`BatchReport`] (written by
//! the `batch` binary to `BENCH_batch.json`) so CI can track the speedup
//! trajectory. Netlist-level timing throughput is the `netsim` experiment's
//! subject.
//!
//! Honors `MCSM_BENCH_FAST=1` (see [`crate::report::fast_mode`]) by shrinking
//! grids so smoke runs finish in seconds.

use crate::report::fast_or;
use mcsm_cells::cell::{CellKind, CellTemplate};
use mcsm_cells::tech::Technology;
use mcsm_core::characterize::{characterization_tasks, characterize_batch};
use mcsm_core::config::CharacterizationConfig;
use mcsm_num::json::JsonValue;
use mcsm_num::par;
use mcsm_sta::StaError;
use std::time::Instant;

/// Configuration of one batch-experiment run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads for the parallel passes (`0` = auto).
    pub threads: usize,
    /// Cell kinds to characterize.
    pub kinds: Vec<CellKind>,
    /// Characterization grids.
    pub config: CharacterizationConfig,
    /// Timed repetitions per measured pass; the best (minimum) wall clock is
    /// reported, damping scheduler noise on short runs.
    pub repeats: usize,
}

/// The fast-mode characterization grid: between `coarse` and `standard`.
/// Deliberately not as tiny as `coarse` — the CI perf gate compares wall
/// clocks, and sub-200 ms passes would be at the mercy of scheduler noise on
/// shared runners; at roughly a second per pass the speedup measurement is
/// stable while the smoke job still finishes quickly.
fn smoke_config() -> CharacterizationConfig {
    CharacterizationConfig {
        current_grid_points: 7,
        capacitance_grid_points: 4,
        voltage_margin: 0.1,
        probe_delta_v: 0.1,
        probe_ramp_times: vec![20e-12, 40e-12],
        probe_dt: 1.5e-12,
        input_cap_grid_points: 5,
    }
}

impl BatchOptions {
    /// The default experiment for a thread count: the full library with
    /// standard grids, shrunk to mid-size smoke grids when
    /// [`crate::report::fast_mode`] is active.
    pub fn for_threads(threads: usize) -> Self {
        BatchOptions {
            threads,
            kinds: vec![
                CellKind::Inverter,
                CellKind::Nand2,
                CellKind::Nor2,
                CellKind::Nand3,
                CellKind::Nor3,
                CellKind::Aoi21,
            ],
            config: fast_or(smoke_config(), CharacterizationConfig::standard()),
            repeats: fast_or(3, 1),
        }
    }
}

/// Measured results of one batch-experiment run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Worker threads the parallel passes ran with (resolved, so never 0).
    pub threads: usize,
    /// Characterized cell names.
    pub cells: Vec<String>,
    /// Number of per-(cell, family) characterization tasks.
    pub characterization_tasks: usize,
    /// Wall-clock seconds of the sequential characterization pass.
    pub characterize_sequential_seconds: f64,
    /// Wall-clock seconds of the parallel characterization pass.
    pub characterize_parallel_seconds: f64,
    /// Whether the parallel stores equal the sequential ones bit-for-bit.
    pub characterization_identical: bool,
}

impl BatchReport {
    /// Sequential-over-parallel wall-clock ratio of the characterization pass.
    pub fn characterize_speedup(&self) -> f64 {
        self.characterize_sequential_seconds / self.characterize_parallel_seconds.max(1e-12)
    }

    /// The machine-readable report written to `BENCH_batch.json`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("experiment".into(), JsonValue::String("batch".into())),
            (
                "fast_mode".into(),
                JsonValue::Bool(crate::report::fast_mode()),
            ),
            ("threads".into(), JsonValue::Number(self.threads as f64)),
            (
                "characterization".into(),
                JsonValue::Object(vec![
                    (
                        "cells".into(),
                        JsonValue::Array(
                            self.cells
                                .iter()
                                .map(|c| JsonValue::String(c.clone()))
                                .collect(),
                        ),
                    ),
                    (
                        "tasks".into(),
                        JsonValue::Number(self.characterization_tasks as f64),
                    ),
                    (
                        "sequential_seconds".into(),
                        JsonValue::Number(self.characterize_sequential_seconds),
                    ),
                    (
                        "parallel_seconds".into(),
                        JsonValue::Number(self.characterize_parallel_seconds),
                    ),
                    (
                        "speedup".into(),
                        JsonValue::Number(self.characterize_speedup()),
                    ),
                    (
                        "bit_identical".into(),
                        JsonValue::Bool(self.characterization_identical),
                    ),
                ]),
            ),
        ])
    }
}

/// Runs the batch experiment.
///
/// # Errors
///
/// Propagates characterization failures.
pub fn run_batch(options: &BatchOptions) -> Result<BatchReport, StaError> {
    let threads = par::resolve_threads(options.threads);
    let technology = Technology::cmos_130nm();
    let templates: Vec<CellTemplate> = options
        .kinds
        .iter()
        .map(|&kind| CellTemplate::new(kind, technology.clone()))
        .collect();
    let tasks: usize = options
        .kinds
        .iter()
        .map(|&kind| characterization_tasks(kind).len())
        .sum();

    // Characterization: sequential reference, then the parallel batch. Each
    // pass is timed `repeats` times (best-of) so short fast-mode runs are not
    // at the mercy of scheduler noise.
    let timed = |threads: usize| -> Result<(_, f64), StaError> {
        let mut best = f64::INFINITY;
        let mut stores = None;
        for _ in 0..options.repeats.max(1) {
            let start = Instant::now();
            let result = characterize_batch(&templates, &options.config, threads)?;
            best = best.min(start.elapsed().as_secs_f64());
            stores = Some(result);
        }
        Ok((stores.expect("at least one repeat"), best))
    };
    let (sequential_stores, characterize_sequential_seconds) = timed(1)?;
    let (parallel_stores, characterize_parallel_seconds) = timed(threads)?;
    let characterization_identical = sequential_stores == parallel_stores;

    Ok(BatchReport {
        threads,
        cells: options.kinds.iter().map(|k| k.name().to_string()).collect(),
        characterization_tasks: tasks,
        characterize_sequential_seconds,
        characterize_parallel_seconds,
        characterization_identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_report_serializes_every_field() {
        let report = BatchReport {
            threads: 4,
            cells: vec!["INV".into(), "NOR2".into()],
            characterization_tasks: 5,
            characterize_sequential_seconds: 2.0,
            characterize_parallel_seconds: 0.5,
            characterization_identical: true,
        };
        assert!((report.characterize_speedup() - 4.0).abs() < 1e-9);
        let json = report.to_json();
        let chr = json.require("characterization").unwrap();
        assert_eq!(chr.require("speedup").unwrap().as_f64(), Some(4.0));
        assert_eq!(chr.require("bit_identical").unwrap().as_bool(), Some(true));
        // The report round-trips through the JSON writer/parser.
        let reparsed = JsonValue::parse(&json.to_string_pretty()).unwrap();
        assert_eq!(reparsed, json);
    }

    #[test]
    fn tiny_batch_run_is_identical_and_reports_sane_numbers() {
        let options = BatchOptions {
            threads: 2,
            kinds: vec![CellKind::Inverter, CellKind::Nor2],
            config: CharacterizationConfig::coarse(),
            repeats: 1,
        };
        let report = run_batch(&options).unwrap();
        assert!(report.characterization_identical);
        assert_eq!(report.characterization_tasks, 5);
        assert!(report.characterize_sequential_seconds > 0.0);
        assert!(report.characterize_parallel_seconds > 0.0);
    }
}
