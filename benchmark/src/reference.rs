//! Check (b): small reference circuits simulated twice, by the CSM netlist
//! simulator and by the in-repo transistor-level SPICE, compared waveform by
//! waveform. The circuits are fixed; the seed only jitters input timing by up
//! to half a picosecond.

use crate::gen::{mis_chain, Drive, Rng, Stimulus};
use crate::logic::{logic_values, settle_violation};
use mcsm_cells::cell::CellKind;
use mcsm_cells::tech::Technology;
use mcsm_core::sim::{CsmSimOptions, DriveWaveform};
use mcsm_net::{c17, NetRef, NetlistBuilder};
use mcsm_netsim::{simulate_netlist, NetsimOptions};
use mcsm_spice::analysis::{transient, TranOptions};
use mcsm_sta::delaycalc::{DelayBackend, DelayCalculator};
use mcsm_sta::models::ModelLibrary;
use std::collections::HashMap;
use std::time::Instant;

/// Largest NRMSE (fraction of Vdd) any gate-output net may show.
pub const NRMSE_CEILING: f64 = 0.10;
/// Largest 50 % arrival difference any switching gate-output net may show.
pub const ARRIVAL_CEILING_S: f64 = 30e-12;
/// Check (a) tolerance: a settled net lies within this share of Vdd of its rail.
pub const SETTLE_SHARE: f64 = 0.10;

const WINDOW: f64 = 3.0e-9;
const DT: f64 = 2e-12;

/// What the reference comparison found.
#[derive(Debug, Clone, Default)]
pub struct Accuracy {
    pub nrmse_max: f64,
    pub arrival_err_max_s: f64,
    /// Host seconds spent in SPICE transients.
    pub spice_s: f64,
    /// Circuits compared.
    pub circuits: usize,
    /// One entry per circuit that broke a ceiling or check (a).
    pub failures: Vec<String>,
    /// Bits of every compared waveform statistic, for the run digest.
    pub digest_values: Vec<f64>,
}

fn jitter(rng: &mut Rng) -> f64 {
    rng.range(-0.5e-12, 0.5e-12)
}

/// The fixed reference set: ISCAS c17 with all inputs falling, c17 with all
/// inputs rising, a six-stage multiple-input-switching NAND2 chain, and a
/// small mixed INV/NAND2/NOR2 circuit with reconvergence.
pub fn circuits(seed: u64) -> Vec<Stimulus> {
    let mut rng = Rng::new(seed, 0x5eed);
    let mut set = Vec::new();
    for rising in [false, true] {
        let netlist = c17();
        let drives = netlist
            .primary_inputs()
            .iter()
            .enumerate()
            .map(|(i, &pi)| {
                let t_start = 1e-9 + 20e-12 * (i % 5) as f64 + jitter(&mut rng);
                (pi, Drive::ramp(rising, t_start, 80e-12))
            })
            .collect();
        set.push(Stimulus { netlist, drives });
    }
    let mut chain = mis_chain("ref_chain6", 6, 1e-9, 45e-12, &mut Rng::new(11, 0));
    for (_, drive) in &mut chain.drives {
        drive.t_start += jitter(&mut rng);
    }
    set.push(chain);
    let mixed = NetlistBuilder::new("ref_mixed")
        .primary_input("a")
        .primary_input("b")
        .primary_input("c")
        .gate("x1", CellKind::Nor2, &["a", "b"], "p")
        .gate("x2", CellKind::Nand2, &["b", "c"], "q")
        .gate("x3", CellKind::Inverter, &["p"], "r")
        .gate("x4", CellKind::Nand2, &["r", "q"], "s")
        .gate("x5", CellKind::Nor2, &["s", "p"], "out")
        .primary_output("out")
        .build()
        .expect("the mixed reference circuit is valid");
    let drives = ["a", "b", "c"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let net = mixed.find_net(name).expect("declared above");
            (
                net,
                Drive::ramp(i != 1, 1e-9 + 25e-12 * i as f64 + jitter(&mut rng), 70e-12),
            )
        })
        .collect();
    set.push(Stimulus {
        netlist: mixed,
        drives,
    });
    set
}

/// Runs the comparison over [`circuits`]`(seed)`.
///
/// # Errors
///
/// Only for failures to run either simulator; accuracy misses are reported
/// in [`Accuracy::failures`].
pub fn compare(library: &ModelLibrary, seed: u64) -> Result<Accuracy, String> {
    let tech = Technology::cmos_130nm();
    let vdd = library.vdd();
    let mut acc = Accuracy::default();
    for stim in circuits(seed) {
        let _span = mcsm_obs::span("bench.reference");
        let netlist = &stim.netlist;
        let drives: HashMap<NetRef, DriveWaveform> = stim
            .drives
            .iter()
            .map(|(net, d)| (*net, d.waveform(vdd)))
            .collect();
        let calculator = DelayCalculator::new(
            DelayBackend::CompleteMcsm,
            CsmSimOptions::new(WINDOW, DT),
            vdd,
        );
        // No primary-output load: the SPICE lowering has none either.
        let csm = simulate_netlist(
            netlist,
            library,
            &drives,
            &NetsimOptions::new(calculator, 0.0),
        )
        .map_err(|e| format!("{}: netsim failed: {e}", netlist.name()))?;

        let mut lowered = netlist
            .to_spice_circuit(&tech)
            .map_err(|e| format!("{}: lowering failed: {e}", netlist.name()))?;
        for &(pi, source) in &lowered.input_sources.clone() {
            let drive = stim
                .drives
                .iter()
                .find(|(net, _)| *net == pi)
                .map(|(_, d)| d.source(vdd))
                .ok_or_else(|| format!("{}: no drive for an input", netlist.name()))?;
            lowered
                .circuit
                .set_vsource_waveform(source, drive)
                .map_err(|e| e.to_string())?;
        }
        let started = Instant::now();
        let spice = {
            let _span = mcsm_obs::span("bench.spice.transient");
            transient(&lowered.circuit, &TranOptions::new(WINDOW, DT))
                .map_err(|e| format!("{}: SPICE failed: {e}", netlist.name()))?
        };
        acc.spice_s += started.elapsed().as_secs_f64();
        acc.circuits += 1;

        let initial: Vec<(NetRef, bool)> =
            stim.drives.iter().map(|(n, d)| (*n, d.initial())).collect();
        let last: Vec<(NetRef, bool)> = stim.drives.iter().map(|(n, d)| (*n, d.last())).collect();
        let before = logic_values(netlist, &initial)?;
        let after = logic_values(netlist, &last)?;
        let mut failures = Vec::new();
        let mut nrmse_max: f64 = 0.0;
        let mut arrival_max: f64 = 0.0;
        for net in netlist.net_refs() {
            if netlist.driver_of(net).is_none() {
                continue;
            }
            let name = netlist.net_name(net);
            let theirs = spice.node(name).map_err(|e| e.to_string())?;
            let mine = csm.waveform(net).ok_or("netsim dropped a waveform")?;
            let grid = mine.merge_time_grids(theirs);
            let nrmse = mine
                .resample_onto(&grid)
                .and_then(|m| m.normalized_rmse_against(&theirs.resample_onto(&grid)?, vdd))
                .map_err(|e| e.to_string())?;
            nrmse_max = nrmse_max.max(nrmse);
            acc.digest_values.push(nrmse);
            if before[net.index()] != after[net.index()] {
                let rising = after[net.index()];
                match (
                    mine.crossing(0.5 * vdd, rising),
                    theirs.crossing(0.5 * vdd, rising),
                ) {
                    (Some(a), Some(b)) => {
                        arrival_max = arrival_max.max((a - b).abs());
                        acc.digest_values.push(a);
                    }
                    _ => failures.push(format!("net `{name}` never crosses 50 %")),
                }
            }
        }
        let observed = netlist
            .net_refs()
            .filter_map(|net| csm.waveform(net).map(|w| (net, w.final_value())));
        if let Some(v) = settle_violation(netlist, &after, observed, vdd, SETTLE_SHARE * vdd) {
            failures.push(v);
        }
        if nrmse_max > NRMSE_CEILING {
            failures.push(format!("NRMSE {nrmse_max:.4} above {NRMSE_CEILING}"));
        }
        if arrival_max > ARRIVAL_CEILING_S {
            failures.push(format!(
                "arrival error {:.2} ps above {:.0} ps",
                arrival_max * 1e12,
                ARRIVAL_CEILING_S * 1e12
            ));
        }
        for failure in failures {
            acc.failures.push(format!("{}: {failure}", netlist.name()));
        }
        acc.nrmse_max = acc.nrmse_max.max(nrmse_max);
        acc.arrival_err_max_s = acc.arrival_err_max_s.max(arrival_max);
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_set_is_fixed_up_to_small_jitter() {
        let a = circuits(1);
        let b = circuits(2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.netlist.to_json_string(), y.netlist.to_json_string());
            for ((_, dx), (_, dy)) in x.drives.iter().zip(&y.drives) {
                assert_eq!(dx.initial(), dy.initial());
                assert_eq!(dx.last(), dy.last());
                assert!((dx.t_start - dy.t_start).abs() <= 1e-12 + 1e-18);
            }
        }
        assert_ne!(format!("{:?}", a[0].drives), format!("{:?}", b[0].drives));
    }
}
