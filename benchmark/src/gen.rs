//! Seeded input generation: netlists, primary-input drives, ECO streams and
//! cycle vectors. Everything the program under test sees is made here from
//! the `--seed` argument, with the benchmark's own generator so the inputs do
//! not change when the program's own circuit generators do.

use mcsm_cells::cell::CellKind;
use mcsm_core::sim::DriveWaveform;
use mcsm_net::{NetRef, Netlist, NetlistBuilder};
use mcsm_spice::source::SourceWaveform;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent stream of a run's seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..len` (`len > 0`).
    pub fn index(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// One primary-input stimulus: a full-swing ramp, as the server's
/// `set_drive` builds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drive {
    pub rising: bool,
    pub t_start: f64,
    pub transition: f64,
}

impl Drive {
    pub fn ramp(rising: bool, t_start: f64, transition: f64) -> Self {
        Drive {
            rising,
            t_start,
            transition,
        }
    }

    pub fn initial(&self) -> bool {
        !self.rising
    }

    pub fn last(&self) -> bool {
        self.rising
    }

    /// The drive as the CSM engine sees it (built as `set_drive` builds it).
    pub fn waveform(&self, vdd: f64) -> DriveWaveform {
        if self.rising {
            DriveWaveform::rising_ramp(vdd, self.t_start, self.transition)
        } else {
            DriveWaveform::falling_ramp(vdd, self.t_start, self.transition)
        }
    }

    /// The drive as a SPICE voltage source.
    pub fn source(&self, vdd: f64) -> SourceWaveform {
        if self.rising {
            SourceWaveform::rising_ramp(vdd, self.t_start, self.transition)
        } else {
            SourceWaveform::falling_ramp(vdd, self.t_start, self.transition)
        }
    }

    /// The `drive` object of a `set_drive` request.
    pub fn json(&self) -> String {
        format!(
            r#"{{"kind":"{}","t_start":{:e},"transition":{:e}}}"#,
            if self.rising { "rise" } else { "fall" },
            self.t_start,
            self.transition
        )
    }
}

/// A netlist plus one drive per primary input, in primary-input order.
#[derive(Debug, Clone)]
pub struct Stimulus {
    pub netlist: Netlist,
    pub drives: Vec<(NetRef, Drive)>,
}

/// Seed of every generated netlist's structure. Structure is the same for
/// every `--seed`, which drives the stimuli, edit streams and cycle vectors
/// instead: run-to-run spread then measures the program, not how cheap a
/// seed's random circuit happened to be.
pub const STRUCTURE_SEED: u64 = 1;

const COMB_KINDS: [CellKind; 3] = [CellKind::Inverter, CellKind::Nand2, CellKind::Nor2];

/// A strictly leveled DAG: `width` primary inputs, then `levels` levels of
/// `width` gates whose pins all come from the level directly above: the
/// first pin from the same slot, so every net is read, the second from one
/// of the next three slots (wrapping), so cones widen steadily instead of at
/// random. INV, NAND2 and NOR2 each take a third of the gates, placed at
/// random, so seeds differ in structure but not in cell mix. Every cell is
/// inverting and unate, so when all inputs ramp the same way every net of a
/// level switches once, in the same direction: the circuit is fully active
/// and each two-input gate sees multiple-input switching.
pub fn leveled_dag(name: &str, levels: usize, width: usize, rng: &mut Rng) -> Netlist {
    assert!(levels > 0 && width > 1);
    let mut kinds: Vec<CellKind> = (0..levels * width)
        .map(|i| COMB_KINDS[i % COMB_KINDS.len()])
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.index(i + 1));
    }
    let mut builder = NetlistBuilder::new(name);
    let mut previous: Vec<NetRef> = (0..width)
        .map(|i| {
            let net = builder.net_ref(&format!("in{i}"));
            builder.mark_primary_input(net);
            net
        })
        .collect();
    for level in 0..levels {
        let mut next = Vec::with_capacity(width);
        for slot in 0..width {
            let kind = kinds[level * width + slot];
            let mut inputs = vec![previous[slot]];
            if kind.input_count() == 2 {
                let reach = 3.min(width - 1);
                inputs.push(previous[(slot + 1 + rng.index(reach)) % width]);
            }
            let out = builder.net_ref(&format!("n{level}_{slot}"));
            builder.add_gate(&format!("g{level}_{slot}"), kind, &inputs, out);
            next.push(out);
        }
        previous = next;
    }
    for &net in &previous {
        builder.mark_primary_output(net);
    }
    builder
        .build()
        .expect("leveled DAGs are valid by construction")
}

/// Every primary input of a netlist ramps the same way (`rising`), starting
/// at `t0` plus a seeded skew in `[0, skew)`, with a seeded transition time
/// in `[40, 100)` ps.
pub fn same_way_drives(
    netlist: &Netlist,
    rising: bool,
    t0: f64,
    skew: f64,
    rng: &mut Rng,
) -> Vec<(NetRef, Drive)> {
    netlist
        .primary_inputs()
        .iter()
        .map(|&pi| {
            let t_start = t0 + rng.range(0.0, skew);
            let transition = rng.range(40e-12, 100e-12);
            (pi, Drive::ramp(rising, t_start, transition))
        })
        .collect()
}

/// A NAND2 chain whose every stage also gets a side input ramping the same
/// way as the chain signal arriving at that stage, close to its expected
/// arrival: every stage switches, most of them under multiple-input
/// switching. `stage_delay` is the expected delay per stage.
pub fn mis_chain(name: &str, stages: usize, t0: f64, stage_delay: f64, rng: &mut Rng) -> Stimulus {
    assert!(stages > 0);
    let mut builder = NetlistBuilder::new(name);
    let input = builder.net_ref("in");
    builder.mark_primary_input(input);
    let mut drives = vec![(input, Drive::ramp(true, t0, rng.range(50e-12, 90e-12)))];
    let mut current = input;
    for stage in 0..stages {
        let side = builder.net_ref(&format!("b{stage}"));
        builder.mark_primary_input(side);
        // Stage inputs rise on even stages and fall on odd ones.
        let rising = stage % 2 == 0;
        let expected = t0 + stage as f64 * stage_delay;
        let t_start = (expected + rng.range(-20e-12, 40e-12)).max(t0);
        drives.push((
            side,
            Drive::ramp(rising, t_start, rng.range(40e-12, 100e-12)),
        ));
        let out = builder.net_ref(&format!("c{stage}"));
        builder.add_gate(&format!("u{stage}"), CellKind::Nand2, &[current, side], out);
        current = out;
    }
    builder.mark_primary_output(current);
    let netlist = builder.build().expect("chains are valid by construction");
    Stimulus { netlist, drives }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leveled_dags_balance_cells_and_read_every_net() {
        let a = leveled_dag("a", 20, 4, &mut Rng::new(1, 0));
        let b = leveled_dag("b", 20, 4, &mut Rng::new(2, 0));
        for n in [&a, &b] {
            let count = |k| n.gate_refs().filter(|&g| n.gate_kind(g) == k).count();
            let (inv, nand, nor) = (
                count(CellKind::Inverter),
                count(CellKind::Nand2),
                count(CellKind::Nor2),
            );
            assert_eq!(inv + nand + nor, 80);
            assert!(inv.max(nand).max(nor) - inv.min(nand).min(nor) <= 1);
            for net in n.net_refs() {
                assert!(n.is_primary_output(net) || !n.fanout_of(net).is_empty());
            }
        }
        assert_ne!(
            a.to_json_string().replace("\"b\"", "\"a\""),
            b.to_json_string()
        );
    }
}
