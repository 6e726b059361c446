//! Per-run evaluation scratch threaded through the model hot loops.
//!
//! Every explicit/predictor–corrector sub-step of the simulation engine (paper
//! Eqs. (4)–(5)) queries the model's current and capacitance tables. Each
//! model family samples its tables on a few shared grids (one for the
//! currents, one for the capacitances) and looks up the tables of a grid
//! together ([`crate::table::TableGroup`]). An [`EvalState`] carries one
//! [`LutCursor`] per grid, so those queries are allocation-free and O(1)
//! amortized (consecutive sub-steps land in the same or an adjacent grid
//! cell — see `mcsm_num::lut`), plus a lookup counter the benchmarks report as
//! "LUT evals": one per table value, however many tables a grouped lookup
//! serves.
//!
//! The state is created by [`crate::model::CellModel::make_eval_state`] — each
//! model family knows how many grids it queries — and threaded by the engine
//! through [`crate::model::CellModel::currents`] and
//! [`crate::model::CellModel::capacitances`]. [`EvalMode::Reference`] retains
//! the historical allocating `LutNd::eval` path, one table at a time
//! (bit-identical by construction); the `sim_hotpath` benchmark gates the fast
//! path's speedup against it.

use mcsm_num::lut::LutCursor;

/// Which lookup-table evaluation path the hot loops use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalMode {
    /// Grouped, cursor-accelerated, allocation-free table lookups (the default).
    #[default]
    Fast,
    /// The retained reference path: allocating `LutNd::eval` with a binary
    /// search per axis on every call. Bit-identical to [`EvalMode::Fast`];
    /// kept as the benchmark baseline and as a cross-check in tests.
    Reference,
}

/// Scratch state for one simulation run: a lookup cursor per model grid and a
/// lookup counter.
///
/// Cursors are keyed by *grid* — a small per-model index (every family puts
/// its current tables on grid 0 and its capacitance tables on grid 1). Reusing
/// one state across many sub-steps is what makes lookups O(1) amortized;
/// reusing it across unrelated runs is harmless (a stale cursor only costs a
/// fallback locate).
#[derive(Debug, Clone)]
pub struct EvalState {
    mode: EvalMode,
    cursors: Vec<LutCursor>,
    lookups: u64,
}

impl EvalState {
    /// Creates a fast-mode state with one cursor for each of `grids` grids.
    pub fn fast(grids: usize) -> Self {
        EvalState {
            mode: EvalMode::Fast,
            cursors: vec![LutCursor::new(); grids],
            lookups: 0,
        }
    }

    /// Switches the state's evaluation mode (cursors are kept; they are
    /// ignored in [`EvalMode::Reference`]).
    pub fn set_mode(&mut self, mode: EvalMode) {
        self.mode = mode;
    }

    /// The active evaluation mode.
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Number of grid cursors.
    pub fn grids(&self) -> usize {
        self.cursors.len()
    }

    /// The cursor of one grid.
    ///
    /// # Panics
    ///
    /// Panics if `grid` is out of range for the model that built this state.
    pub fn cursor(&mut self, grid: usize) -> &mut LutCursor {
        &mut self.cursors[grid]
    }

    /// Records `tables` table lookups (called by the table evaluation
    /// helpers: a grouped lookup counts one per table it evaluates).
    pub fn count_lookups(&mut self, tables: u64) {
        self.lookups += tables;
    }

    /// Total table lookups recorded so far.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_tracks_grids_mode_and_lookups() {
        let mut st = EvalState::fast(3);
        assert_eq!(st.grids(), 3);
        assert_eq!(st.mode(), EvalMode::Fast);
        assert_eq!(st.lookups(), 0);
        st.count_lookups(1);
        st.count_lookups(4);
        assert_eq!(st.lookups(), 5);
        st.set_mode(EvalMode::Reference);
        assert_eq!(st.mode(), EvalMode::Reference);
        // Cursors are reachable for every grid.
        let _ = st.cursor(2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_grid_panics() {
        let mut st = EvalState::fast(1);
        let _ = st.cursor(1);
    }
}
