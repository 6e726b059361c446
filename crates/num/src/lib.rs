//! Numerical substrate for the MCSM reproduction.
//!
//! This crate collects the small, dependency-free numerical building blocks the
//! rest of the workspace relies on:
//!
//! * [`matrix`] — dense matrices and LU factorization used by the modified nodal
//!   analysis (MNA) solver of `mcsm-spice`.
//! * [`newton`] — a damped Newton–Raphson driver shared by DC and transient
//!   analyses.
//! * [`grid`] / [`lut`] — N-dimensional grids and multilinear-interpolated lookup
//!   tables; the paper's 4-dimensional `I_o(V_A, V_B, V_N, V_o)` tables are built
//!   on these. Hot loops look up the tables of one grid together through a
//!   [`lut::LutGroup`] and a [`lut::LutCursor`] (bit-identical to the reference
//!   `eval`).
//! * [`interp`] — 1-D interpolation helpers.
//! * [`integrate`] — companion-model coefficients for backward-Euler and
//!   trapezoidal integration, used by the SPICE transient engine.
//! * [`stats`] — RMSE / error metrics (paper Eq. 6).
//! * [`json`] — a dependency-free JSON tree, parser and writer used for model
//!   persistence (the build environment has no crates.io access).
//! * [`hash`] — a seed-free canonical-bytes FNV-1a hasher for content-keyed
//!   caches (waveform memoization), stable across runs and thread counts.
//! * [`par`] — a `std::thread`-only thread pool and deterministic `par_map`
//!   primitives used to fan characterization grids and netsim levels across cores.
//! * [`fault`] — a seeded, deterministic fault-injection plan (chaos testing)
//!   and cooperative request deadlines, carried as `Option`s so production
//!   runs pay nothing.
//!
//! # Example
//!
//! ```
//! use mcsm_num::lut::LutNd;
//! use mcsm_num::grid::Axis;
//!
//! # fn main() -> Result<(), mcsm_num::NumError> {
//! // A 2-D table of f(x, y) = x + 2 y sampled on a coarse grid.
//! let axes = vec![Axis::uniform(0.0, 1.0, 3)?, Axis::uniform(0.0, 1.0, 3)?];
//! let lut = LutNd::from_fn(axes, |v| v[0] + 2.0 * v[1])?;
//! let value = lut.eval(&[0.25, 0.75])?;
//! assert!((value - 1.75).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod fault;
pub mod grid;
pub mod hash;
pub mod integrate;
pub mod interp;
pub mod json;
pub mod lut;
pub mod matrix;
pub mod newton;
pub mod par;
pub mod stats;
pub mod testrand;

pub use error::NumError;
pub use fault::{Deadline, FaultPlan};
pub use grid::Axis;
pub use hash::ByteHasher;
pub use json::{FromJson, JsonError, JsonValue, ToJson};
pub use lut::{LutCursor, LutGroup, LutNd};
pub use matrix::DenseMatrix;
pub use newton::{NewtonOptions, NewtonOutcome, NewtonSystem};
pub use par::{par_map, par_map_result, resolve_threads, ThreadPool};
