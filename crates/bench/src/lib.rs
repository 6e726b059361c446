//! Experiment drivers for the paper's figures and the JSON-writing benches.
//!
//! Every table/figure of the paper's evaluation section has a function here that
//! produces its data series; the `src/bin/fig*.rs` binaries print them, and the
//! remaining binaries (`batch`, `netsim`, `seqsim`, `scale`, `sim_hotpath`,
//! `server`) time the stack and write `BENCH_*.json`. Keeping the logic in a
//! library makes the binaries trivial and lets integration tests assert on the
//! *shape* of each result (who wins, by roughly how much) without duplicating
//! setup.

pub mod batch;
pub mod experiments;
pub mod netsim;
pub mod report;
pub mod scale;
pub mod seqsim;
pub mod server;
pub mod sim_hotpath;
pub mod trajectory;

pub use batch::*;
pub use experiments::*;
pub use netsim::*;
pub use report::*;
pub use scale::*;
pub use seqsim::*;
pub use server::*;
pub use sim_hotpath::*;
pub use trajectory::*;
