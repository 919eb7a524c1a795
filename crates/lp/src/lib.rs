//! The Direct Feasibility Test (§2.2 of the paper) and its LP machinery.
//!
//! DFT models everything known about the metric space as a system of linear
//! inequalities over one variable per unknown distance:
//!
//! * range constraints `0 ≤ x_e ≤ d_max` for every unknown edge,
//! * three triangle inequalities per object triple,
//! * plus the **negation** of the comparison a proximity algorithm wants
//!   decided.
//!
//! If the combined system has **no feasible region**, the comparison is
//! certain and the oracle calls are saved. The paper used CPLEX; this crate
//! ships a from-scratch dense **two-phase (phase-I) simplex** — exact
//! feasibility verdicts, no external solver. As in the paper, DFT's verdicts
//! are at least as strong as any bound scheme's (it captures *correlations*
//! between unknown edges that independent per-edge bounds cannot), at a CPU
//! cost that confines it to small instances.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::print_stdout, clippy::print_stderr)]

pub mod dft;
pub mod optimize;
pub mod simplex;

pub use dft::{DftResolver, Encoding};
pub use optimize::variable_range;
pub use simplex::{Feasibility, FeasibilityProblem};
