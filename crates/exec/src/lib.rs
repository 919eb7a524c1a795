//! Deterministic fork-join execution for the prox workspace.
//!
//! The workspace's core guarantee — plugged runs are byte-identical to
//! vanilla runs, with deterministic oracle-call counts — rules out
//! parallelising a plugged algorithm run: resolvers are single-owner
//! (`Oracle`'s call counter is not `Sync`, on purpose) and the order in
//! which distances are resolved feeds back into every later bound. So
//! every plugged algorithm (kNN graph and PAM included) runs sequentially
//! at any thread count. Serve rounds run on one thread too: a round's
//! per-session cells take microseconds, less than a scoped pool costs to
//! start. So this crate's only caller is `repro`, whose independent
//! experiment cells (`prox_bench::runner::parallel_cells`) each own their
//! oracle and resolver, so their results are identical to running the
//! cells in a loop.
//!
//! The crate provides a dependency-free scoped-thread pool
//! ([`ExecPool::map_indexed`]) plus the process-wide thread-count knob
//! `repro --threads` sets ([`set_global_threads`]). Clippy (lint L5,
//! `clippy.toml`) rejects `std::thread` spawning anywhere else.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::print_stdout, clippy::print_stderr)]

pub mod pool;

pub use pool::{global_threads, set_global_threads, ExecPool};
