//! Deterministic fork-join execution for the prox workspace.
//!
//! The workspace's core guarantee — plugged runs are byte-identical to
//! vanilla runs, with deterministic oracle-call counts — rules out the
//! usual "just parallelize the loop" approach: resolvers are single-owner
//! (`Oracle`'s call counter is not `Sync`, on purpose) and the order in
//! which distances are resolved feeds back into every later bound. The
//! protocol that squares parallelism with that guarantee is
//! **speculate-in-parallel, commit-in-order**:
//!
//! 1. take a frozen snapshot of the bound state (`prox_core::SpecBounds`);
//! 2. fan speculative work out across an [`ExecPool`] — workers only read
//!    the snapshot, never touch the oracle;
//! 3. a sequential committer replays the work in canonical order, reusing
//!    each speculative result only when it provably equals what the live
//!    sequential path would have produced, and falling back to the normal
//!    sequential computation otherwise.
//!
//! The weak/strong cascade (`prox_bounds::CascadeResolver`) composes with
//! this protocol without any new machinery: weak-tier votes only happen
//! inside `resolve`/`resolve_fallible`, which workers never call — they
//! read snapshots, and every actual resolution (and therefore every weak
//! probe) is replayed by the sequential committer in canonical commit
//! order. That is why `weak_probe`/`degraded` trace events are Semantic
//! class and the I10 byte-identity holds at every thread count.
//!
//! This crate provides step 2: a dependency-free scoped-thread pool
//! ([`ExecPool::map_indexed`]) plus the process-wide thread-count knob the
//! `--threads` CLI flags set ([`set_global_threads`]). All consumers
//! (`prox_algos::knn_graph`, PAM's SWAP scan, the `repro` harness) go
//! through it; clippy (lint L5, `clippy.toml`) rejects `std::thread`
//! spawning anywhere else.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::print_stdout, clippy::print_stderr)]

pub mod pool;

pub use pool::{global_threads, set_global_threads, ExecPool};
