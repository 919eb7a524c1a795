//! `prox-serve`: a long-lived query-serving layer over the bound
//! machinery — the "distances as a shared service" deployment of the
//! SIGMOD 2021 framework.
//!
//! A batch run pays its oracle calls and exits; everything it learned
//! dies with the process. This crate keeps that knowledge alive across
//! queries, clients, and crashes:
//!
//! * [`SharedStore`] — the generation-stamped certified-distance store
//!   every session reads via views of its shared immutable runs and
//!   feeds through exactly one WAL-logged, epoch-fenced commit API,
//!   [`SharedStore::commit_group`] (a single batch is a group of one).
//! * [`wal`] — the crash-safe segment log behind the store, reusing the
//!   checkpoint v2 CRC32 block format; torn tails salvage leniently,
//!   foreign manifests are refused (invariant **I12**). The log type is
//!   crate-private, so only the store appends to it: one append and one
//!   `fdatasync` per serve round.
//! * [`PairGroupQuery`] — the client API: a pair selector plus a skip
//!   set, resolved as one amortised block.
//! * [`run_group_view`] / [`ClientSession`] — per-client admission control
//!   (deterministic reject-with-retry-hint), budget/deadline fencing,
//!   cascade degradation, poisoned-state quarantine.
//! * [`BoundServer`] — the deterministic round loop tying it together:
//!   a round's cells run on one thread, and its batches commit as one
//!   group with receipts bit-equal to committing them one by one.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::print_stdout, clippy::print_stderr)]

pub mod group;
pub mod script;
pub mod server;
pub mod session;
pub mod store;
pub mod wal;

pub use group::{GroupResponse, PairGroupQuery, PairSelector};
pub use script::{default_script, parse_script, render_script};
pub use server::{emit_recovery, BoundServer, ServeConfig, ServeOutcome, ServedResponse};
pub use session::{
    run_group, run_group_view, ClientSession, GroupOutcome, RetryHint, ServedGroup, SessionConfig,
    SessionStats,
};
pub use store::{
    CommitError, CommitReceipt, EpochToken, GroupCommit, SharedStore, StoreSnapshot, StoreView,
};
pub use wal::{WalConfig, WalRecovery};
