//! # faure-storage — relational engine over c-tables
//!
//! The Fauré paper implements fauré-log on top of PostgreSQL, "to
//! leverage existing database structure (e.g., indexing) to accelerate
//! fauré-log evaluation" (§6). This crate is the repo's PostgreSQL
//! substitute: an in-memory relational engine specialised for c-tables.
//!
//! Mirroring the paper's three-phase evaluation:
//!
//! 1. **data phase** (*"generate the data part in pure SQL"*) —
//!    indexed pattern matching over tuple terms ([`Table`]) and the
//!    compiled join plans that [`exec`] runs for `faure-core`'s engine;
//! 2. **condition phase** (*"add proper conditions by SQL UPDATE"*) —
//!    the match conditions `μ` produced by pattern matching and the
//!    conjunction of body-row conditions are attached to derived rows;
//! 3. **solver phase** (*"invoke Z3 to remove tuples with contradictory
//!    conditions"*) — [`Table::prune`] runs `faure-solver` over every
//!    row condition.
//!
//! [`PhaseStats`] accumulates per-phase wall-clock time so the bench
//! harness can report the paper's `sql` / `Z3` columns separately.
//!
//! ## What a "match" means on c-tables
//!
//! Unlike ordinary relations, a constant pattern matches not only an
//! equal constant but also a c-variable cell — *conditionally*. The
//! paper's c-valuation `v^C` shows up here as the [`Pattern`] match
//! result: a row matches a pattern with an attached **match condition**
//! (e.g. matching `P(1.2.3.5, y)` against row `(ȳ, [ABE])[ȳ ≠ 1.2.3.4]`
//! yields the condition `ȳ = 1.2.3.5`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dnf;
pub mod exec;
pub mod pipeline;
pub mod shard;
pub mod table;

pub use exec::{CondAcc, OpStats};
pub use pipeline::PhaseStats;
pub use shard::{Route, ShardStats};
pub use table::{
    ArityError, DeletionEffect, InsertOutcome, Pattern, PreparedRow, PruneRows, Table,
};
