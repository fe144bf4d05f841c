//! # faure-perfbench — the repository's benchmark
//!
//! Drives the Fauré engine at its default settings through its public
//! calls (`Engine::prepare`, `PreparedProgram::run`, `materialize`,
//! `apply`), timed from outside, on three workloads generated from a
//! seed with `faure-net`. `run.py` is the entry point: it builds this
//! package, runs one measured pass per process with the
//! `perfbench-pass` binary, checks outputs and aggregates the passes.
//! See `README.md` for why each workload and metric exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checks;
mod harness;
pub mod json;
mod ledger;
pub mod workloads;

/// Environment variables that would change the engine's default
/// options (`EvalOptions::default()` reads them).
const ENGINE_ENV: [&str; 2] = ["FAURE_THREADS", "FAURE_SHARDS"];

/// Removes `FAURE_THREADS` and `FAURE_SHARDS` from this process's
/// environment, so the engine runs at its defaults whatever the caller
/// exported; returns the variables that were set. Call before any other
/// thread starts.
pub fn drop_engine_env() -> Vec<String> {
    ENGINE_ENV
        .iter()
        .filter(|v| std::env::var_os(v).is_some())
        .map(|v| {
            std::env::remove_var(v);
            (*v).to_owned()
        })
        .collect()
}
