//! The three workloads and the measured pass each runs.
//!
//! A pass runs in a process of its own (see `run.py`): the condition
//! pool (`faure_ctable::pool`) is process-global and never shrinks, so
//! a second pass in the same process would find nearly every condition
//! already interned and measure a program no `faure eval` user runs.
//! The pool size at the start of the pass is reported as evidence that
//! the pass was cold.
//!
//! Every workload reports every end-to-end metric:
//!
//! * `rib-batch` — Listing 2 stage by stage on the synthetic RIB, as in
//!   the paper's Table 4, then a tail of link flaps on a standing q8
//!   view (announce an `R` fact, withdraw it again).
//! * `rib-churn` — a standing q4–q5 materialization absorbing a
//!   closed-loop 9:1 announce:withdraw stream of single-tuple deltas,
//!   with a re-evaluation of the current database every 200 deltas.
//! * `frr-deep` — q4–q5 over a fast-reroute chain with 8 protected
//!   links, then a tail of link flaps on a standing materialization.

use crate::checks::{self, Check};
use crate::harness::{CallSpan, Harness};
use crate::json::Json;
use crate::ledger;
use faure_core::{Delta, DeltaReport, Engine, EvalOptions, EvalOutput, PreparedProgram, Program};
use faure_ctable::pool::{pool_stats, PoolStats};
use faure_ctable::{Const, Database, Relation};
use faure_net::frr::{self, FrrConfig, ProtectedLink};
use faure_net::{queries, rib};
use faure_storage::PhaseStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The default workload seed (the paper's RIB snapshot date).
pub const DEFAULT_SEED: u64 = 20210610;
/// A second seed, not used while the benchmark was written: a claimed
/// gain must also hold on it.
pub const HELDOUT_SEED: u64 = 20211110;
/// Seed of the `frr-deep` chain's structure (which chain nodes the
/// repair node reaches). The workload seed relabels nodes and picks
/// the flow id but keeps this structure: q4–q5 cost on one
/// `random_config(18, 8)` ranges 1.2–3.5 s over structure seeds, a
/// spread no per-run median could steady.
pub const FRR_STRUCTURE_SEED: u64 = DEFAULT_SEED;
/// Every `CHURN_WITHDRAW_EVERY`-th `rib-churn` delta is a withdrawal.
const CHURN_WITHDRAW_EVERY: usize = 10;
/// `rib-churn` re-evaluates the current database after this many deltas.
const REEVAL_EVERY: usize = 200;
/// Salt separating the output checks' sampling from workload inputs.
const CHECK_SALT: u64 = 0x6368_6563_6b73;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Listing 2 stage by stage on the synthetic RIB.
    RibBatch,
    /// A standing q4–q5 materialization under single-tuple churn.
    RibChurn,
    /// q4–q5 over a fast-reroute chain with deep recursion.
    FrrDeep,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::RibBatch, Workload::RibChurn, Workload::FrrDeep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RibBatch => "rib-batch",
            Workload::RibChurn => "rib-churn",
            Workload::FrrDeep => "frr-deep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the measured sizes, or tiny ones for the smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny inputs that exercise every code path in well under a second.
    Smoke,
}

/// Workload parameters (recorded with every result).
#[derive(Clone, Debug)]
pub struct Params {
    /// RIB prefixes (`rib-*`).
    pub prefixes: usize,
    /// Single-tuple deltas in the update stream or tail.
    pub updates: usize,
    /// Fast-reroute chain nodes (`frr-deep`).
    pub frr_nodes: usize,
    /// Protected links of the chain (`frr-deep`).
    pub frr_protected: usize,
    /// Possible worlds sampled by the output check (`rib-*`).
    pub check_worlds: usize,
    /// Prefixes per sampled world (`rib-*`).
    pub check_prefixes: usize,
}

impl Params {
    /// The parameters of `w` at `size`.
    pub fn of(w: Workload, size: Size) -> Params {
        let full = size == Size::Full;
        let base = Params {
            prefixes: 0,
            updates: if full { 200 } else { 20 },
            frr_nodes: 0,
            frr_protected: 0,
            check_worlds: 3,
            check_prefixes: if full { 40 } else { 5 },
        };
        match w {
            // 34 flaps: three passes pool the 100 withdrawals a p90
            // needs (run.py keeps going until they have).
            Workload::RibBatch => Params {
                prefixes: if full { 2000 } else { 12 },
                updates: if full { 68 } else { 20 },
                ..base
            },
            Workload::RibChurn => Params {
                prefixes: if full { 400 } else { 10 },
                updates: if full { 1000 } else { 40 },
                ..base
            },
            Workload::FrrDeep => Params {
                frr_nodes: if full { 18 } else { 8 },
                frr_protected: if full { 8 } else { 3 },
                ..base
            },
        }
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("prefixes", self.prefixes);
        o.set("updates", self.updates);
        o.set("frr_nodes", self.frr_nodes);
        o.set("frr_protected", self.frr_protected);
        o.set("check_worlds", self.check_worlds);
        o.set("check_prefixes", self.check_prefixes);
        o
    }
}

/// The engine options every pass runs with: the defaults. The binary
/// removes `FAURE_THREADS` and `FAURE_SHARDS` from its environment
/// before any pass, so these are one thread and one shard.
pub fn engine_options() -> EvalOptions {
    EvalOptions::default()
}

/// Counters folded from the stats the timed calls return.
#[derive(Default)]
struct Tally {
    phase: PhaseStats,
    /// Tuples produced: derived relations of runs and materializations,
    /// plus rows (re)derived by applies.
    derived: u64,
    plans_compiled: u64,
    by_op: BTreeMap<&'static str, OpTally>,
}

#[derive(Default)]
struct OpTally {
    overdeleted: u64,
    rederived: u64,
    rows_matched: u64,
}

impl Tally {
    fn apply(&mut self, op: &'static str, report: &DeltaReport) {
        self.phase.absorb(&report.stats);
        self.derived += report.rederived as u64;
        let t = self.by_op.entry(op).or_default();
        t.overdeleted += report.overdeleted as u64;
        t.rederived += report.rederived as u64;
        t.rows_matched += report.stats.ops.rows_matched;
    }
}

/// What one pass measured.
pub struct PassReport {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Input sizes.
    pub size: Size,
    /// Whether the engine's spans were recorded.
    pub traced: bool,
    /// Workload parameters.
    pub params: Params,
    /// Condition-pool size when the pass started (cold: the two pinned
    /// constants `true` and `false`).
    pub pool_size_before: usize,
    /// Set-up seconds: `prepare` of every program (and, on `rib-churn`,
    /// the initial `materialize`).
    pub setup_s: f64,
    /// Query-pass seconds (0 in a set-up-only pass).
    pub analysis_s: f64,
    /// Apply latency of each announcement, milliseconds.
    pub announce_ms: Vec<f64>,
    /// Apply latency of each withdrawal, milliseconds.
    pub withdraw_ms: Vec<f64>,
    /// Peak resident set (`VmHWM`) at the end of the measured calls, MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted: query stages, applies and output checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output-check verdicts.
    pub checks: Vec<Check>,
    /// Summed duration of every timed call, seconds.
    pub timed_wall_s: f64,
    /// Per-layer metrics (traced passes only), in report order.
    pub layers: Vec<(String, f64)>,
}

impl PassReport {
    /// The report as one JSON object.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("workload", self.workload.name());
        o.set("seed", self.seed);
        o.set(
            "size",
            if self.size == Size::Full {
                "full"
            } else {
                "smoke"
            },
        );
        o.set("traced", self.traced);
        o.set("params", self.params.to_json());
        o.set("pool_size_before", self.pool_size_before);
        o.set("setup_s", self.setup_s);
        o.set("analysis_s", self.analysis_s);
        o.set("announce_ms", self.announce_ms.clone());
        o.set("withdraw_ms", self.withdraw_ms.clone());
        o.set("peak_rss_mb", self.peak_rss_mb);
        o.set("attempted", self.attempted);
        o.set("failed", self.failed);
        let checks = self
            .checks
            .iter()
            .map(|c| {
                let mut j = Json::obj();
                j.set("name", c.name.as_str());
                j.set("ok", c.ok);
                j.set("detail", c.detail.as_str());
                j
            })
            .collect();
        o.set("checks", Json::Arr(checks));
        o.set("timed_wall_s", self.timed_wall_s);
        let mut layers = Json::obj();
        for (k, v) in &self.layers {
            layers.set(k, *v);
        }
        o.set("layers", layers);
        o
    }
}

/// State shared by the workload functions of one pass.
struct Pass {
    h: Harness,
    opts: EvalOptions,
    tally: Tally,
    report: PassReport,
    pool_start: PoolStats,
    /// Input tuples the workload loaded (for bytes per tuple).
    input_tuples: u64,
}

impl Pass {
    fn prepare(&mut self, op: &'static str, program: &Program) -> Result<PreparedProgram, String> {
        let engine = Engine::with_options(self.opts);
        let (prepared, span) = self
            .h
            .call("prepare", op, |t| engine.prepare_traced(program, t));
        let prepared = prepared.map_err(|e| format!("prepare {op}: {e}"))?;
        self.tally.plans_compiled += prepared.plan_count() as u64;
        self.report.setup_s += span.secs();
        Ok(prepared)
    }

    fn run(
        &mut self,
        op: &'static str,
        prepared: &PreparedProgram,
        db: &Database,
    ) -> Result<(EvalOutput, CallSpan), String> {
        self.report.attempted += 1;
        let (out, span) = self.h.call("run", op, |t| prepared.run_traced(db, t));
        let out = out.map_err(|e| {
            self.report.failed += 1;
            format!("run {op}: {e}")
        })?;
        self.tally.phase.absorb(&out.stats);
        self.tally.derived += out.stats.tuples as u64;
        Ok((out, span))
    }

    fn materialize(
        &mut self,
        op: &'static str,
        prepared: &PreparedProgram,
        db: &Database,
    ) -> Result<(faure_core::MaterializedState, CallSpan), String> {
        self.report.attempted += 1;
        let opts = self.opts;
        let (state, span) = self.h.call("materialize", op, |t| {
            prepared.materialize_with(db, &opts, t)
        });
        let state = state.map_err(|e| {
            self.report.failed += 1;
            format!("materialize {op}: {e}")
        })?;
        self.tally.phase.absorb(state.stats());
        self.tally.derived += state.stats().tuples as u64;
        Ok((state, span))
    }

    /// Applies one single-tuple delta and records its latency under
    /// `op` (`announce` or `withdraw`).
    fn apply(
        &mut self,
        op: &'static str,
        prepared: &PreparedProgram,
        state: &mut faure_core::MaterializedState,
        delta: Delta,
    ) -> Result<(), String> {
        self.report.attempted += 1;
        let (report, span) = self.h.call("apply", op, |_| prepared.apply(state, delta));
        let report = report.map_err(|e| {
            self.report.failed += 1;
            format!("apply {op}: {e}")
        })?;
        self.tally.apply(op, &report);
        let ms = span.secs() * 1e3;
        match op {
            "withdraw" => self.report.withdraw_ms.push(ms),
            _ => self.report.announce_ms.push(ms),
        }
        Ok(())
    }

    fn check(&mut self, check: Check) {
        self.report.attempted += 1;
        if !check.ok {
            self.report.failed += 1;
        }
        self.report.checks.push(check);
    }

    /// Closes the measured part: peak RSS, and per-layer metrics when
    /// traced. Called before the output checks.
    fn end_measurement(&mut self) {
        self.report.peak_rss_mb =
            faure_trace::telemetry::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
        self.report.timed_wall_s = self.h.calls().iter().map(CallSpan::secs).sum();
        if self.h.traced() {
            self.report.layers = self.layer_metrics();
        }
    }

    fn layer_metrics(&self) -> Vec<(String, f64)> {
        let l = ledger::fold(self.h.calls(), &self.h.events());
        let t = &self.tally;
        let ops = &t.phase.ops;
        let sv = &t.phase.solver_stats;
        let pool = pool_stats();
        let pool_delta = pool.since(&self.pool_start);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let solver_cpu = sv.time.as_secs_f64();
        let materialize_s: f64 = self
            .h
            .calls()
            .iter()
            .filter(|c| c.call == "materialize")
            .map(CallSpan::secs)
            .sum();
        let rederive_s = l.layers["maintain.rederive_s"];
        let rss_bytes = self.report.peak_rss_mb * 1024.0 * 1024.0;

        let m: Vec<(&str, f64)> = vec![
            ("engine.prepare_s", l.layers["engine.prepare_s"]),
            ("engine.plans_compiled", t.plans_compiled as f64),
            ("engine.lint_s", l.layers["engine.lint_s"]),
            ("engine.table_setup_s", l.layers["engine.table_setup_s"]),
            ("engine.export_s", l.layers["engine.export_s"]),
            ("engine.join_s", l.layers["engine.join_s"]),
            ("engine.merge_s", l.layers["engine.merge_s"]),
            ("engine.iterations", t.phase.delta_sizes.len() as f64),
            (
                "engine.delta_rows",
                t.phase.delta_sizes.iter().sum::<usize>() as f64,
            ),
            ("exec.probes", ops.probes as f64),
            ("exec.rows_matched", ops.rows_matched as f64),
            ("exec.conds_conjoined", ops.conds_conjoined as f64),
            (
                "exec.yield",
                ratio(t.derived as f64, ops.conds_conjoined as f64),
            ),
            ("prune.wall_s", l.layers["prune.wall_s"]),
            (
                "prune.roundtrip_s",
                (l.layers["prune.wall_s"] - solver_cpu).max(0.0),
            ),
            ("prune.rows_removed", t.phase.pruned as f64),
            ("solver.cpu_s", solver_cpu),
            ("solver.sat_calls", sv.sat_calls as f64),
            ("solver.memo_misses", sv.memo_misses as f64),
            ("solver.memo_hit_rate", sv.memo_hit_rate()),
            (
                "solver.ms_per_miss",
                ratio(solver_cpu * 1e3, sv.memo_misses as f64),
            ),
            ("pool.size_before", self.report.pool_size_before as f64),
            (
                "pool.new_nodes",
                pool.size.saturating_sub(self.pool_start.size) as f64,
            ),
            ("pool.hit_rate", pool_delta.hit_rate()),
            ("maintain.materialize_s", materialize_s),
            ("maintain.propagate_s", l.layers["maintain.propagate_s"]),
            ("maintain.rederive_s", rederive_s),
            (
                "maintain.rederive_withdraw_share",
                ratio(l.layer_in("maintain.rederive_s", "withdraw"), rederive_s),
            ),
        ];
        let mut m: Vec<(String, f64)> = m.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        for op in ["announce", "withdraw"] {
            let o = t.by_op.get(op);
            let get = |f: fn(&OpTally) -> u64| o.map(f).unwrap_or(0) as f64;
            let (od, rm) = (get(|o| o.overdeleted), get(|o| o.rows_matched));
            m.push((format!("maintain.{op}.overdeleted"), od));
            m.push((format!("maintain.{op}.rederived"), get(|o| o.rederived)));
            m.push((format!("maintain.{op}.rows_matched"), rm));
            m.push((format!("maintain.{op}.match_per_overdelete"), ratio(rm, od)));
        }
        m.push((
            "mem.bytes_per_tuple".to_owned(),
            ratio(rss_bytes, (self.input_tuples + t.derived) as f64),
        ));
        m.push(("ledger.traced_wall_s".to_owned(), l.traced_wall_s));
        m.push(("ledger.unattributed_s".to_owned(), l.unattributed_s));
        m
    }
}

/// Runs one pass of `w` in this process.
pub fn run_pass(
    w: Workload,
    seed: u64,
    traced: bool,
    size: Size,
    setup_only: bool,
) -> Result<PassReport, String> {
    let params = Params::of(w, size);
    let pool_start = pool_stats();
    let mut pass = Pass {
        h: Harness::new(traced),
        opts: engine_options(),
        tally: Tally::default(),
        report: PassReport {
            workload: w,
            seed,
            size,
            traced,
            params: params.clone(),
            pool_size_before: pool_start.size,
            setup_s: 0.0,
            analysis_s: 0.0,
            announce_ms: Vec::new(),
            withdraw_ms: Vec::new(),
            peak_rss_mb: 0.0,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            timed_wall_s: 0.0,
            layers: Vec::new(),
        },
        pool_start,
        input_tuples: 0,
    };
    match w {
        Workload::RibBatch => rib_batch(&mut pass, &params, seed, setup_only)?,
        Workload::RibChurn => rib_churn(&mut pass, &params, seed, setup_only)?,
        Workload::FrrDeep => frr_deep(&mut pass, &params, seed, setup_only)?,
    }
    Ok(pass.report)
}

fn check_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ CHECK_SALT)
}

/// `count` distinct values from `0..n`, drawn with `rng`.
fn sample_keys(n: usize, count: usize, rng: &mut StdRng) -> BTreeSet<i64> {
    let mut keys = BTreeSet::new();
    while keys.len() < count.min(n) {
        keys.insert(rng.gen_range(0..n) as i64);
    }
    keys
}

/// A database holding only `rel`, over the c-variables of `cvars_of`.
fn db_with(cvars_of: &Database, rel: Relation) -> Database {
    let mut db = Database::new();
    db.cvars = cvars_of.cvars.clone();
    db.set_relation(rel);
    db
}

fn relation<'a>(db: &'a Database, name: &str) -> Result<&'a Relation, String> {
    db.relation(name)
        .ok_or_else(|| format!("relation {name} missing"))
}

/// Ground integer triples of a relation's rows, in row order.
fn int_rows(rel: &Relation) -> Vec<[i64; 3]> {
    rel.iter()
        .filter_map(|t| {
            let mut row = [0i64; 3];
            for (slot, term) in row.iter_mut().zip(&t.terms) {
                *slot = term.as_const().and_then(Const::as_int)?;
            }
            Some(row)
        })
        .collect()
}

fn fact(rel: &str, row: [i64; 3], insert: bool) -> Delta {
    let mut d = Delta::new();
    let consts = row.map(Const::Int);
    if insert {
        d.push_insert_fact(rel, consts);
    } else {
        d.push_delete_exact(rel, consts);
    }
    d
}

/// A tail of link flaps on a standing state: each flap announces
/// `row(i)` and withdraws it again, so the state ends where it began.
fn flaps(
    pass: &mut Pass,
    prepared: &PreparedProgram,
    state: &mut faure_core::MaterializedState,
    rel: &str,
    count: usize,
    row: impl Fn(usize) -> [i64; 3],
) -> Result<(), String> {
    for i in 0..count {
        pass.apply("announce", prepared, state, fact(rel, row(i), true))?;
        pass.apply("withdraw", prepared, state, fact(rel, row(i), false))?;
    }
    Ok(())
}

fn rib_batch(pass: &mut Pass, p: &Params, seed: u64, setup_only: bool) -> Result<(), String> {
    let w = rib::generate(&rib::RibParams {
        prefixes: p.prefixes,
        seed,
        ..Default::default()
    });
    pass.input_tuples = relation(&w.db, "F")?.len() as u64;
    let (src, dst) = rib::frequent_pair(&w).unwrap_or((0, 1));
    let q45 = pass.prepare("q4-q5", &queries::reachability_program())?;
    let q6 = pass.prepare("q6", &queries::q6_two_link_failure())?;
    let q7 = pass.prepare("q7", &queries::q7_pair_under_y_failure(src, dst))?;
    let q8 = pass.prepare("q8", &queries::q8_reach_with_failure(src))?;
    if setup_only {
        return Ok(());
    }

    // The query pass, stage by stage: each stage reads only the
    // previous stage's relation, moved (not copied) into its input.
    let t0 = pass.h.now_ns();
    let (mut out45, _) = pass.run("q4-q5", &q45, &w.db)?;
    let r = out45
        .database
        .remove_relation("R")
        .ok_or("q4-q5 derived no R")?;
    let r_db = db_with(&out45.database, r);
    let (mut out6, _) = pass.run("q6", &q6, &r_db)?;
    let t1 = out6
        .database
        .remove_relation("T1")
        .ok_or("q6 derived no T1")?;
    let t1_db = db_with(&out6.database, t1);
    let (out7, _) = pass.run("q7", &q7, &t1_db)?;
    let (out8, _) = pass.run("q8", &q8, &r_db)?;
    pass.report.analysis_s = pass.h.now_ns().saturating_sub(t0) as f64 * 1e-9;

    // Tail: flaps of R facts `(f, src, fresh)` through a standing q8
    // view (its solver memo is warm from the q8 stage).
    let (mut state, _) = pass.materialize("q8-view", &q8, &r_db)?;
    let r_rel = relation(&r_db, "R")?;
    let flows: Vec<i64> = int_rows(r_rel)
        .into_iter()
        .filter(|row| row[1] == src)
        .map(|row| row[0])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    if flows.is_empty() {
        return Err("no R row starts at the q8 node".into());
    }
    flaps(pass, &q8, &mut state, "R", p.updates / 2, |i| {
        [flows[i % flows.len()], src, 700_000 + i as i64]
    })?;
    pass.end_measurement();

    // Output checks.
    let (t2, t3) = (
        relation(&out7.database, "T2")?,
        relation(&out8.database, "T3")?,
    );
    let (r, t1) = (r_rel, relation(&t1_db, "T1")?);
    pass.check(checks::invariant(
        "rib-batch.stage-counts",
        t1.len() <= r.len() && t2.len() <= t1.len() && t3.len() <= r.len(),
        format!(
            "R {} T1 {} T2 {} T3 {} (T1<=R, T2<=T1, T3<=R)",
            r.len(),
            t1.len(),
            t2.len(),
            t3.len()
        ),
    ));
    let mut rng = check_rng(seed);
    let sample = sample_keys(p.prefixes, p.check_prefixes, &mut rng);
    pass.check(checks::sampled_worlds(
        "rib-batch.sampled-worlds",
        &queries::listing2_program(src, dst, src),
        &w.db,
        "F",
        &[("R", r), ("T1", t1), ("T2", t2), ("T3", t3)],
        &sample,
        p.check_worlds,
        &mut rng,
    ));
    let tail_t3 = state.relation("T3").ok_or("q8 view has no T3")?;
    pass.check(checks::same_rows(
        "rib-batch.tail-restores-q8",
        &tail_t3,
        t3,
    ));
    Ok(())
}

fn rib_churn(pass: &mut Pass, p: &Params, seed: u64, setup_only: bool) -> Result<(), String> {
    let w = rib::generate(&rib::RibParams {
        prefixes: p.prefixes,
        seed,
        ..Default::default()
    });
    let f_rows = int_rows(relation(&w.db, "F")?);
    if f_rows.is_empty() {
        return Err("workload generated no ground F rows".into());
    }
    pass.input_tuples = f_rows.len() as u64;
    let q45 = pass.prepare("q4-q5", &queries::reachability_program())?;
    let (mut state, span) = pass.materialize("initial", &q45, &w.db)?;
    pass.report.setup_s += span.secs();
    if setup_only {
        return Ok(());
    }
    drop(w);

    // The closed-loop stream of `run_churn_row`: delta i is applied as
    // soon as delta i-1 returned, and every tenth withdraws the (7i)-th
    // original F row. The others announce a hop from the (7i)-th row's
    // target to a fresh node, extending standing paths; the stride
    // spreads announcements over every prefix like the withdrawals
    // (`run_churn_row` extends the i-th row, which puts all of them on
    // the first sixty prefixes and makes their latency a property of
    // those few).
    //
    // Analysis: after every `REEVAL_EVERY` deltas the current database
    // is evaluated from scratch through the same prepared program —
    // what answering without maintenance costs. `analysis_s` is the
    // median; spreading the samples over the stream keeps a burst of
    // host noise from deciding it.
    let n = f_rows.len();
    let mut reevals = Vec::new();
    let mut last = None;
    for i in 0..p.updates {
        let [f, a, b] = f_rows[(i * 7) % n];
        if i % CHURN_WITHDRAW_EVERY == CHURN_WITHDRAW_EVERY - 1 {
            pass.apply("withdraw", &q45, &mut state, fact("F", [f, a, b], false))?;
        } else {
            let row = [f, b, 600_000 + i as i64];
            pass.apply("announce", &q45, &mut state, fact("F", row, true))?;
        }
        if (i + 1) % REEVAL_EVERY == 0 || i + 1 == p.updates {
            let current = db_with(state.database(), state.relation("F").ok_or("state lost F")?);
            let (out, span) = pass.run("re-eval", &q45, &current)?;
            reevals.push(span.secs());
            last = Some((current, out));
        }
    }
    pass.input_tuples += pass.report.announce_ms.len() as u64;
    reevals.sort_by(f64::total_cmp);
    pass.report.analysis_s = reevals[reevals.len() / 2];
    let (final_db, out) = last.ok_or("the stream is empty")?;
    pass.end_measurement();

    let maintained = state.relation("R").ok_or("state has no R")?;
    pass.check(checks::same_rows(
        "rib-churn.maintained-equals-rerun",
        &maintained,
        relation(&out.database, "R")?,
    ));
    let mut rng = check_rng(seed);
    let sample = sample_keys(p.prefixes, p.check_prefixes, &mut rng);
    pass.check(checks::sampled_worlds(
        "rib-churn.sampled-worlds",
        &queries::reachability_program(),
        &final_db,
        "F",
        &[("R", &maintained)],
        &sample,
        p.check_worlds,
        &mut rng,
    ));
    Ok(())
}

/// `cfg` with every node renamed through `label`.
fn relabel(cfg: &FrrConfig, label: &HashMap<i64, i64>) -> FrrConfig {
    let hop = |(a, b): (i64, i64)| (label[&a], label[&b]);
    FrrConfig {
        protected: cfg
            .protected
            .iter()
            .map(|l| ProtectedLink {
                primary: hop(l.primary),
                backup: hop(l.backup),
                var_name: l.var_name.clone(),
            })
            .collect(),
        unprotected: cfg.unprotected.iter().copied().map(hop).collect(),
    }
}

/// The `frr-deep` input: the fixed chain structure with nodes relabeled
/// and the flow id drawn from `seed`. Returns the database, the flow id
/// and the chain end's label.
fn frr_input(p: &Params, seed: u64) -> (Database, i64, i64) {
    let cfg = frr::random_config(
        p.frr_nodes,
        p.frr_protected,
        &mut StdRng::seed_from_u64(FRR_STRUCTURE_SEED),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut label = HashMap::new();
    let mut used = BTreeSet::new();
    // Chain nodes 1..=n plus the repair node n + 1.
    for node in 1..=(p.frr_nodes as i64 + 1) {
        let l = loop {
            let l = rng.gen_range(1..1_000_000i64);
            if used.insert(l) {
                break l;
            }
        };
        label.insert(node, l);
    }
    let flow = rng.gen_range(1..1000i64);
    let (db, _) = relabel(&cfg, &label).build_database(flow);
    (db, flow, label[&(p.frr_nodes as i64)])
}

fn frr_deep(pass: &mut Pass, p: &Params, seed: u64, setup_only: bool) -> Result<(), String> {
    let (db, flow, end) = frr_input(p, seed);
    pass.input_tuples = relation(&db, "F")?.len() as u64;
    let q45 = pass.prepare("q4-q5", &queries::reachability_program())?;
    if setup_only {
        return Ok(());
    }
    let (out, span) = pass.run("q4-q5", &q45, &db)?;
    pass.report.analysis_s = span.secs();

    // Tail: flaps of a hop from the chain end to a fresh node through a
    // standing materialization (solver memo warm from the run). Every
    // node reaches the chain end, so each announcement derives a row per
    // node carrying the largest conditions, and every flap does the same
    // work; flaps cycling over the nodes mix costs 0.3–1.1 ms apart and
    // put the p50 between modes.
    let (mut state, _) = pass.materialize("standing", &q45, &db)?;
    flaps(pass, &q45, &mut state, "F", p.updates / 2, |i| {
        [flow, end, 900_000_000 + i as i64]
    })?;
    pass.end_measurement();

    let r = relation(&out.database, "R")?;
    pass.check(checks::all_worlds(
        "frr-deep.all-worlds",
        &queries::reachability_program(),
        &db,
        &[("R", r)],
    ));
    let tail_r = state.relation("R").ok_or("state has no R")?;
    pass.check(checks::same_rows("frr-deep.tail-restores-r", &tail_r, r));
    Ok(())
}
