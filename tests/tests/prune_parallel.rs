//! Differential testing of the solver-phase prune.
//!
//! `Table::prune` judges the selected rows — all of them, or an index
//! subset — in contiguous chunks across scoped workers (each with its
//! own `Session` over the shared lock-sharded memo), then applies the
//! verdicts serially in index order. That must make it
//! *bit-identical* at every worker count: same kept rows, same
//! simplified conditions and pooled condition ids, in the same stored
//! order. The deterministic solver counters (`sat_calls`, `sat_true`,
//! `simplify_calls`, and the hit+miss total) must also match; only the
//! memo hit/miss *split* may depend on scheduling.
//!
//! A row's verdict depends on its own condition only, so pruning a
//! subset must leave every other row's terms and condition id as they
//! were, and pruning a subset and then its complement must equal
//! pruning every row at once.
//!
//! The tables are built from the shared random corpus databases, with
//! extra rows whose conditions only the solver can refute (linear
//! arithmetic over the corpus c-variables), so the prune actually
//! removes and simplifies rows rather than passing everything through.

use faure_core::engine::canonicalize;
use faure_ctable::{CTuple, CmpOp, CondId, Condition, Database, LinExpr, Term};
use faure_solver::{Session, SharedMemo, SolverStats};
use faure_storage::{PruneRows, Table};
use faure_tests::corpus::arb_db;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The corpus database's relations as prune-ready tables, with three
/// appended rows per table that force real solver work: a
/// solver-only-unsat linear condition (`v̄0 + v̄1 = 5` over `{0,1,2}²`),
/// a tight-but-satisfiable one (`v̄0 + v̄1 = 4`), and a valid
/// disjunction that simplifies to `True`.
fn tables_of(db: &Database) -> Vec<Table> {
    let v0 = db.cvars.by_name("v0").expect("corpus c-variable v0");
    let v1 = db.cvars.by_name("v1").expect("corpus c-variable v1");
    let lin = |k: i64| {
        Condition::cmp(
            LinExpr::var(v0).plus_var(1, v1),
            CmpOp::Eq,
            LinExpr::constant(k),
        )
    };
    let valid =
        Condition::eq(Term::Var(v0), Term::int(0)).or(Condition::ne(Term::Var(v0), Term::int(0)));
    db.relations()
        .map(|rel| {
            let mut t = Table::from_relation(rel);
            for (i, cond) in [lin(5), lin(4), valid.clone()].into_iter().enumerate() {
                let terms: Vec<Term> = (0..t.schema.arity())
                    .map(|_| Term::int(90 + i as i64))
                    .collect();
                t.insert(CTuple::with_cond(terms, cond)).unwrap();
            }
            t
        })
        .collect()
}

/// Stored rows after pruning: terms, raw condition, the condition
/// canonicalized (so a mismatch distinguishes "different condition"
/// from "same condition, different spelling"), and its pooled id.
fn rows_of(t: &Table) -> Vec<(Vec<Term>, Condition, Condition, CondId)> {
    (0..t.len())
        .map(|i| {
            let row = t.row(i);
            (
                row.terms.clone(),
                row.cond.clone(),
                canonicalize(row.cond.clone()),
                t.cond_id(i),
            )
        })
        .collect()
}

/// A session over a fresh shared memo, as the engine's sessions are.
fn shared_session(db: &Database) -> Session {
    Session::with_shared(Arc::new(SharedMemo::for_registry(&db.cvars)))
}

/// The schedule-independent projection of the solver counters.
fn deterministic_counters(s: &SolverStats) -> (u64, u64, u64, u64) {
    (
        s.sat_calls,
        s.sat_true,
        s.simplify_calls,
        s.memo_hits + s.memo_misses,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel prune is bit-identical to serial at every thread count,
    /// with matching removal counts and deterministic solver counters.
    #[test]
    fn parallel_prune_is_bit_identical_to_serial(db in arb_db()) {
        let reg = db.cvars.clone();
        let mut serial_tables = tables_of(&db);
        let mut serial_session = Session::new();
        let mut serial_removed = Vec::new();
        for t in &mut serial_tables {
            serial_removed.push(t.prune(&reg, &mut serial_session, PruneRows::All, 1).unwrap());
        }
        let serial_rows: Vec<_> = serial_tables.iter().map(rows_of).collect();

        for threads in [1usize, 2, 4] {
            let mut tables = tables_of(&db);
            let mut session = shared_session(&db);
            let mut removed = Vec::new();
            for t in &mut tables {
                removed.push(t.prune(&reg, &mut session, PruneRows::All, threads).unwrap());
            }
            prop_assert_eq!(&removed, &serial_removed, "removed counts, threads={}", threads);
            let rows: Vec<_> = tables.iter().map(rows_of).collect();
            prop_assert_eq!(&rows, &serial_rows, "kept rows diverged, threads={}", threads);
            prop_assert_eq!(
                deterministic_counters(&session.stats()),
                deterministic_counters(&serial_session.stats()),
                "solver counters diverged, threads={}",
                threads
            );
        }
    }

    /// Pruning a row subset leaves the other rows' terms and condition
    /// ids untouched, and pruning the complement afterwards yields the
    /// one-pass full prune: same rows, same total removed, same
    /// deterministic solver counters — at every worker count.
    #[test]
    fn subset_then_complement_equals_full_prune(
        db in arb_db(),
        pick in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let reg = db.cvars.clone();
        for (ti, base) in tables_of(&db).into_iter().enumerate() {
            let mut full = base.clone();
            let mut full_session = Session::new();
            let full_removed = full.prune(&reg, &mut full_session, PruneRows::All, 1).unwrap();
            // Absolute anchors for the reference: the solver-only-unsat
            // row is gone and the valid disjunction is now `True`.
            let arity = base.schema.arity();
            prop_assert!(full.find_row(&vec![Term::int(90); arity]).is_none());
            let valid = full.find_row(&vec![Term::int(92); arity]);
            prop_assert_eq!(valid.map(|i| full.cond_id(i)), Some(CondId::TRUE));
            let subset: Vec<usize> = (0..base.len()).filter(|&i| pick[i % pick.len()]).collect();
            let subset_terms: BTreeSet<Vec<Term>> =
                subset.iter().map(|&i| base.row(i).terms).collect();

            for workers in [1usize, 2, 4] {
                let mut t = base.clone();
                let mut session = shared_session(&db);
                let first = t.prune(&reg, &mut session, PruneRows::Only(&subset), workers).unwrap();

                // Rows outside the subset keep their terms, condition
                // ids and relative order.
                let mut last = None;
                for j in (0..base.len()).filter(|&j| !subset_terms.contains(&base.row(j).terms)) {
                    let k = t.find_row(&base.row(j).terms);
                    prop_assert!(k.is_some(), "table {}: untouched row {} vanished", ti, j);
                    prop_assert_eq!(t.cond_id(k.unwrap()), base.cond_id(j));
                    prop_assert!(last < k, "table {}: untouched rows reordered", ti);
                    last = k;
                }

                let rest: Vec<usize> = (0..t.len())
                    .filter(|&k| !subset_terms.contains(&t.row(k).terms))
                    .collect();
                let second = t.prune(&reg, &mut session, PruneRows::Only(&rest), workers).unwrap();
                prop_assert_eq!(first + second, full_removed, "table {}, workers={}", ti, workers);
                prop_assert_eq!(rows_of(&t), rows_of(&full), "table {}, workers={}", ti, workers);
                prop_assert_eq!(
                    deterministic_counters(&session.stats()),
                    deterministic_counters(&full_session.stats()),
                    "table {}, workers={}",
                    ti,
                    workers
                );
            }
        }
    }
}
