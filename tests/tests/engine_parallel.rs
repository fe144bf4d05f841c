//! Differential testing of the parallel fixpoint engine.
//!
//! The engine partitions each rule's depth-0 match list across worker
//! threads (`EvalOptions::threads`) and merges the per-worker
//! partitions in chunk order, which must make a parallel run
//! *bit-identical* to a serial one: same tuples, same derived
//! conditions, in the same order — not merely the same set of possible
//! worlds. This property pins that down on the same random corpus the
//! plan-differential suite uses (recursive, non-linear-recursive, and
//! negated programs over random c-table databases), at 2, 4, and 8
//! worker threads.

use faure_core::engine::canonicalize;
use faure_core::{evaluate_with, EvalOptions, EvalOutput, Program};
use faure_ctable::{Condition, Database, Term};
use faure_tests::corpus::{arb_db, arb_program};
use proptest::prelude::*;

/// Every derived row of every IDB relation, in stored order: the raw
/// terms and condition, plus the condition after [`canonicalize`] (so a
/// mismatch distinguishes "different condition" from "same condition,
/// different spelling" in the failure output).
fn derived_rows(
    out: &EvalOutput,
    program: &Program,
) -> Vec<(String, Vec<Term>, Condition, Condition)> {
    let mut rows = Vec::new();
    for pred in program.idb_predicates() {
        for row in out.relation(pred).expect("IDB relation exists").iter() {
            rows.push((
                pred.to_owned(),
                row.terms.clone(),
                row.cond.clone(),
                canonicalize(row.cond.clone()),
            ));
        }
    }
    rows
}

fn eval_at(program: &Program, db: &Database, threads: usize) -> EvalOutput {
    let opts = EvalOptions {
        threads,
        ..EvalOptions::default()
    };
    evaluate_with(program, db, &opts).expect("evaluation succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel evaluation is bit-identical to serial at every thread
    /// count, including derived conditions (raw and canonicalized) and
    /// row order.
    #[test]
    fn parallel_is_bit_identical_to_serial(db in arb_db(), program in arb_program()) {
        let serial = derived_rows(&eval_at(&program, &db, 1), &program);
        for threads in [2usize, 4, 8] {
            let parallel = derived_rows(&eval_at(&program, &db, threads), &program);
            prop_assert_eq!(
                &serial,
                &parallel,
                "threads={} diverged from serial\nprogram:\n{}",
                threads,
                &program
            );
        }
    }
}
