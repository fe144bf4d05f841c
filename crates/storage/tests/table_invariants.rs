//! Table invariants under adversarial insert sequences.
//!
//! Random streams of inserts (duplicate terms, merged conditions,
//! contradictions, conditions too big to normalise) must preserve:
//!
//! * term-uniqueness: one row per distinct term vector;
//! * no `False` row conditions;
//! * index/scan agreement for every probe;
//! * semantic growth: the set of worlds in which a tuple is present
//!   never shrinks across inserts (conditions only widen);
//! * prune is semantically invisible.

use faure_ctable::{
    CTuple, CVarId, CVarRegistry, CmpOp, Condition, Const, Domain, LinExpr, Schema, Term,
};
use faure_storage::{Pattern, PruneRows, Table};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn registry() -> CVarRegistry {
    let mut reg = CVarRegistry::new();
    reg.fresh("a", Domain::Bool01);
    reg.fresh("b", Domain::Bool01);
    reg.fresh("c", Domain::Ints(vec![0, 1, 2]));
    reg
}

const NVARS: u32 = 3;

fn all_assignments(reg: &CVarRegistry) -> Vec<faure_ctable::Assignment> {
    let domains: Vec<Vec<Const>> = (0..NVARS)
        .map(|i| reg.domain(CVarId(i)).members().unwrap())
        .collect();
    let mut out = vec![faure_ctable::Assignment::new()];
    for (i, dom) in domains.iter().enumerate() {
        let mut next = Vec::new();
        for a in &out {
            for v in dom {
                let mut a2 = a.clone();
                a2.set(CVarId(i as u32), v.clone());
                next.push(a2);
            }
        }
        out = next;
    }
    out
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..3).prop_map(Term::int),
        (0u32..NVARS).prop_map(|i| Term::Var(CVarId(i))),
    ]
}

fn arb_cond() -> impl Strategy<Value = Condition> {
    let atom = (0u32..NVARS, 0i64..3, any::<bool>()).prop_map(|(v, k, eq)| {
        if eq {
            Condition::eq(Term::Var(CVarId(v)), Term::int(k))
        } else {
            Condition::ne(Term::Var(CVarId(v)), Term::int(k))
        }
    });
    let leaf = prop_oneof![Just(Condition::True), atom];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Condition::conj),
            prop::collection::vec(inner, 1..3).prop_map(Condition::disj),
        ]
    })
}

fn arb_tuple() -> impl Strategy<Value = CTuple> {
    (prop::collection::vec(arb_term(), 2), arb_cond())
        .prop_map(|(terms, cond)| CTuple::with_cond(terms, cond))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn insert_stream_invariants(tuples in prop::collection::vec(arb_tuple(), 1..20)) {
        let reg = registry();
        let mut table = Table::new(Schema::new("T", &["x", "y"]));
        let assignments = all_assignments(&reg);
        // Per-world presence sets, tracked incrementally.
        let mut presence: Vec<BTreeSet<Vec<Const>>> =
            vec![BTreeSet::new(); assignments.len()];

        for t in &tuples {
            // Semantic reference update.
            for (w, a) in assignments.iter().enumerate() {
                let lookup = a.lookup();
                if t.cond.eval(&lookup) == Some(true) {
                    presence[w].insert(
                        t.terms.iter().map(|x| x.instantiate(&lookup).expect("bound")).collect(),
                    );
                }
            }
            table.insert(t.clone()).unwrap();

            // Invariant: distinct terms.
            let mut seen = BTreeSet::new();
            for row in table.iter() {
                prop_assert!(seen.insert(row.terms.clone()), "duplicate terms");
                prop_assert_ne!(&row.cond, &Condition::False);
            }
            // Invariant: per-world contents equal the reference.
            for (w, a) in assignments.iter().enumerate() {
                let lookup = a.lookup();
                let got: BTreeSet<Vec<Const>> = table
                    .iter()
                    .filter(|row| row.cond.eval(&lookup) == Some(true))
                    .map(|row| row.terms.iter().map(|x| x.instantiate(&lookup).expect("bound")).collect())
                    .collect();
                prop_assert_eq!(&got, &presence[w], "world {}", w);
            }
        }

        // Prune is semantically invisible. The pruned copy starts with
        // a row only the solver can refute (`a + b = 3` over {0,1}²),
        // so its removal shifts every later row through the reindex.
        let dead = [Term::int(7), Term::int(0)];
        let mut pruned = Table::new(Schema::new("T", &["x", "y"]));
        let unsat = Condition::cmp(
            LinExpr::var(CVarId(0)).plus_var(1, CVarId(1)),
            CmpOp::Eq,
            LinExpr::constant(3),
        );
        pruned.insert(CTuple::with_cond(dead.clone(), unsat)).unwrap();
        for t in &tuples {
            pruned.insert(t.clone()).unwrap();
        }
        let mut session = faure_solver::Session::new();
        let removed = pruned.prune(&reg, &mut session, PruneRows::All, 1).unwrap();
        prop_assert!(removed >= 1);
        prop_assert!(pruned.find_row(&dead).is_none());
        for i in 0..pruned.len() {
            prop_assert_eq!(pruned.find_row(&pruned.row(i).terms), Some(i));
        }

        // Index/scan agreement on a few probes, before and after prune.
        for t in [&table, &pruned] {
            for probe in [
                [Pattern::Exact(Term::int(0)), Pattern::Any],
                [Pattern::Exact(Term::int(2)), Pattern::Exact(Term::int(1))],
                [Pattern::Any, Pattern::Exact(Term::Var(CVarId(1)))],
            ] {
                let mut via_index: Vec<usize> = t
                    .find_matches(&reg, &probe)
                    .into_iter()
                    .map(|(i, _)| i)
                    .collect();
                via_index.sort_unstable();
                let mut via_scan: Vec<usize> = (0..t.len())
                    .filter(|&i| Table::match_row(&reg, &t.row(i), &probe).is_some())
                    .collect();
                via_scan.sort_unstable();
                prop_assert_eq!(via_index, via_scan);
            }
        }

        for (w, a) in assignments.iter().enumerate() {
            let lookup = a.lookup();
            let got: BTreeSet<Vec<Const>> = pruned
                .iter()
                .filter(|row| row.cond.eval(&lookup) == Some(true))
                .map(|row| row.terms.iter().map(|x| x.instantiate(&lookup).expect("bound")).collect())
                .collect();
            prop_assert_eq!(&got, &presence[w], "world {} after prune", w);
        }
    }
}
