//! C-table algebra semantics: every relational operator must commute
//! with possible-world instantiation — `op(T)` instantiated in world
//! `w` equals `op(T instantiated in w)`. This is the §3 claim that the
//! "straightforward extension of SQL" to c-tables introduces no visible
//! corruption, checked operator by operator.

use faure_ctable::worlds::WorldIter;
use faure_ctable::{CTuple, Condition, Const, Database, Domain, Schema, Term};
use faure_storage::{ops, Pattern, PruneRows, Table};
use proptest::prelude::*;
use std::collections::BTreeSet;

type GroundRows = BTreeSet<Vec<Const>>;

/// Instantiates a c-table in one world.
fn ground(table: &Table, lookup: &impl Fn(faure_ctable::CVarId) -> Option<Const>) -> GroundRows {
    let mut out = BTreeSet::new();
    for row in table.iter() {
        if row.cond.eval(lookup) == Some(true) {
            out.insert(
                row.terms
                    .iter()
                    .map(|t| t.instantiate(lookup).expect("world binds every c-variable"))
                    .collect(),
            );
        }
    }
    out
}

/// A database with two small c-tables A(a,b), B(b,c) over two
/// three-valued c-variables.
fn arb_db() -> impl Strategy<Value = Database> {
    let cell = 0usize..5;
    let cond = 0usize..4;
    (
        prop::collection::vec((cell.clone(), cell.clone(), cond.clone()), 1..5),
        prop::collection::vec((cell.clone(), cell, cond), 1..5),
    )
        .prop_map(|(rows_a, rows_b)| {
            let mut db = Database::new();
            let u = db.fresh_cvar("u", Domain::Ints(vec![0, 1, 2]));
            let v = db.fresh_cvar("v", Domain::Ints(vec![0, 1, 2]));
            let mk_cell = |code: usize| match code {
                0..=2 => Term::Const(Const::Int(code as i64)),
                3 => Term::Var(u),
                _ => Term::Var(v),
            };
            let mk_cond = |code: usize| match code {
                0 => Condition::True,
                1 => Condition::eq(Term::Var(u), Term::int(1)),
                2 => Condition::ne(Term::Var(v), Term::int(2)),
                _ => Condition::eq(Term::Var(u), Term::int(0))
                    .and(Condition::eq(Term::Var(v), Term::int(1))),
            };
            db.create_relation(Schema::new("A", &["a", "b"])).unwrap();
            db.create_relation(Schema::new("B", &["b", "c"])).unwrap();
            for (x, y, c) in rows_a {
                db.insert("A", CTuple::with_cond([mk_cell(x), mk_cell(y)], mk_cond(c)))
                    .unwrap();
            }
            for (x, y, c) in rows_b {
                db.insert("B", CTuple::with_cond([mk_cell(x), mk_cell(y)], mk_cond(c)))
                    .unwrap();
            }
            // Make sure both c-variables occur.
            db.insert("A", CTuple::new([Term::Var(u), Term::Var(v)]))
                .unwrap();
            db
        })
}

fn tables(db: &Database) -> (Table, Table) {
    (
        Table::from_relation(db.relation("A").unwrap()),
        Table::from_relation(db.relation("B").unwrap()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// select(T, pat) ≡ per-world filtering.
    #[test]
    fn select_commutes_with_instantiation(db in arb_db(), k in 0i64..3) {
        let (a, _) = tables(&db);
        let pats = [Pattern::Exact(Term::int(k)), Pattern::Any];
        let selected = ops::select(&db.cvars, &a, &pats);
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&selected, &lookup);
            let expect: GroundRows = ground(&a, &lookup)
                .into_iter()
                .filter(|row| row[0] == Const::Int(k))
                .collect();
            prop_assert_eq!(&got, &expect);
        }
    }

    /// join(A, B, A.b = B.b) ≡ per-world join.
    #[test]
    fn join_commutes_with_instantiation(db in arb_db()) {
        let (a, b) = tables(&db);
        let joined = ops::join(&db.cvars, &a, &b, &[(1, 0)], "J");
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&joined, &lookup);
            let ga = ground(&a, &lookup);
            let gb = ground(&b, &lookup);
            let mut expect = GroundRows::new();
            for ra in &ga {
                for rb in &gb {
                    if ra[1] == rb[0] {
                        let mut row = ra.clone();
                        row.extend(rb.iter().cloned());
                        expect.insert(row);
                    }
                }
            }
            prop_assert_eq!(&got, &expect);
        }
    }

    /// union(A, A') ≡ per-world union.
    #[test]
    fn union_commutes_with_instantiation(db in arb_db()) {
        let (a, b) = tables(&db);
        // Union needs equal arity; both are binary.
        let u = ops::union(&a, &b, "U");
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&u, &lookup);
            let mut expect = ground(&a, &lookup);
            expect.extend(ground(&b, &lookup));
            prop_assert_eq!(&got, &expect);
        }
    }

    /// difference(A, B) ≡ per-world set difference.
    #[test]
    fn difference_commutes_with_instantiation(db in arb_db()) {
        let (a, b) = tables(&db);
        let d = ops::difference(&db.cvars, &a, &b, "D");
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&d, &lookup);
            let gb = ground(&b, &lookup);
            let expect: GroundRows = ground(&a, &lookup)
                .into_iter()
                .filter(|row| !gb.contains(row))
                .collect();
            prop_assert_eq!(&got, &expect);
        }
    }

    /// project(T, [0]) ≡ per-world projection.
    #[test]
    fn project_commutes_with_instantiation(db in arb_db()) {
        let (a, _) = tables(&db);
        let p = ops::project(&a, &[0], "P");
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&p, &lookup);
            let expect: GroundRows = ground(&a, &lookup)
                .into_iter()
                .map(|row| vec![row[0].clone()])
                .collect();
            prop_assert_eq!(&got, &expect);
        }
    }

    /// The SQL layer agrees with instantiation too: a one-predicate
    /// WHERE against a c-variable column.
    #[test]
    fn sql_select_commutes_with_instantiation(db in arb_db(), k in 0i64..3) {
        let t = faure_storage::sql::query(
            &db,
            &format!("SELECT a, b FROM A WHERE b = {k}"),
        ).unwrap();
        let (a, _) = tables(&db);
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&t, &lookup);
            let expect: GroundRows = ground(&a, &lookup)
                .into_iter()
                .filter(|row| row[1] == Const::Int(k))
                .collect();
            prop_assert_eq!(&got, &expect);
        }
    }

    /// Table::prune never changes per-world contents (it only removes
    /// dead rows / simplifies conditions).
    #[test]
    fn prune_is_semantically_invisible(db in arb_db()) {
        let (a, _) = tables(&db);
        let mut pruned = a.clone();
        let mut session = faure_solver::Session::new();
        pruned.prune(&db.cvars, &mut session, PruneRows::All, 1).unwrap();
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            prop_assert_eq!(ground(&a, &lookup), ground(&pruned, &lookup));
        }
    }
}
