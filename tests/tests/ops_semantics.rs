//! C-table algebra semantics: every relational operator, written as a
//! one-rule fauré-log program, must commute with possible-world
//! instantiation — `op(T)` instantiated in world `w` equals
//! `op(T instantiated in w)`. This is the §3 claim that the
//! "straightforward extension of SQL" to c-tables introduces no visible
//! corruption, checked operator by operator, and for the SQL surface
//! that compiles to such rules.

use faure_core::{evaluate_with, parse_program, sql, EvalOptions, PrunePolicy};
use faure_ctable::worlds::WorldIter;
use faure_ctable::{CTuple, Condition, Const, Database, Domain, Relation, Schema, Term};
use faure_storage::{PruneRows, Table};
use proptest::prelude::*;
use std::collections::BTreeSet;

type GroundRows = BTreeSet<Vec<Const>>;

/// Instantiates a c-table in one world.
fn ground(rel: &Relation, lookup: &impl Fn(faure_ctable::CVarId) -> Option<Const>) -> GroundRows {
    let mut out = BTreeSet::new();
    for row in rel.iter() {
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

/// Evaluates `src` on `db` under `prune` and returns relation `pred`.
fn derive_with(db: &Database, src: &str, pred: &str, prune: PrunePolicy) -> Relation {
    let program = parse_program(src).expect("operator program parses");
    let opts = EvalOptions {
        prune,
        ..EvalOptions::default()
    };
    let out = evaluate_with(&program, db, &opts).expect("evaluation succeeds");
    out.relation(pred).expect("head relation exists").clone()
}

/// [`derive_with`] under the default (end-of-stratum) prune.
fn derive(db: &Database, src: &str, pred: &str) -> Relation {
    derive_with(db, src, pred, PrunePolicy::EndOfStratum)
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

/// FROM lists of the random SELECTs, with their qualified columns.
const FROMS: &[&[(&str, &[&str])]] = &[
    &[("A", &["a", "b"])],
    &[("B", &["b", "c"])],
    &[("A", &["a", "b"]), ("B", &["b", "c"])],
    &[("B", &["b", "c"]), ("A", &["a", "b"])],
];

/// One WHERE operand code: below 4 a column (modulo the FROM list's
/// width), otherwise the literal `code - 4` (0, 1 or 2).
enum Operand {
    Col(usize),
    Lit(i64),
}

fn operand(code: usize, width: usize) -> Operand {
    if code < 4 {
        Operand::Col(code % width)
    } else {
        Operand::Lit(code as i64 - 4)
    }
}

/// A random SELECT over `A`/`B`: a FROM-list index into [`FROMS`], up
/// to three `(lhs, op, rhs)` predicates with `op` one of `=`, `!=`,
/// `<`, and projected column codes (empty for `*`).
type SelectCodes = (usize, Vec<(usize, usize, usize)>, Vec<usize>);

fn arb_select() -> impl Strategy<Value = SelectCodes> {
    (
        0..FROMS.len(),
        prop::collection::vec((0usize..7, 0usize..3, 0usize..7), 0..4),
        prop::collection::vec(0usize..4, 0..4),
    )
}

/// Renders the SELECT and evaluates it by brute force on the
/// instantiated rows of one world: cartesian product of the FROM
/// tables, WHERE filter, projection.
struct BruteSelect {
    sql: String,
    from: &'static [(&'static str, &'static [&'static str])],
    preds: Vec<(Operand, usize, Operand)>,
    cols: Vec<usize>,
}

impl BruteSelect {
    fn new((from, preds, cols): SelectCodes) -> Self {
        let from = FROMS[from];
        let names: Vec<String> = from
            .iter()
            .flat_map(|(t, attrs)| attrs.iter().map(move |a| format!("{t}.{a}")))
            .collect();
        let width = names.len();
        let preds: Vec<_> = preds
            .into_iter()
            .map(|(l, op, r)| (operand(l, width), op, operand(r, width)))
            .collect();
        let cols: Vec<usize> = cols.into_iter().map(|c| c % width).collect();
        let show = |o: &Operand| match o {
            Operand::Col(i) => names[*i].clone(),
            Operand::Lit(k) => k.to_string(),
        };
        let select = if cols.is_empty() {
            "*".to_owned()
        } else {
            let picked: Vec<&str> = cols.iter().map(|&i| names[i].as_str()).collect();
            picked.join(", ")
        };
        let tables: Vec<&str> = from.iter().map(|(t, _)| *t).collect();
        let mut sql = format!("SELECT {select} FROM {}", tables.join(", "));
        for (k, (l, op, r)) in preds.iter().enumerate() {
            let op = ["=", "!=", "<"][*op];
            let kw = if k == 0 { "WHERE" } else { "AND" };
            sql += &format!(" {kw} {} {op} {}", show(l), show(r));
        }
        BruteSelect {
            sql,
            from,
            preds,
            cols,
        }
    }

    fn eval(
        &self,
        db: &Database,
        lookup: &impl Fn(faure_ctable::CVarId) -> Option<Const>,
    ) -> GroundRows {
        let mut rows: Vec<Vec<Const>> = vec![Vec::new()];
        for (t, _) in self.from {
            let table = ground(db.relation(t).unwrap(), lookup);
            rows = rows
                .iter()
                .flat_map(|r| {
                    table.iter().map(move |x| {
                        let mut row = r.clone();
                        row.extend(x.iter().cloned());
                        row
                    })
                })
                .collect();
        }
        let val = |row: &[Const], o: &Operand| match o {
            Operand::Col(i) => row[*i].clone(),
            Operand::Lit(k) => Const::Int(*k),
        };
        rows.into_iter()
            .filter(|row| {
                self.preds.iter().all(|(l, op, r)| {
                    let (l, r) = (val(row, l), val(row, r));
                    match op {
                        0 => l == r,
                        1 => l != r,
                        _ => l < r,
                    }
                })
            })
            .map(|row| {
                if self.cols.is_empty() {
                    row
                } else {
                    self.cols.iter().map(|&i| row[i].clone()).collect()
                }
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Selection — a constant in the atom — ≡ per-world filtering.
    #[test]
    fn select_commutes_with_instantiation(db in arb_db(), k in 0i64..3) {
        let selected = derive(&db, &format!("S({k}, b) :- A({k}, b)."), "S");
        let a = db.relation("A").unwrap();
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&selected, &lookup);
            let expect: GroundRows = ground(a, &lookup)
                .into_iter()
                .filter(|row| row[0] == Const::Int(k))
                .collect();
            prop_assert_eq!(&got, &expect);
        }
    }

    /// Join on a shared variable (A.b = B.b) ≡ per-world join.
    #[test]
    fn join_commutes_with_instantiation(db in arb_db()) {
        let joined = derive(&db, "J(a, b, b, c) :- A(a, b), B(b, c).", "J");
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&joined, &lookup);
            let ga = ground(db.relation("A").unwrap(), &lookup);
            let gb = ground(db.relation("B").unwrap(), &lookup);
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

    /// Union — two rules with one head — ≡ per-world union.
    #[test]
    fn union_commutes_with_instantiation(db in arb_db()) {
        let u = derive(&db, "U(x, y) :- A(x, y).\nU(x, y) :- B(x, y).", "U");
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&u, &lookup);
            let mut expect = ground(db.relation("A").unwrap(), &lookup);
            expect.extend(ground(db.relation("B").unwrap(), &lookup));
            prop_assert_eq!(&got, &expect);
        }
    }

    /// Difference — a negated atom — ≡ per-world set difference.
    #[test]
    fn difference_commutes_with_instantiation(db in arb_db()) {
        let d = derive(&db, "D(a, b) :- A(a, b), !B(a, b).", "D");
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&d, &lookup);
            let gb = ground(db.relation("B").unwrap(), &lookup);
            let expect: GroundRows = ground(db.relation("A").unwrap(), &lookup)
                .into_iter()
                .filter(|row| !gb.contains(row))
                .collect();
            prop_assert_eq!(&got, &expect);
        }
    }

    /// Projection onto column 0 ≡ per-world projection.
    #[test]
    fn project_commutes_with_instantiation(db in arb_db()) {
        let p = derive(&db, "P(a) :- A(a, _b).", "P");
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&p, &lookup);
            let expect: GroundRows = ground(db.relation("A").unwrap(), &lookup)
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
        let t = sql::query(
            &db,
            &format!("SELECT a, b FROM A WHERE b = {k}"),
        ).unwrap().to_relation();
        let a = db.relation("A").unwrap();
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let got = ground(&t, &lookup);
            let expect: GroundRows = ground(a, &lookup)
                .into_iter()
                .filter(|row| row[1] == Const::Int(k))
                .collect();
            prop_assert_eq!(&got, &expect);
        }
    }

    /// Random SELECTs — one or two FROM tables, up to three `=`/`!=`/`<`
    /// predicates over columns and literals, `*` or a column subset —
    /// agree with a brute-force evaluation of the same statement on the
    /// instantiated rows of every world.
    #[test]
    fn random_select_matches_brute_force(db in arb_db(), codes in arb_select()) {
        let q = BruteSelect::new(codes);
        let t = sql::query(&db, &q.sql).unwrap().to_relation();
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            prop_assert_eq!(ground(&t, &lookup), q.eval(&db, &lookup), "{}", &q.sql);
        }
    }

    /// Table::prune never changes per-world contents (it only removes
    /// dead rows / simplifies conditions).
    #[test]
    fn prune_is_semantically_invisible(db in arb_db()) {
        let a = db.relation("A").unwrap();
        let mut pruned = Table::from_relation(a);
        let mut session = faure_solver::Session::new();
        pruned.prune(&db.cvars, &mut session, PruneRows::All, 1).unwrap();
        let pruned = pruned.to_relation();
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            prop_assert_eq!(ground(a, &lookup), ground(&pruned, &lookup));
        }
    }
}

// ---------------------------------------------------------------------------
// The operators on a hand-built PATH′-style database
// ---------------------------------------------------------------------------

/// P(dest, path) like Table 2, simplified, and C(path, cost), over one
/// c-variable `x` ranging over two destinations.
fn path_db() -> (Database, faure_ctable::CVarId) {
    let mut db = Database::new();
    let x = db.fresh_cvar(
        "x",
        Domain::Consts(vec![Const::sym("1.2.3.4"), Const::sym("1.2.3.5")]),
    );
    db.create_relation(Schema::new("P", &["dest", "path"]))
        .unwrap();
    db.insert("P", CTuple::new([Term::sym("1.2.3.4"), Term::sym("[ABC]")]))
        .unwrap();
    db.insert(
        "P",
        CTuple::with_cond(
            [Term::Var(x), Term::sym("[ABE]")],
            Condition::ne(Term::Var(x), Term::sym("1.2.3.4")),
        ),
    )
    .unwrap();
    db.create_relation(Schema::new("C", &["path", "cost"]))
        .unwrap();
    db.insert("C", CTuple::new([Term::sym("[ABC]"), Term::int(3)]))
        .unwrap();
    db.insert("C", CTuple::new([Term::sym("[ABE]"), Term::int(3)]))
        .unwrap();
    (db, x)
}

#[test]
fn select_conjoins_match_condition() {
    let (db, x) = path_db();
    let s = derive(&db, r#"S("1.2.3.5", p) :- P("1.2.3.5", p)."#, "S");
    assert_eq!(s.len(), 1);
    // Row condition: (x̄ ≠ 1.2.3.4) ∧ (x̄ = 1.2.3.5)
    let expected = Condition::ne(Term::Var(x), Term::sym("1.2.3.4"))
        .and(Condition::eq(Term::Var(x), Term::sym("1.2.3.5")));
    assert!(faure_solver::equivalent(&db.cvars, &s.tuples[0].cond, &expected).unwrap());
}

#[test]
fn project_merges_duplicates() {
    let mut db = Database::new();
    db.create_relation(Schema::new("T", &["a", "b"])).unwrap();
    db.insert("T", CTuple::new([Term::int(1), Term::int(10)]))
        .unwrap();
    db.insert("T", CTuple::new([Term::int(1), Term::int(20)]))
        .unwrap();
    let p = derive(&db, "Pa(a) :- T(a, _b).", "Pa");
    assert_eq!(p.len(), 1);
    assert_eq!(p.schema.arity(), 1);
}

#[test]
fn join_equates_join_attributes() {
    let (db, _) = path_db();
    // Join P.path = C.path through the shared variable `p`.
    let j = derive(&db, "PC(d, p, p, c) :- P(d, p), C(p, c).", "PC");
    assert_eq!(j.schema.arity(), 4);
    // (1.2.3.4,[ABC]) joins ([ABC],3); (x̄,[ABE]) joins ([ABE],3).
    assert_eq!(j.len(), 2);
    for row in j.iter() {
        assert_eq!(row.terms[1], row.terms[2]); // equal constants here
    }
}

#[test]
fn union_merges_conditions() {
    let (mut db, x) = path_db();
    db.create_relation(Schema::new("A", &["v"])).unwrap();
    db.insert(
        "A",
        CTuple::with_cond(
            [Term::int(1)],
            Condition::eq(Term::Var(x), Term::sym("1.2.3.4")),
        ),
    )
    .unwrap();
    db.create_relation(Schema::new("B", &["v"])).unwrap();
    db.insert(
        "B",
        CTuple::with_cond(
            [Term::int(1)],
            Condition::eq(Term::Var(x), Term::sym("1.2.3.5")),
        ),
    )
    .unwrap();
    // No prune: the merged disjunction is kept as derived.
    let u = derive_with(&db, "U(v) :- A(v).\nU(v) :- B(v).", "U", PrunePolicy::Never);
    assert_eq!(u.len(), 1);
    assert!(matches!(u.tuples[0].cond, Condition::Or(_)));
}

#[test]
fn difference_uses_negation_condition() {
    let (mut db, x) = path_db();
    db.create_relation(Schema::new("A", &["v"])).unwrap();
    db.insert("A", CTuple::new([Term::sym("1.2.3.4")])).unwrap();
    db.insert("A", CTuple::new([Term::sym("1.2.3.5")])).unwrap();
    db.create_relation(Schema::new("B", &["v"])).unwrap();
    db.insert("B", CTuple::new([Term::sym("1.2.3.4")])).unwrap(); // unconditional
    db.insert(
        "B",
        CTuple::with_cond(
            [Term::Var(x)],
            Condition::eq(Term::Var(x), Term::sym("1.2.3.5")),
        ),
    )
    .unwrap();
    let d = derive(&db, "D(v) :- A(v), !B(v).", "D");
    // 1.2.3.4 is unconditionally in B → dropped.
    // 1.2.3.5 matches B's var row under x̄ = 1.2.3.5 → survives with
    // the negation of that condition.
    assert_eq!(d.len(), 1);
    assert_eq!(d.tuples[0].terms, vec![Term::sym("1.2.3.5")]);
    assert_ne!(d.tuples[0].cond, Condition::True);
}

#[test]
fn rename_changes_only_name() {
    let (db, _) = path_db();
    let r = derive(&db, "Q(d, p) :- P(d, p).", "Q");
    assert_eq!(r.schema.name, "Q");
    assert_eq!(r.len(), db.relation("P").unwrap().len());
}
