//! Per-predicate column-domain inference: an abstract interpretation
//! of the program over the [`AbsDom`] lattice.
//!
//! The pass runs the program *abstractly*: input (EDB) relation
//! columns are seeded from the database contents when one is supplied
//! (c-variable cells contribute their registry domain, not ⊤), derived
//! (IDB) columns start at ⊥, and rules are iterated to fixpoint — each
//! feasible rule joins the abstract value of every head argument into
//! the head predicate's columns. Joins only grow and the lattice has
//! finite height over the program's constants, so the iteration
//! terminates.
//!
//! The result is **sound**: every constant a column can hold in any
//! derivation, over any world, lies inside the inferred domain. The
//! companion proptest in the workspace test crate checks exactly this
//! against real evaluation on the shared random corpus.
//!
//! Without a database the pass stays useful but weaker: EDB columns
//! are ⊤ and assumed nonempty (the same assumption the dead-rule pass
//! makes), so only program-visible facts — constants in rule heads and
//! bodies, comparisons — restrict domains. Inference results computed
//! without a database are valid for *any* database that does not
//! store tuples for derived predicates (shadowed inputs); database-
//! aware inference handles shadowing by seeding the shadowed columns
//! from the stored tuples.

use crate::domains::AbsDom;
use crate::feasible::{analyze_rule, RuleSemantics};
use faure_core::{ArgTerm, Program};
use faure_ctable::{Database, Term};
use std::collections::{BTreeMap, BTreeSet};

/// Per-predicate column domains.
pub type Columns = BTreeMap<String, Vec<AbsDom>>;

/// The result of column-domain inference over a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Inference {
    /// Inferred domain of every predicate column.
    pub columns: Columns,
    /// Predicates that may hold at least one tuple. Predicates absent
    /// from this set are provably empty (under the database, when one
    /// was supplied; otherwise assuming every input relation holds
    /// tuples).
    pub nonempty: BTreeSet<String>,
    /// Per-rule abstract semantics (variable environments and
    /// feasibility), index-aligned with `program.rules`.
    pub rules: Vec<RuleSemantics>,
}

/// The arity of each predicate: database schema first, then the widest
/// program use (robust under arity-conflict findings).
fn arities(program: &Program, db: Option<&Database>) -> BTreeMap<String, usize> {
    let mut out: BTreeMap<String, usize> = BTreeMap::new();
    if let Some(db) = db {
        for rel in db.relations() {
            out.insert(rel.schema.name.clone(), rel.schema.attrs.len());
        }
    }
    for rule in &program.rules {
        let uses = std::iter::once(&rule.head).chain(rule.body.iter().map(|l| l.atom()));
        for atom in uses {
            let e = out.entry(atom.pred.clone()).or_insert(0);
            *e = (*e).max(atom.args.len());
        }
    }
    out
}

/// Runs column-domain inference to fixpoint.
pub fn infer(program: &Program, db: Option<&Database>) -> Inference {
    let idb: BTreeSet<String> = program
        .idb_predicates()
        .into_iter()
        .map(str::to_owned)
        .collect();
    let reg = db.map(|d| &d.cvars);

    let mut columns: Columns = BTreeMap::new();
    let mut nonempty: BTreeSet<String> = BTreeSet::new();
    for (pred, arity) in arities(program, db) {
        let mut cols = vec![AbsDom::Bottom; arity];
        let mut rows = false;
        match db {
            Some(db) => {
                // Stored tuples seed the columns — for EDB relations
                // and for IDB predicates shadowing an input relation
                // alike. A c-variable cell contributes its registry
                // domain.
                if let Some(rel) = db.relation(&pred) {
                    for row in rel.iter() {
                        rows = true;
                        for (col, term) in row.terms.iter().enumerate() {
                            let v = match term {
                                Term::Const(c) => AbsDom::from_const(c),
                                Term::Var(id) => AbsDom::from_domain(db.cvars.domain(*id)),
                            };
                            if let Some(slot) = cols.get_mut(col) {
                                *slot = slot.join(&v);
                            }
                        }
                    }
                }
            }
            None => {
                // No database: input relations are unknown (⊤) and
                // assumed nonempty, like the dead-rule pass assumes.
                if !idb.contains(&pred) {
                    cols = vec![AbsDom::Top; arity];
                    rows = true;
                }
            }
        }
        if rows {
            nonempty.insert(pred.clone());
        }
        columns.insert(pred, cols);
    }

    // Fixpoint: join every feasible rule's head contribution.
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let sem = analyze_rule(rule, &columns, &nonempty, reg);
            if sem.infeasible.is_some() {
                continue;
            }
            if nonempty.insert(rule.head.pred.clone()) {
                changed = true;
            }
            for (col, arg) in rule.head.args.iter().enumerate() {
                let v = arg_value(arg, &sem, reg);
                let Some(slot) = columns
                    .get_mut(rule.head.pred.as_str())
                    .and_then(|cols| cols.get_mut(col))
                else {
                    continue;
                };
                let joined = slot.join(&v);
                if joined != *slot {
                    *slot = joined;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // One final pass records each rule's semantics under the fixpoint
    // domains.
    let rules = program
        .rules
        .iter()
        .map(|rule| analyze_rule(rule, &columns, &nonempty, reg))
        .collect();

    Inference {
        columns,
        nonempty,
        rules,
    }
}

/// The abstract value a head argument contributes under `sem`.
pub(crate) fn arg_value(
    arg: &ArgTerm,
    sem: &RuleSemantics,
    reg: Option<&faure_ctable::CVarRegistry>,
) -> AbsDom {
    match arg {
        ArgTerm::Cst(c) => AbsDom::from_const(c),
        ArgTerm::Var(v) => sem.env.get(v).cloned().unwrap_or(AbsDom::Top),
        ArgTerm::CVar(name) => reg
            .and_then(|r| r.by_name(name).map(|id| AbsDom::from_domain(r.domain(id))))
            .unwrap_or(AbsDom::Top),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_core::parse_program;
    use faure_ctable::{CTuple, Condition, Const, Domain, Schema};

    fn db_e012() -> Database {
        let mut db = Database::new();
        let v = db.fresh_cvar("v", Domain::Ints(vec![0, 1, 2]));
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        db.insert("E", CTuple::new([Term::int(0), Term::int(1)]))
            .unwrap();
        db.insert(
            "E",
            CTuple::with_cond(
                [Term::Var(v), Term::int(2)],
                Condition::eq(Term::Var(v), Term::int(1)),
            ),
        )
        .unwrap();
        db
    }

    #[test]
    fn edb_columns_come_from_data_and_cvar_domains() {
        let db = db_e012();
        let p = parse_program("Q(a) :- E(a, b).\n").unwrap();
        let inf = infer(&p, Some(&db));
        // Column 0 holds 0 and the c-variable over {0, 1, 2}.
        let e = &inf.columns["E"];
        for k in 0..3 {
            assert!(e[0].contains(&Const::Int(k)), "{:?}", e[0]);
        }
        assert!(!e[0].contains(&Const::Int(5)));
        assert_eq!(e[1], AbsDom::Consts([Const::Int(1), Const::Int(2)].into()));
        // Q inherits column 0.
        assert!(inf.columns["Q"][0].contains(&Const::Int(2)));
        assert!(!inf.columns["Q"][0].contains(&Const::Int(9)));
        assert!(inf.nonempty.contains("Q"));
    }

    #[test]
    fn comparisons_refine_head_domains() {
        let db = db_e012();
        let p = parse_program("Q(a) :- E(a, b), a != 0.\n").unwrap();
        let inf = infer(&p, Some(&db));
        assert!(!inf.columns["Q"][0].contains(&Const::Int(0)));
        assert!(inf.columns["Q"][0].contains(&Const::Int(1)));
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let db = db_e012();
        let p = parse_program("R(a, b) :- E(a, b).\nR(a, c) :- E(a, b), R(b, c).\n").unwrap();
        let inf = infer(&p, Some(&db));
        let r = &inf.columns["R"];
        // R's columns cover both E columns' values transitively.
        assert!(r[0].contains(&Const::Int(0)));
        assert!(r[1].contains(&Const::Int(2)));
        assert!(!r[0].contains(&Const::Int(9)));
    }

    #[test]
    fn infeasible_rules_contribute_nothing() {
        let db = db_e012();
        let p = parse_program("Q(a) :- E(a, b), a > 100.\nP(a) :- Q(a).\n").unwrap();
        let inf = infer(&p, Some(&db));
        assert!(inf.rules[0].infeasible.is_some());
        assert!(!inf.nonempty.contains("Q"));
        assert!(!inf.nonempty.contains("P"));
        assert!(inf.rules[1].infeasible.is_some(), "{:?}", inf.rules[1]);
    }

    #[test]
    fn program_only_inference_uses_fact_constants() {
        let p = parse_program("E(0, 9).\nE(1, 9).\nQ(a) :- E(a, b).\n").unwrap();
        let inf = infer(&p, None);
        assert_eq!(
            inf.columns["Q"][0],
            AbsDom::Consts([Const::Int(0), Const::Int(1)].into())
        );
    }

    #[test]
    fn program_only_inference_keeps_unknown_edb_top() {
        let p = parse_program("Q(a) :- E(a, b).\n").unwrap();
        let inf = infer(&p, None);
        assert_eq!(inf.columns["E"], vec![AbsDom::Top, AbsDom::Top]);
        assert_eq!(inf.columns["Q"], vec![AbsDom::Top]);
        assert!(inf.nonempty.contains("Q"));
    }
}
