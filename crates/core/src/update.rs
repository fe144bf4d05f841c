//! Update rewrite — the category-(ii) machinery (§5, Listing 4).
//!
//! To verify a constraint `C` *after* an update `U` using only the
//! pre-update state, the paper rewrites `C` into `C'` such that `C'`
//! holds before `U` iff `C` holds after `U` (following Levy & Sagiv,
//! *Queries Independent of Updates*, VLDB '93). The rewrite introduces
//! staged relations:
//!
//! ```text
//! % add (R&D, GS) to the load balancer          (q19–q20)
//! Lb__u0("R&D", GS).
//! Lb__u0(x, y) :- Lb(x, y).
//! % delete (Mkt, CS) from the load balancer     (q21–q22)
//! Lb__u1(x, y) :- Lb__u0(x, y), x != Mkt.
//! Lb__u1(x, y) :- Lb__u0(x, y), y != CS.
//! % the constraint then reads Lb__u1 instead of Lb   (q24)
//! ```
//!
//! A row survives a deletion pattern if it *differs in at least one
//! constrained column* — hence one rule per constrained column, whose
//! union is the survivor set. On c-tables this is loss-less: a row
//! `(x̄, CS)` survives the deletion of `(Mkt, CS)` with condition
//! `x̄ ≠ Mkt` attached by the comparison.
//!
//! [`apply_to_database`] implements the same update *directly* on a
//! database (used by tests and the direct verifier to cross-check the
//! rewrite).

use crate::ast::{ArgTerm, CompExpr, Comparison, Literal, Program, Rule, RuleAtom};
use faure_ctable::{CTuple, CmpOp, Condition, Const, Database, Term};
use std::fmt;

/// A deletion pattern: per-column `Some(constant)` constraints
/// (`None` = any value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeletePattern {
    /// One entry per column.
    pub cols: Vec<Option<Const>>,
}

impl DeletePattern {
    /// A pattern with all columns constrained (delete one exact row).
    pub fn exact<I: IntoIterator<Item = Const>>(row: I) -> Self {
        DeletePattern {
            cols: row.into_iter().map(Some).collect(),
        }
    }
}

/// An update to a single relation: insertions of ground rows plus
/// deletions by pattern.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Update {
    /// Relation being updated.
    pub relation: String,
    /// Ground rows to insert.
    pub insertions: Vec<Vec<Const>>,
    /// Patterns to delete.
    pub deletions: Vec<DeletePattern>,
}

impl Update {
    /// A new empty update for `relation`.
    pub fn new(relation: impl Into<String>) -> Self {
        Update {
            relation: relation.into(),
            ..Default::default()
        }
    }

    /// Adds an insertion.
    pub fn insert<I: IntoIterator<Item = Const>>(mut self, row: I) -> Self {
        self.insertions.push(row.into_iter().collect());
        self
    }

    /// Adds a deletion pattern.
    pub fn delete(mut self, pattern: DeletePattern) -> Self {
        self.deletions.push(pattern);
        self
    }
}

/// Errors of the rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// A deletion pattern constrains no column (would delete every
    /// row); written out explicitly rather than silently emptying the
    /// relation.
    UnconstrainedDeletion,
    /// Insertions/deletions disagree on the relation's arity.
    ArityMismatch {
        /// Expected arity.
        expected: usize,
        /// Found arity.
        got: usize,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnconstrainedDeletion => {
                write!(f, "deletion pattern constrains no column")
            }
            UpdateError::ArityMismatch { expected, got } => {
                write!(f, "update rows disagree on arity: {expected} vs {got}")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// The name of the staged relation after applying `update` stage `k`.
fn stage_name(relation: &str, k: usize) -> String {
    format!("{relation}__u{k}")
}

/// Generates the staged rules of Listing 4 for `update` on a relation
/// of the given arity, and returns `(rules, final_pred)` where
/// `final_pred` reflects the post-update contents.
pub fn staging_rules(update: &Update, arity: usize) -> Result<(Vec<Rule>, String), UpdateError> {
    for row in &update.insertions {
        if row.len() != arity {
            return Err(UpdateError::ArityMismatch {
                expected: arity,
                got: row.len(),
            });
        }
    }
    for d in &update.deletions {
        if d.cols.len() != arity {
            return Err(UpdateError::ArityMismatch {
                expected: arity,
                got: d.cols.len(),
            });
        }
        if d.cols.iter().all(Option::is_none) {
            return Err(UpdateError::UnconstrainedDeletion);
        }
    }

    let vars: Vec<ArgTerm> = (0..arity).map(|i| ArgTerm::Var(format!("v{i}"))).collect();
    let mut rules = Vec::new();

    // Stage 0: old contents plus insertions (q19–q20).
    let s0 = stage_name(&update.relation, 0);
    rules.push(Rule {
        head: RuleAtom::new(&s0, vars.clone()),
        body: vec![Literal::Pos(RuleAtom::new(&update.relation, vars.clone()))],
        comparisons: vec![],
    });
    for row in &update.insertions {
        rules.push(Rule::fact(RuleAtom::new(
            &s0,
            row.iter().map(|c| ArgTerm::Cst(c.clone())).collect(),
        )));
    }

    // One stage per deletion (q21–q22): survivors differ in at least
    // one constrained column.
    let mut prev = s0;
    for (k, d) in update.deletions.iter().enumerate() {
        let sk = stage_name(&update.relation, k + 1);
        for (col, constraint) in d.cols.iter().enumerate() {
            let Some(c) = constraint else { continue };
            rules.push(Rule {
                head: RuleAtom::new(&sk, vars.clone()),
                body: vec![Literal::Pos(RuleAtom::new(&prev, vars.clone()))],
                comparisons: vec![Comparison {
                    lhs: CompExpr::Arg(ArgTerm::Var(format!("v{col}"))),
                    op: CmpOp::Ne,
                    rhs: CompExpr::Arg(ArgTerm::Cst(c.clone())),
                }],
            });
        }
        prev = sk;
    }
    Ok((rules, prev))
}

/// Rewrites `constraint` to reflect `update`: every reference to the
/// updated relation is redirected to the staged post-update relation,
/// and the staging rules are appended. The result is the paper's `C'`
/// (e.g. `T2'`, q24): checking it on the **pre-update** state is
/// equivalent to checking `constraint` on the **post-update** state.
pub fn rewrite_constraint(constraint: &Program, update: &Update) -> Result<Program, UpdateError> {
    // Find the relation's arity from its uses; if unused, the rewrite
    // is the identity.
    let arity = constraint
        .rules
        .iter()
        .flat_map(|r| {
            r.body
                .iter()
                .map(Literal::atom)
                .chain(std::iter::once(&r.head))
        })
        .find(|a| a.pred == update.relation)
        .map(|a| a.args.len());
    let Some(arity) = arity else {
        return Ok(constraint.clone());
    };
    let (staging, final_pred) = staging_rules(update, arity)?;

    let mut out = Program::new();
    for rule in &constraint.rules {
        let redirect = |atom: &RuleAtom| -> RuleAtom {
            if atom.pred == update.relation {
                RuleAtom::new(&final_pred, atom.args.clone())
            } else {
                atom.clone()
            }
        };
        out.rules.push(Rule {
            head: redirect(&rule.head),
            body: rule
                .body
                .iter()
                .map(|l| match l {
                    Literal::Pos(a) => Literal::Pos(redirect(a)),
                    Literal::Neg(a) => Literal::Neg(redirect(a)),
                })
                .collect(),
            comparisons: rule.comparisons.clone(),
        });
    }
    out.rules.extend(staging);
    Ok(out)
}

/// Rewrites `constraint` to reflect `update` **without introducing
/// staged predicates**: occurrences of the updated relation are
/// expanded in place using the update algebra
///
/// ```text
/// Rel'(u)  =  (Rel(u) ∨ ⋁ⱼ u = insⱼ)  ∧  ⋀ₖ ¬match(u, delₖ)
/// ¬Rel'(u) =  (¬Rel(u) ∧ ⋀ⱼ u ≠ insⱼ)  ∨  ⋁ₖ match(u, delₖ)
/// ```
///
/// where `match(u, d)` constrains every column `d` fixes and `u ≠ ins`
/// is a disjunction over columns. Disjunctions split rules, so one rule
/// may expand to several. The result is EDB-level (no `Rel__u*`
/// auxiliaries), which is what the category-(ii) verifier feeds to the
/// containment-as-evaluation test: `expand_constraint(C, U) ⊆ known`
/// is the paper's `C' ⊆ {C_lb, C_s}` check.
pub fn expand_constraint(constraint: &Program, update: &Update) -> Result<Program, UpdateError> {
    for d in &update.deletions {
        if d.cols.iter().all(Option::is_none) {
            return Err(UpdateError::UnconstrainedDeletion);
        }
    }
    let mut out = Program::new();
    for rule in &constraint.rules {
        expand_rule(rule, update, &mut out.rules)?;
    }
    // Expanded literals were marked with a sentinel so the recursion
    // does not re-expand them; restore the original relation name.
    let sentinel = expansion_sentinel(&update.relation);
    for rule in &mut out.rules {
        for lit in &mut rule.body {
            let atom = match lit {
                Literal::Pos(a) | Literal::Neg(a) => a,
            };
            if atom.pred == sentinel {
                atom.pred = update.relation.clone();
            }
        }
    }
    Ok(out)
}

/// Internal marker name for already-expanded literals (contains a
/// control character, so it cannot collide with parseable predicates).
fn expansion_sentinel(relation: &str) -> String {
    format!("{relation}\u{1}orig")
}

fn expand_rule(rule: &Rule, update: &Update, out: &mut Vec<Rule>) -> Result<(), UpdateError> {
    // Find the first literal on the updated relation; expand it and
    // recurse (a rule may mention the relation several times).
    let Some(pos) = rule
        .body
        .iter()
        .position(|l| l.atom().pred == update.relation)
    else {
        out.push(rule.clone());
        return Ok(());
    };
    let lit = rule.body[pos].clone();
    let args = lit.atom().args.clone();
    let arity = args.len();
    for row in &update.insertions {
        if row.len() != arity {
            return Err(UpdateError::ArityMismatch {
                expected: arity,
                got: row.len(),
            });
        }
    }
    for d in &update.deletions {
        if d.cols.len() != arity {
            return Err(UpdateError::ArityMismatch {
                expected: arity,
                got: d.cols.len(),
            });
        }
    }

    let without = |keep_lit: Option<Literal>, extra: Vec<Comparison>| -> Rule {
        let mut body: Vec<Literal> = Vec::with_capacity(rule.body.len());
        for (i, l) in rule.body.iter().enumerate() {
            if i == pos {
                if let Some(kl) = &keep_lit {
                    body.push(kl.clone());
                }
            } else {
                body.push(l.clone());
            }
        }
        let mut comparisons = rule.comparisons.clone();
        comparisons.extend(extra);
        Rule {
            head: rule.head.clone(),
            body,
            comparisons,
        }
    };

    let eq_cmp = |a: &ArgTerm, c: &Const| Comparison {
        lhs: CompExpr::Arg(a.clone()),
        op: CmpOp::Eq,
        rhs: CompExpr::Arg(ArgTerm::Cst(c.clone())),
    };
    let ne_cmp = |a: &ArgTerm, c: &Const| Comparison {
        lhs: CompExpr::Arg(a.clone()),
        op: CmpOp::Ne,
        rhs: CompExpr::Arg(ArgTerm::Cst(c.clone())),
    };

    match lit {
        Literal::Pos(_) => {
            // Survival constraints: for every deletion, pick one
            // constrained column to differ in (cartesian product).
            let mut survival_sets: Vec<Vec<Comparison>> = vec![Vec::new()];
            for d in &update.deletions {
                let mut next = Vec::new();
                for (col, constraint) in d.cols.iter().enumerate() {
                    let Some(c) = constraint else { continue };
                    for s in &survival_sets {
                        let mut s2 = s.clone();
                        s2.push(ne_cmp(&args[col], c));
                        next.push(s2);
                    }
                }
                survival_sets = next;
            }
            for s in &survival_sets {
                // Old contents that survive.
                let r = without(
                    Some(Literal::Pos(RuleAtom {
                        pred: expansion_sentinel(&update.relation),
                        args: args.clone(),
                    })),
                    s.clone(),
                );
                expand_rule(&r, update, out)?;
                // Each inserted row that survives.
                for ins in &update.insertions {
                    let mut extra = s.clone();
                    for (a, c) in args.iter().zip(ins) {
                        extra.push(eq_cmp(a, c));
                    }
                    let r = without(None, extra);
                    expand_rule(&r, update, out)?;
                }
            }
        }
        Literal::Neg(_) => {
            // Not-in-old and differing from every insertion (one rule
            // per column-choice combination across insertions).
            let mut diff_sets: Vec<Vec<Comparison>> = vec![Vec::new()];
            for ins in &update.insertions {
                let mut next = Vec::new();
                for (col, c) in ins.iter().enumerate() {
                    for s in &diff_sets {
                        let mut s2 = s.clone();
                        s2.push(ne_cmp(&args[col], c));
                        next.push(s2);
                    }
                }
                diff_sets = next;
            }
            for s in diff_sets {
                let r = without(
                    Some(Literal::Neg(RuleAtom {
                        pred: expansion_sentinel(&update.relation),
                        args: args.clone(),
                    })),
                    s,
                );
                expand_rule(&r, update, out)?;
            }
            // Or: the tuple matches a deleted pattern.
            for d in &update.deletions {
                let mut extra = Vec::new();
                for (col, constraint) in d.cols.iter().enumerate() {
                    if let Some(c) = constraint {
                        extra.push(eq_cmp(&args[col], c));
                    }
                }
                let r = without(None, extra);
                expand_rule(&r, update, out)?;
            }
        }
    }
    Ok(())
}

/// Applies the update directly to a database (the "actually perform the
/// change" semantics used to validate the rewrite).
///
/// Deletion on a c-table is loss-less: a row whose cells *might* match
/// the pattern keeps `¬μ` (the negated match condition); rows that
/// certainly match are removed.
pub fn apply_to_database(update: &Update, db: &mut Database) -> Result<(), UpdateError> {
    let Some(rel) = db.relation_mut(&update.relation) else {
        return Ok(());
    };
    let arity = rel.schema.arity();
    for row in &update.insertions {
        if row.len() != arity {
            return Err(UpdateError::ArityMismatch {
                expected: arity,
                got: row.len(),
            });
        }
    }
    for d in &update.deletions {
        if d.cols.len() != arity {
            return Err(UpdateError::ArityMismatch {
                expected: arity,
                got: d.cols.len(),
            });
        }
        if d.cols.iter().all(Option::is_none) {
            return Err(UpdateError::UnconstrainedDeletion);
        }
    }

    // Deletions first (the staged rewrite also inserts at stage 0 and
    // deletes afterwards; for the paper's updates — disjoint inserted
    // and deleted tuples — the order is immaterial, and we mirror it).
    for d in &update.deletions {
        let mut kept = Vec::new();
        for mut row in rel.tuples.drain(..) {
            // μ: the condition under which the row matches the pattern.
            let mut mu = Condition::True;
            let mut certain_mismatch = false;
            for (cell, constraint) in row.terms.iter().zip(&d.cols) {
                let Some(c) = constraint else { continue };
                match cell {
                    Term::Const(v) => {
                        if v != c {
                            certain_mismatch = true;
                            break;
                        }
                    }
                    Term::Var(v) => {
                        mu = mu.and(Condition::eq(Term::Var(*v), Term::Const(c.clone())));
                    }
                }
            }
            if certain_mismatch {
                kept.push(row);
            } else if mu == Condition::True {
                // Certain match: drop the row.
            } else {
                row.cond = row.cond.and(mu.negate());
                kept.push(row);
            }
        }
        rel.tuples = kept;
    }
    for row in &update.insertions {
        rel.tuples.push(CTuple::new(
            row.iter()
                .map(|c| Term::Const(c.clone()))
                .collect::<Vec<_>>(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::evaluate;
    use crate::parser::parse_program;
    use faure_ctable::{Domain, Schema};

    /// The Listing 4 update: add (R&D, GS), remove (Mkt, CS).
    fn listing4_update() -> Update {
        Update::new("Lb")
            .insert([Const::sym("R&D"), Const::sym("GS")])
            .delete(DeletePattern::exact([Const::sym("Mkt"), Const::sym("CS")]))
    }

    #[test]
    fn staging_rules_match_listing4_shape() {
        let (rules, final_pred) = staging_rules(&listing4_update(), 2).unwrap();
        assert_eq!(final_pred, "Lb__u1");
        // q20 (copy), q19 (insert fact), q21, q22 (one per column).
        assert_eq!(rules.len(), 4);
        assert_eq!(rules[0].to_string(), "Lb__u0(v0, v1) :- Lb(v0, v1).");
        assert_eq!(rules[1].to_string(), "Lb__u0(\"R&D\", GS).");
        assert_eq!(
            rules[2].to_string(),
            "Lb__u1(v0, v1) :- Lb__u0(v0, v1), v0 != Mkt."
        );
        assert_eq!(
            rules[3].to_string(),
            "Lb__u1(v0, v1) :- Lb__u0(v0, v1), v1 != CS."
        );
    }

    #[test]
    fn rewrite_redirects_constraint() {
        let t2 = parse_program("panic :- R(\"R&D\", y, 7000), !Lb(\"R&D\", y).\n").unwrap();
        let t2p = rewrite_constraint(&t2, &listing4_update()).unwrap();
        assert_eq!(
            t2p.rules[0].to_string(),
            "panic :- R(\"R&D\", y, 7000), !Lb__u1(\"R&D\", y)."
        );
        assert_eq!(t2p.rules.len(), 5);
    }

    #[test]
    fn rewrite_is_identity_when_relation_unused() {
        let t1 = parse_program("panic :- R(Mkt, CS, p), !Fw(Mkt, CS).\n").unwrap();
        let t1p = rewrite_constraint(&t1, &listing4_update()).unwrap();
        assert_eq!(t1p, t1);
    }

    #[test]
    fn unconstrained_deletion_rejected() {
        let u = Update::new("Lb").delete(DeletePattern {
            cols: vec![None, None],
        });
        assert_eq!(
            staging_rules(&u, 2),
            Err(UpdateError::UnconstrainedDeletion)
        );
    }

    #[test]
    fn arity_mismatch_rejected() {
        let u = Update::new("Lb").insert([Const::sym("a")]);
        assert!(matches!(
            staging_rules(&u, 2),
            Err(UpdateError::ArityMismatch { .. })
        ));
    }

    /// The rewrite's defining property: evaluating `C'` on the
    /// pre-update state equals evaluating `C` on the post-update state.
    #[test]
    fn rewrite_equals_direct_application() {
        let mut db = Database::new();
        db.create_relation(Schema::new("Lb", &["subnet", "server"]))
            .unwrap();
        db.insert("Lb", CTuple::new([Term::sym("Mkt"), Term::sym("CS")]))
            .unwrap();
        db.create_relation(Schema::new("R", &["subnet", "server", "port"]))
            .unwrap();
        db.insert(
            "R",
            CTuple::new([Term::sym("R&D"), Term::sym("GS"), Term::int(7000)]),
        )
        .unwrap();

        let t2 = parse_program("panic :- R(\"R&D\", y, 7000), !Lb(\"R&D\", y).\n").unwrap();
        let update = listing4_update();

        // Path A: rewrite, evaluate on pre-update state.
        let t2p = rewrite_constraint(&t2, &update).unwrap();
        let via_rewrite = evaluate(&t2p, &db).unwrap().derived("panic");

        // Path B: apply the update, evaluate the original constraint.
        let mut db2 = db.clone();
        apply_to_database(&update, &mut db2).unwrap();
        let direct = evaluate(&t2, &db2).unwrap().derived("panic");

        assert_eq!(via_rewrite, direct);
        // And in this scenario the update *fixes* T2 (adds the R&D→GS
        // load balancer), so no panic either way.
        assert!(!direct);
    }

    #[test]
    fn rewrite_equals_direct_application_violating_case() {
        // No load balancer for R&D→GS and the update doesn't add one:
        // both paths must report the violation.
        let mut db = Database::new();
        db.create_relation(Schema::new("Lb", &["subnet", "server"]))
            .unwrap();
        db.insert("Lb", CTuple::new([Term::sym("Mkt"), Term::sym("CS")]))
            .unwrap();
        db.create_relation(Schema::new("R", &["subnet", "server", "port"]))
            .unwrap();
        db.insert(
            "R",
            CTuple::new([Term::sym("R&D"), Term::sym("GS"), Term::int(7000)]),
        )
        .unwrap();

        let t2 = parse_program("panic :- R(\"R&D\", y, 7000), !Lb(\"R&D\", y).\n").unwrap();
        // Update only deletes (Mkt, CS).
        let update =
            Update::new("Lb").delete(DeletePattern::exact([Const::sym("Mkt"), Const::sym("CS")]));

        let t2p = rewrite_constraint(&t2, &update).unwrap();
        let via_rewrite = evaluate(&t2p, &db).unwrap().derived("panic");
        let mut db2 = db.clone();
        apply_to_database(&update, &mut db2).unwrap();
        let direct = evaluate(&t2, &db2).unwrap().derived("panic");
        assert_eq!(via_rewrite, direct);
        assert!(direct);
    }

    #[test]
    fn expand_constraint_eliminates_staging() {
        let t2 = parse_program("panic :- R(\"R&D\", y, 7000), !Lb(\"R&D\", y).\n").unwrap();
        let expanded = expand_constraint(&t2, &listing4_update()).unwrap();
        // No staged predicates anywhere.
        for r in &expanded.rules {
            for lit in &r.body {
                assert!(!lit.atom().pred.contains("__u"));
                assert!(!lit.atom().pred.contains('\u{1}'));
            }
        }
        // Branches: ¬Lb survivors (2 column choices for the insertion)
        // + 1 deleted-match branch.
        assert_eq!(expanded.rules.len(), 3);
    }

    /// The expansion must agree with the staged rewrite on every state:
    /// both are C' with "C' before U ⟺ C after U".
    #[test]
    fn expand_agrees_with_staged_rewrite() {
        let t2 = parse_program("panic :- R(\"R&D\", y, 7000), !Lb(\"R&D\", y).\n").unwrap();
        let update = listing4_update();
        let staged = rewrite_constraint(&t2, &update).unwrap();
        let expanded = expand_constraint(&t2, &update).unwrap();

        // Try several pre-update states.
        let states: Vec<Vec<(&str, &str)>> = vec![
            vec![("Mkt", "CS")],
            vec![("R&D", "GS")],
            vec![("Mkt", "CS"), ("R&D", "CS")],
            vec![],
        ];
        for lbs in states {
            let mut db = Database::new();
            db.create_relation(Schema::new("Lb", &["subnet", "server"]))
                .unwrap();
            for (a, b) in &lbs {
                db.insert("Lb", CTuple::new([Term::sym(a), Term::sym(b)]))
                    .unwrap();
            }
            db.create_relation(Schema::new("R", &["subnet", "server", "port"]))
                .unwrap();
            db.insert(
                "R",
                CTuple::new([Term::sym("R&D"), Term::sym("CS"), Term::int(7000)]),
            )
            .unwrap();
            let a = evaluate(&staged, &db).unwrap().derived("panic");
            let b = evaluate(&expanded, &db).unwrap().derived("panic");
            assert_eq!(a, b, "state {lbs:?}");
        }
    }

    /// The paper's category-(ii) headline: after expanding T2 through
    /// the Listing 4 update, T2' IS subsumed by the team policies.
    #[test]
    fn expanded_t2_subsumed_by_policies() {
        use crate::containment::{subsumes, Subsumption};
        use faure_ctable::CVarRegistry;

        let t2 = parse_program("panic :- R(\"R&D\", y, 7000), !Lb(\"R&D\", y).\n").unwrap();
        let t2p = expand_constraint(&t2, &listing4_update()).unwrap();
        let policies = parse_program(
            "panic :- Vt(x, y, p).\n\
             Vt(x, CS, p) :- R(x, CS, p), x != Mkt, x != \"R&D\".\n\
             Vt(x, CS, p) :- R(x, CS, p), !Lb(x, CS).\n\
             Vt(x, CS, p) :- R(x, CS, p), p != 7000.\n\
             panic :- Vs(x, y, p).\n\
             Vs(x, y, p) :- R(x, y, p), !Fw(x, y).\n\
             Vs(x, y, p) :- R(x, y, p), p != 80, p != 344, p != 7000.\n",
        )
        .unwrap();
        let mut reg = CVarRegistry::new();
        reg.fresh(
            "x",
            Domain::Consts(vec![Const::sym("Mkt"), Const::sym("R&D")]),
        );
        reg.fresh(
            "y",
            Domain::Consts(vec![Const::sym("CS"), Const::sym("GS")]),
        );
        reg.fresh("p", Domain::Ints(vec![80, 344, 7000]));
        // Category (i) alone cannot show T2 (checked in containment
        // tests); with the update folded in, it can.
        assert_eq!(
            subsumes(&policies, &t2p, &reg).unwrap(),
            Subsumption::Subsumed
        );
    }

    #[test]
    fn delete_on_cvar_cell_is_lossless() {
        // Deleting (Mkt, CS) from a table containing (x̄, CS) must keep
        // the row with condition x̄ ≠ Mkt.
        let mut db = Database::new();
        let x = db.fresh_cvar(
            "x",
            Domain::Consts(vec![Const::sym("Mkt"), Const::sym("R&D")]),
        );
        db.create_relation(Schema::new("Lb", &["subnet", "server"]))
            .unwrap();
        db.insert("Lb", CTuple::new([Term::Var(x), Term::sym("CS")]))
            .unwrap();
        let update =
            Update::new("Lb").delete(DeletePattern::exact([Const::sym("Mkt"), Const::sym("CS")]));
        apply_to_database(&update, &mut db).unwrap();
        let lb = db.relation("Lb").unwrap();
        assert_eq!(lb.len(), 1);
        assert_eq!(
            lb.tuples[0].cond,
            Condition::ne(Term::Var(x), Term::sym("Mkt"))
        );
    }
}
