//! Constraint subsumption via reduction to fauré-log evaluation.
//!
//! §5 of the paper observes that once constraints are 0-ary `panic`
//! queries, "constraint subsumption becomes a special case of program
//! containment", and — instead of running a containment decision
//! procedure — reduces containment to **query evaluation in fauré-log**:
//!
//! 1. rewrite each `panic` rule of the *target* constraint into a
//!    **variable-free** form: every rule variable is replaced by a
//!    fresh c-variable (c-variables are "unknown constants", so this is
//!    exactly the paper's "substitute the variables with c-variables
//!    augmented with proper conditions");
//! 2. **freeze** the rule's positive body into a canonical database
//!    (one unconditional tuple per positive literal). Predicates that
//!    occur under negation — in the target rule or anywhere in the
//!    candidates — additionally receive one **generic adversarial
//!    tuple** of fresh c-variables whose condition excludes exactly the
//!    tuples the target rule's own negated literals forbid. This is the
//!    paper's `Fw(x̄,ȳ)` construction (§5; the paper's rendering drops
//!    the negation on the condition — the instance must contain
//!    *anything but* `(Mkt, CS)`);
//! 3. **evaluate** the candidate (subsuming) constraints on that
//!    canonical database;
//! 4. the rule is covered if the candidates derive `panic` under a
//!    condition entailed by the rule's own comparisons (checked with
//!    the solver; the frozen and adversarial c-variables are implicitly
//!    universally quantified, which is the correct polarity — the
//!    adversary picks the unknown values and the unconstrained rows).
//!
//! The target is subsumed if *every* rule is covered. The test is
//! sound for the paper's constraint class (non-recursive rules whose
//! negated literals mention tuples determined by the positive body, one
//! adversarial row per negated predicate suffices) and, like the
//! paper's category-(i) verifier, *relative*-complete — on `NotShown`
//! the caller needs more information (category (ii), or direct
//! checking).
//!
//! Note on style: in this engine, "match any row including c-variable
//! cells" is expressed with plain rule variables (the c-valuation binds
//! them to c-domain terms directly), so constraints are written
//! `panic :- R(Mkt, CS, p), !Fw(Mkt, CS).` — the paper's `p̄` becomes
//! the rule variable `p`, which the freeze step replaces with a fresh
//! c-variable, landing on exactly the paper's variable-free form.
//!
//! Aux predicates in constraint programs (like Listing 3's `Vt`) are
//! handled by unfolding `panic` rules down to EDB level first; since
//! constraints are non-recursive this always terminates (recursion is
//! reported as [`ContainmentError::RecursiveConstraint`]).

use crate::ast::{ArgTerm, CompExpr, Comparison, Literal, Program, Rule, RuleAtom};
use crate::engine::{evaluate_with, without_telemetry, EvalError, EvalOptions, PrunePolicy};
use faure_ctable::{CTuple, CVarRegistry, CmpOp, Condition, Database, Domain, Schema, Term};
use faure_solver::SolverError;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Outcome of the subsumption test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Subsumption {
    /// Every violation of the target implies a violation of the
    /// candidates: target is subsumed (category-(i) success).
    Subsumed,
    /// The test could not establish subsumption. The contained rule
    /// index is the first uncovered `panic` rule (after unfolding).
    NotShown {
        /// Index (in unfolded order) of the first uncovered rule.
        uncovered_rule: usize,
    },
}

/// Errors of the containment machinery.
#[derive(Debug)]
pub enum ContainmentError {
    /// The target constraint defines a predicate recursively; the
    /// reduction requires non-recursive constraint programs.
    RecursiveConstraint(String),
    /// The target has no `panic` rules.
    NoGoal,
    /// Evaluation of the candidate program failed.
    Eval(EvalError),
    /// A solver failure during the entailment check.
    Solver(SolverError),
}

impl fmt::Display for ContainmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainmentError::RecursiveConstraint(p) => {
                write!(f, "constraint predicate `{p}` is recursive; cannot unfold")
            }
            ContainmentError::NoGoal => write!(f, "target constraint has no `panic` rule"),
            ContainmentError::Eval(e) => write!(f, "{e}"),
            ContainmentError::Solver(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ContainmentError {}

impl From<EvalError> for ContainmentError {
    fn from(e: EvalError) -> Self {
        ContainmentError::Eval(e)
    }
}

impl From<SolverError> for ContainmentError {
    fn from(e: SolverError) -> Self {
        ContainmentError::Solver(e)
    }
}

/// The 0-ary goal predicate of constraint programs.
pub const GOAL: &str = "panic";

/// Tests whether `target ⊆ candidates` (violation of target implies
/// violation of candidates), i.e. whether the candidate constraints
/// **subsume** the target.
///
/// `reg` supplies domains for named c-variables occurring in the
/// programs (e.g. the port domain of `$p`); unknown names are treated
/// as open.
pub fn subsumes(
    candidates: &Program,
    target: &Program,
    reg: &CVarRegistry,
) -> Result<Subsumption, ContainmentError> {
    let unfolded = unfold_goal_rules(target)?;
    if unfolded.is_empty() {
        return Err(ContainmentError::NoGoal);
    }
    for (i, rule) in unfolded.iter().enumerate() {
        if !rule_covered(candidates, rule, reg)? {
            return Ok(Subsumption::NotShown { uncovered_rule: i });
        }
    }
    Ok(Subsumption::Subsumed)
}

/// Step 1+2+3+4 for one unfolded, EDB-level `panic` rule.
fn rule_covered(
    candidates: &Program,
    rule: &Rule,
    reg: &CVarRegistry,
) -> Result<bool, ContainmentError> {
    // Fresh database whose registry contains: all named c-variables of
    // both programs (with their domains from `reg` if registered), plus
    // one fresh c-variable per rule variable.
    let mut db = Database::new();
    let mut names: BTreeSet<&str> = candidates.cvar_names();
    names.extend(rule_cvar_names(rule));
    for name in names {
        let domain = reg
            .by_name(name)
            .map(|id| reg.domain(id).clone())
            .unwrap_or(Domain::Open);
        db.fresh_cvar(name, domain);
    }
    // Rule variables freeze to fresh c-variables. When the registry
    // holds a same-named c-variable (the §5 convention: `x̄, ȳ, p̄` name
    // the subnet/server/port attribute domains), the frozen variable
    // inherits that domain — this is what lets the test conclude, e.g.,
    // `ȳ ≠ GS ⟹ ȳ = CS` over the server domain {CS, GS}.
    let mut var_map: HashMap<&str, Term> = HashMap::new();
    for v in rule.variables() {
        let domain = reg
            .by_name(v)
            .map(|id| reg.domain(id).clone())
            .unwrap_or(Domain::Open);
        let id = db.fresh_cvar(format!("frz_{v}"), domain);
        var_map.insert(v, Term::Var(id));
    }

    // Freeze the positive body into the canonical database.
    let ensure_relation = |db: &mut Database, pred: &str, arity: usize| {
        if db.relation(pred).is_none() {
            let attrs: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
            db.create_relation(Schema {
                name: pred.to_owned(),
                attrs,
            })
            .expect("fresh database");
        }
    };
    for lit in &rule.body {
        let atom = lit.atom();
        ensure_relation(&mut db, &atom.pred, atom.args.len());
        if lit.is_negative() {
            continue; // handled by the adversarial construction below
        }
        let terms: Vec<Term> = atom
            .args
            .iter()
            .map(|a| freeze_arg(a, &db.cvars, &var_map))
            .collect();
        db.insert(&atom.pred, CTuple::new(terms))
            .expect("schema created above");
    }

    // Adversarial rows: every predicate negated in the target rule or
    // anywhere in the candidates gets one generic tuple of fresh
    // c-variables, excluding exactly the tuples the target rule's own
    // negated literals forbid.
    let mut negated: HashMap<&str, usize> = HashMap::new();
    for lit in rule.body.iter().filter(|l| l.is_negative()) {
        negated.insert(lit.atom().pred.as_str(), lit.atom().args.len());
    }
    for cand in &candidates.rules {
        for lit in cand.body.iter().filter(|l| l.is_negative()) {
            negated
                .entry(lit.atom().pred.as_str())
                .or_insert(lit.atom().args.len());
        }
    }
    for (pred, arity) in negated {
        ensure_relation(&mut db, pred, arity);
        let generic: Vec<Term> = (0..arity)
            .map(|i| Term::Var(db.fresh_cvar(format!("adv_{pred}_{i}"), Domain::Open)))
            .collect();
        let mut exclusion = Condition::True;
        for lit in rule
            .body
            .iter()
            .filter(|l| l.is_negative() && l.atom().pred == pred)
        {
            let forbidden: Vec<Term> = lit
                .atom()
                .args
                .iter()
                .map(|a| freeze_arg(a, &db.cvars, &var_map))
                .collect();
            let equal = Condition::all(
                generic
                    .iter()
                    .zip(&forbidden)
                    .map(|(g, u)| Condition::eq(g.clone(), u.clone())),
            );
            exclusion = exclusion.and(equal.negate());
        }
        db.insert(pred, CTuple::with_cond(generic, exclusion))
            .expect("schema created above");
    }

    // The rule's own firing condition: its comparisons.
    let mut rule_cond = Condition::True;
    for cmp in &rule.comparisons {
        rule_cond = rule_cond.and(comparison_to_condition(cmp, &db.cvars, &var_map));
    }
    // If the rule can never fire, it is trivially covered.
    if !faure_solver::satisfiable(&db.cvars, &rule_cond)? {
        return Ok(true);
    }

    // Evaluate the candidates on the canonical database. `Never` prune:
    // we reason about the disjunction of raw panic conditions below.
    // The oracle run is auxiliary — suppress telemetry publication so
    // containment checks don't count as pipeline evaluations.
    let out = without_telemetry(|| {
        evaluate_with(
            candidates,
            &db,
            &EvalOptions {
                prune: PrunePolicy::Never,
                ..Default::default()
            },
        )
    })?;
    let Some(panic_rel) = out.relation(GOAL) else {
        return Ok(false);
    };
    if panic_rel.is_empty() {
        return Ok(false);
    }
    let derived = Condition::any(panic_rel.iter().map(|t| t.cond.clone()));
    Ok(faure_solver::implies(
        &out.database.cvars,
        &rule_cond,
        &derived,
    )?)
}

fn freeze_arg(arg: &ArgTerm, reg: &CVarRegistry, var_map: &HashMap<&str, Term>) -> Term {
    match arg {
        ArgTerm::Cst(c) => Term::Const(c.clone()),
        ArgTerm::CVar(name) => Term::Var(reg.by_name(name).expect("registered above")),
        ArgTerm::Var(v) => var_map[v.as_str()].clone(),
    }
}

fn comparison_to_condition(
    cmp: &Comparison,
    reg: &CVarRegistry,
    var_map: &HashMap<&str, Term>,
) -> Condition {
    let side = |e: &CompExpr| -> faure_ctable::Expr {
        match e {
            CompExpr::Arg(a) => faure_ctable::Expr::Term(freeze_arg(a, reg, var_map)),
            CompExpr::Lin { terms, constant } => {
                let mut lin = faure_ctable::LinExpr::constant(*constant);
                for (coef, name) in terms {
                    lin = lin.plus_var(*coef, reg.by_name(name).expect("registered above"));
                }
                faure_ctable::Expr::Lin(lin)
            }
        }
    };
    Condition::Atom(faure_ctable::Atom {
        lhs: side(&cmp.lhs),
        op: cmp.op,
        rhs: side(&cmp.rhs),
    })
}

fn rule_cvar_names(rule: &Rule) -> BTreeSet<&str> {
    let mut p = Program::new();
    p.rules.push(rule.clone());
    // Collect names via Program, but the borrow must come from `rule`:
    // re-walk directly instead.
    drop(p);
    let mut out = BTreeSet::new();
    for atom in std::iter::once(&rule.head).chain(rule.body.iter().map(Literal::atom)) {
        for a in &atom.args {
            if let ArgTerm::CVar(n) = a {
                out.insert(n.as_str());
            }
        }
    }
    for c in &rule.comparisons {
        for side in [&c.lhs, &c.rhs] {
            match side {
                CompExpr::Arg(ArgTerm::CVar(n)) => {
                    out.insert(n.as_str());
                }
                CompExpr::Lin { terms, .. } => out.extend(terms.iter().map(|(_, n)| n.as_str())),
                _ => {}
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// unfolding
// ---------------------------------------------------------------------------

/// Unfolds the target's `panic` rules down to EDB level, resolving aux
/// predicates (like Listing 3's `Vt`/`Vs`) through their definitions.
pub fn unfold_goal_rules(program: &Program) -> Result<Vec<Rule>, ContainmentError> {
    let idb: BTreeSet<&str> = program.idb_predicates();
    let mut result = Vec::new();
    for rule in program.rules.iter().filter(|r| r.head.pred == GOAL) {
        unfold_rule(rule, program, &idb, 0, &mut result)?;
    }
    Ok(result)
}

fn unfold_rule(
    rule: &Rule,
    program: &Program,
    idb: &BTreeSet<&str>,
    depth: usize,
    out: &mut Vec<Rule>,
) -> Result<(), ContainmentError> {
    if depth > program.rules.len() + 4 {
        // More unfolding steps than rules: a cycle.
        return Err(ContainmentError::RecursiveConstraint(
            rule.head.pred.clone(),
        ));
    }
    // Find the first positive IDB literal (other than the goal itself).
    let target_pos = rule.body.iter().position(|l| {
        !l.is_negative() && idb.contains(l.atom().pred.as_str()) && l.atom().pred != GOAL
    });
    let Some(pos) = target_pos else {
        // Negative IDB literals cannot be unfolded soundly; reject.
        if let Some(neg) = rule
            .body
            .iter()
            .find(|l| l.is_negative() && idb.contains(l.atom().pred.as_str()))
        {
            return Err(ContainmentError::RecursiveConstraint(
                neg.atom().pred.clone(),
            ));
        }
        out.push(rule.clone());
        return Ok(());
    };
    let call = rule.body[pos].atom().clone();
    for (def_idx, def) in program
        .rules
        .iter()
        .enumerate()
        .filter(|(_, r)| r.head.pred == call.pred)
    {
        if let Some(unfolded) = resolve_call(rule, pos, &call, def, def_idx) {
            unfold_rule(&unfolded, program, idb, depth + 1, out)?;
        }
    }
    Ok(())
}

/// Resolves `call` (at body position `pos` of `rule`) against the
/// definition `def`, producing the unfolded rule, or `None` if the
/// unification fails on incompatible constants.
fn resolve_call(
    rule: &Rule,
    pos: usize,
    call: &RuleAtom,
    def: &Rule,
    def_idx: usize,
) -> Option<Rule> {
    // Rename def's variables apart.
    let rename = |v: &str| format!("u{def_idx}_{v}");
    let rn_arg = |a: &ArgTerm| match a {
        ArgTerm::Var(v) => ArgTerm::Var(rename(v)),
        other => other.clone(),
    };

    // Unify call args with def head args, building a substitution on
    // rule variables (both sides) and extra equality comparisons for
    // symbol-vs-symbol pairs.
    let mut subst: HashMap<String, ArgTerm> = HashMap::new();
    let mut extra_cmps: Vec<Comparison> = Vec::new();

    fn walk(a: &ArgTerm, subst: &HashMap<String, ArgTerm>) -> ArgTerm {
        let mut cur = a.clone();
        let mut guard = 0;
        while let ArgTerm::Var(v) = &cur {
            match subst.get(v) {
                Some(next) if next != &cur => {
                    cur = next.clone();
                }
                _ => break,
            }
            guard += 1;
            if guard > 64 {
                break;
            }
        }
        cur
    }

    for (ca, da_raw) in call.args.iter().zip(&def.head.args) {
        let da = rn_arg(da_raw);
        let ca = walk(ca, &subst);
        let da = walk(&da, &subst);
        match (&ca, &da) {
            (ArgTerm::Var(v), other) => {
                if ArgTerm::Var(v.clone()) != *other {
                    subst.insert(v.clone(), other.clone());
                }
            }
            (other, ArgTerm::Var(v)) => {
                subst.insert(v.clone(), other.clone());
            }
            (ArgTerm::Cst(a), ArgTerm::Cst(b)) => {
                if a != b {
                    return None;
                }
            }
            // C-variable vs constant / other c-variable: semantically an
            // equality condition ("unknown constant equals …").
            (l, r) => {
                if l != r {
                    extra_cmps.push(Comparison {
                        lhs: CompExpr::Arg(l.clone()),
                        op: CmpOp::Eq,
                        rhs: CompExpr::Arg(r.clone()),
                    });
                }
            }
        }
    }

    let apply_arg = |a: &ArgTerm| walk(a, &subst);
    let apply_atom = |at: &RuleAtom| RuleAtom {
        pred: at.pred.clone(),
        args: at.args.iter().map(apply_arg).collect(),
    };
    let apply_cmp = |c: &Comparison| Comparison {
        lhs: match &c.lhs {
            CompExpr::Arg(a) => CompExpr::Arg(apply_arg(a)),
            lin => lin.clone(),
        },
        op: c.op,
        rhs: match &c.rhs {
            CompExpr::Arg(a) => CompExpr::Arg(apply_arg(a)),
            lin => lin.clone(),
        },
    };

    let mut body = Vec::new();
    for (i, lit) in rule.body.iter().enumerate() {
        if i == pos {
            // Splice in def's (renamed, substituted) body.
            for dl in &def.body {
                let at = {
                    let renamed = RuleAtom {
                        pred: dl.atom().pred.clone(),
                        args: dl.atom().args.iter().map(&rn_arg).collect(),
                    };
                    apply_atom(&renamed)
                };
                body.push(match dl {
                    Literal::Pos(_) => Literal::Pos(at),
                    Literal::Neg(_) => Literal::Neg(at),
                });
            }
        } else {
            let at = apply_atom(lit.atom());
            body.push(match lit {
                Literal::Pos(_) => Literal::Pos(at),
                Literal::Neg(_) => Literal::Neg(at),
            });
        }
    }
    let mut comparisons: Vec<Comparison> = rule.comparisons.iter().map(&apply_cmp).collect();
    for dc in &def.comparisons {
        let renamed = Comparison {
            lhs: match &dc.lhs {
                CompExpr::Arg(a) => CompExpr::Arg(rn_arg(a)),
                lin => lin.clone(),
            },
            op: dc.op,
            rhs: match &dc.rhs {
                CompExpr::Arg(a) => CompExpr::Arg(rn_arg(a)),
                lin => lin.clone(),
            },
        };
        comparisons.push(apply_cmp(&renamed));
    }
    comparisons.extend(extra_cmps.iter().map(&apply_cmp));

    Some(Rule {
        head: apply_atom(&rule.head),
        body,
        comparisons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use faure_ctable::Const;

    /// The paper's §5 example: {C_lb, C_s} subsumes T1 (q9 ⊆ q17) but
    /// does not subsume T2.
    fn registry() -> CVarRegistry {
        let mut reg = CVarRegistry::new();
        reg.fresh(
            "x",
            Domain::Consts(vec![
                Const::sym("Mkt"),
                Const::sym("R&D"),
                Const::sym("Other"),
            ]),
        );
        reg.fresh(
            "y",
            Domain::Consts(vec![Const::sym("CS"), Const::sym("GS")]),
        );
        reg.fresh("p", Domain::Ints(vec![80, 344, 7000]));
        reg
    }

    fn t1() -> Program {
        parse_program("panic :- R(Mkt, CS, p), !Fw(Mkt, CS).\n").unwrap()
    }

    fn t2() -> Program {
        parse_program("panic :- R(\"R&D\", y, 7000), !Lb(\"R&D\", y).\n").unwrap()
    }

    fn c_s() -> Program {
        parse_program(
            "panic :- Vs(x, y, p).\n\
             Vs(x, y, p) :- R(x, y, p), !Fw(x, y).\n\
             Vs(x, y, p) :- R(x, y, p), p != 80, p != 344, p != 7000.\n",
        )
        .unwrap()
    }

    fn c_lb() -> Program {
        parse_program(
            "panic :- Vt(x, y, p).\n\
             Vt(x, CS, p) :- R(x, CS, p), x != Mkt, x != \"R&D\".\n\
             Vt(x, CS, p) :- R(x, CS, p), !Lb(x, CS).\n\
             Vt(x, CS, p) :- R(x, CS, p), p != 7000.\n",
        )
        .unwrap()
    }

    #[test]
    fn unfold_resolves_aux_predicates() {
        let rules = unfold_goal_rules(&c_s()).unwrap();
        assert_eq!(rules.len(), 2);
        for r in &rules {
            assert_eq!(r.head.pred, GOAL);
            for lit in &r.body {
                assert_eq!(
                    lit.atom().pred.chars().next().unwrap(),
                    lit.atom().pred.chars().next().unwrap()
                );
                assert!(["R", "Fw"].contains(&lit.atom().pred.as_str()));
            }
        }
    }

    #[test]
    fn cs_subsumes_t1() {
        let mut candidates = c_s();
        candidates.extend(c_lb());
        let verdict = subsumes(&candidates, &t1(), &registry()).unwrap();
        assert_eq!(verdict, Subsumption::Subsumed);
    }

    #[test]
    fn candidates_do_not_subsume_t2() {
        let mut candidates = c_s();
        candidates.extend(c_lb());
        let verdict = subsumes(&candidates, &t2(), &registry()).unwrap();
        assert!(matches!(verdict, Subsumption::NotShown { .. }));
    }

    #[test]
    fn self_subsumption() {
        let t = t1();
        assert_eq!(
            subsumes(&t, &t, &registry()).unwrap(),
            Subsumption::Subsumed
        );
    }

    #[test]
    fn recursion_rejected() {
        let rec = parse_program(
            "panic :- V(x).\n\
             V(x) :- V(x).\n",
        )
        .unwrap();
        assert!(matches!(
            subsumes(&t1(), &rec, &registry()),
            Err(ContainmentError::RecursiveConstraint(_))
        ));
    }

    #[test]
    fn no_goal_rejected() {
        let none = parse_program("V(x) :- R(x).\n").unwrap();
        assert!(matches!(
            subsumes(&t1(), &none, &registry()),
            Err(ContainmentError::NoGoal)
        ));
    }

    #[test]
    fn trivially_unsatisfiable_rule_is_covered() {
        // panic :- R($p), $p = 80, $p != 80 can never fire.
        let target = parse_program("panic :- R($p), $p = 80, $p != 80.\n").unwrap();
        let candidate = parse_program("panic :- Impossible(x).\n").unwrap();
        assert_eq!(
            subsumes(&candidate, &target, &registry()).unwrap(),
            Subsumption::Subsumed
        );
    }
}
