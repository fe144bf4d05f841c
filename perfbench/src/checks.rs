//! Output checks. They run after the measured calls, outside every
//! timed region, and compare the engine's c-tables against the
//! independent ground evaluator in `faure_core::reference` (in sampled
//! or all possible worlds) or against a fresh evaluation (rows plus
//! canonicalized conditions).

use faure_core::engine::canonicalize;
use faure_core::reference::evaluate_ground;
use faure_core::Program;
use faure_ctable::worlds::{instantiate, WorldIter};
use faure_ctable::{
    Assignment, Atom, CVarRegistry, CmpOp, Condition, Const, Database, GroundTuple, Relation,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One output check and its verdict.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Sizes compared, or the first difference found.
    pub detail: String,
}

impl Check {
    fn new(name: &str, result: Result<String, String>) -> Self {
        match result {
            Ok(detail) => Check {
                name: name.to_owned(),
                ok: true,
                detail,
            },
            Err(detail) => Check {
                name: name.to_owned(),
                ok: false,
                detail,
            },
        }
    }
}

/// Checks `holds`, describing it by `detail`.
pub fn invariant(name: &str, holds: bool, detail: String) -> Check {
    Check::new(name, if holds { Ok(detail) } else { Err(detail) })
}

/// Reorients symmetric comparisons into one operand order, so that
/// `x̄ = 1` and `1 = x̄` compare equal after canonicalization.
fn orient(c: Condition) -> Condition {
    match c {
        Condition::Atom(a)
            if matches!(a.op, CmpOp::Eq | CmpOp::Ne)
                && format!("{:?}", a.lhs) > format!("{:?}", a.rhs) =>
        {
            Condition::Atom(Atom {
                lhs: a.rhs,
                op: a.op,
                rhs: a.lhs,
            })
        }
        Condition::Not(inner) => Condition::Not(Arc::new(orient((*inner).clone()))),
        Condition::And(cs) => Condition::And(Arc::new(cs.iter().cloned().map(orient).collect())),
        Condition::Or(cs) => Condition::Or(Arc::new(cs.iter().cloned().map(orient).collect())),
        other => other,
    }
}

/// Order-independent snapshot of a relation: terms plus canonicalized
/// condition per row.
fn snapshot(rel: &Relation) -> BTreeSet<String> {
    rel.iter()
        .map(|t| {
            format!(
                "{:?} | {:?}",
                t.terms,
                canonicalize(orient(canonicalize(t.cond.clone())))
            )
        })
        .collect()
}

/// `got` and `want` hold the same rows with the same canonicalized
/// conditions.
pub fn same_rows(name: &str, got: &Relation, want: &Relation) -> Check {
    let (g, w) = (snapshot(got), snapshot(want));
    let result = if g == w {
        Ok(format!("{} rows identical", g.len()))
    } else {
        let first = g
            .symmetric_difference(&w)
            .next()
            .cloned()
            .unwrap_or_default();
        Err(format!(
            "{} vs {} rows; first difference: {first}",
            g.len(),
            w.len()
        ))
    };
    Check::new(name, result)
}

/// A uniformly drawn value for every c-variable of `reg`.
pub fn random_assignment(reg: &CVarRegistry, rng: &mut StdRng) -> Result<Assignment, String> {
    let mut a = Assignment::new();
    for (id, info) in reg.iter() {
        let members = reg
            .domain(id)
            .members()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| format!("c-variable {} has no finite domain", info.name))?;
        a.set(id, members[rng.gen_range(0..members.len())].clone());
    }
    Ok(a)
}

/// `db` with only the rows of `rel` whose first column is in `keep`.
pub fn restrict(db: &Database, rel: &str, keep: &BTreeSet<i64>) -> Database {
    let mut out = Database::new();
    out.cvars = db.cvars.clone();
    if let Some(r) = db.relation(rel) {
        let mut kept = Relation::empty(r.schema.clone());
        for t in r.iter().filter(|t| in_keep(&t.terms[0], Some(keep))) {
            kept.push(t.clone()).expect("same schema");
        }
        out.set_relation(kept);
    }
    out
}

fn in_keep(term: &faure_ctable::Term, keep: Option<&BTreeSet<i64>>) -> bool {
    match keep {
        None => true,
        Some(k) => term
            .as_const()
            .and_then(Const::as_int)
            .is_some_and(|v| k.contains(&v)),
    }
}

/// The rows of `rel` present in the world `a` (restricted to `keep`).
fn instantiate_rows(
    rel: &Relation,
    a: &Assignment,
    keep: Option<&BTreeSet<i64>>,
) -> Result<BTreeSet<GroundTuple>, String> {
    let lookup = a.lookup();
    let mut out = BTreeSet::new();
    for t in rel.iter().filter(|t| in_keep(&t.terms[0], keep)) {
        match t.cond.eval(&lookup) {
            Some(true) => {
                let row: Option<GroundTuple> = t
                    .terms
                    .iter()
                    .map(|term| term.instantiate(&lookup))
                    .collect();
                out.insert(row.ok_or("a derived cell has no value in the world")?);
            }
            Some(false) => {}
            None => return Err("a derived condition cannot be evaluated in the world".into()),
        }
    }
    Ok(out)
}

/// In the world `a` of `edb`, the reference evaluation of `program`
/// equals each derived relation of the engine instantiated in `a`
/// (rows restricted to `keep`; `edb` is expected to be restricted the
/// same way). Returns the number of ground rows compared.
pub fn agree_in_world(
    program: &Program,
    edb: &Database,
    a: &Assignment,
    derived: &[(&str, &Relation)],
    keep: Option<&BTreeSet<i64>>,
) -> Result<usize, String> {
    let world = instantiate(edb, a).map_err(|e| e.to_string())?;
    let expected: BTreeMap<String, BTreeSet<GroundTuple>> =
        evaluate_ground(program, &edb.cvars, &world).map_err(|e| e.to_string())?;
    let mut compared = 0;
    for (pred, rel) in derived {
        let got = instantiate_rows(rel, a, keep)?;
        let want = expected.get(*pred).cloned().unwrap_or_default();
        if got != want {
            let diff = got.symmetric_difference(&want).next().cloned();
            return Err(format!(
                "{pred}: engine {} rows, reference {} rows; first difference {diff:?}",
                got.len(),
                want.len()
            ));
        }
        compared += got.len();
    }
    Ok(compared)
}

/// Compares the engine against the reference in `worlds` sampled
/// worlds over the rows of `sample` (first-column values).
#[allow(clippy::too_many_arguments)]
pub fn sampled_worlds(
    name: &str,
    program: &Program,
    edb: &Database,
    edb_rel: &str,
    derived: &[(&str, &Relation)],
    sample: &BTreeSet<i64>,
    worlds: usize,
    rng: &mut StdRng,
) -> Check {
    let sub = restrict(edb, edb_rel, sample);
    let mut result = Ok(0usize);
    for _ in 0..worlds {
        result = result.and_then(|n| {
            let a = random_assignment(&edb.cvars, rng)?;
            Ok(n + agree_in_world(program, &sub, &a, derived, Some(sample))?)
        });
    }
    Check::new(
        name,
        result.map(|n| {
            format!(
                "{worlds} worlds x {} keys: {n} ground rows agree",
                sample.len()
            )
        }),
    )
}

/// Compares the engine against the reference in every possible world
/// of `edb`.
pub fn all_worlds(
    name: &str,
    program: &Program,
    edb: &Database,
    derived: &[(&str, &Relation)],
) -> Check {
    let result = WorldIter::new(edb, None)
        .map_err(|e| e.to_string())
        .and_then(|worlds| {
            let mut count = 0usize;
            let mut rows = 0usize;
            for world in worlds {
                rows += agree_in_world(program, edb, &world.assignment, derived, None)?;
                count += 1;
            }
            Ok(format!("{count} worlds: {rows} ground rows agree"))
        });
    Check::new(name, result)
}
