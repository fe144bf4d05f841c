//! The condition language attached to c-table rows.
//!
//! A condition is a boolean combination of *atoms*. Following the
//! paper's examples, two kinds of atoms are needed:
//!
//! * **term comparisons** — `x̄ = [ABC]`, `ȳ ≠ 1.2.3.4`, `p̄ ≠ 7000`:
//!   (dis)equalities and orderings between elements of the c-domain;
//! * **linear constraints** — `x̄ + ȳ + z̄ = 1`, `ȳ + z̄ < 2`: integer
//!   linear expressions over c-variables compared to each other or to
//!   constants.
//!
//! Both are represented by [`Atom`] with [`Expr`] sides. Conditions are
//! built structurally during query evaluation (conjunction of body
//! conditions, plus pattern-matching equalities) and later simplified /
//! pruned by the `faure-solver` crate.

use crate::cvar::{CVarId, CVarRegistry};
use crate::value::Const;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::term::Term;

/// Comparison operators usable in atoms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CmpOp {
    /// Equality `=`.
    Eq,
    /// Disequality `!=`.
    Ne,
    /// Strictly less `<` (numeric sides only).
    Lt,
    /// Less-or-equal `<=` (numeric sides only).
    Le,
    /// Strictly greater `>` (numeric sides only).
    Gt,
    /// Greater-or-equal `>=` (numeric sides only).
    Ge,
}

impl CmpOp {
    /// The operator expressing the negation of `self`.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The operator with swapped sides (`a op b` iff `b op.flip() a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Applies the operator to an [`Ordering`] between two values.
    pub fn eval(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// An integer linear expression `Σ coefᵢ · x̄ᵢ + constant`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LinExpr {
    /// Coefficient / c-variable pairs, kept sorted by variable id with
    /// no duplicates and no zero coefficients (normalised on build).
    pub terms: Vec<(i64, CVarId)>,
    /// Additive constant.
    pub constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: 0,
        }
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The expression consisting of a single c-variable.
    pub fn var(v: CVarId) -> Self {
        LinExpr {
            terms: vec![(1, v)],
            constant: 0,
        }
    }

    /// Sum of c-variables, e.g. `x̄ + ȳ + z̄`.
    pub fn sum<I: IntoIterator<Item = CVarId>>(vars: I) -> Self {
        let mut e = LinExpr::zero();
        for v in vars {
            e = e.plus_var(1, v);
        }
        e
    }

    /// Adds `coef · v` to the expression (normalising).
    pub fn plus_var(mut self, coef: i64, v: CVarId) -> Self {
        match self.terms.binary_search_by_key(&v, |&(_, var)| var) {
            Ok(i) => {
                self.terms[i].0 += coef;
                if self.terms[i].0 == 0 {
                    self.terms.remove(i);
                }
            }
            Err(i) => {
                if coef != 0 {
                    self.terms.insert(i, (coef, v));
                }
            }
        }
        self
    }

    /// Adds a constant.
    pub fn plus_const(mut self, c: i64) -> Self {
        self.constant += c;
        self
    }

    /// `self - other`.
    pub fn minus(mut self, other: &LinExpr) -> Self {
        for &(coef, v) in &other.terms {
            self = self.plus_var(-coef, v);
        }
        self.constant -= other.constant;
        self
    }

    /// Whether the expression mentions no c-variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates the expression under an assignment. Returns `None` if
    /// some c-variable is unbound or maps to a non-integer constant.
    pub fn eval(&self, lookup: &impl Fn(CVarId) -> Option<Const>) -> Option<i64> {
        let mut acc = self.constant;
        for &(coef, v) in &self.terms {
            acc += coef * lookup(v)?.as_int()?;
        }
        Some(acc)
    }

    /// All c-variables mentioned.
    pub fn cvars(&self, out: &mut BTreeSet<CVarId>) {
        out.extend(self.terms.iter().map(|&(_, v)| v));
    }
}

/// One side of an atom.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Expr {
    /// A c-domain term (constant or c-variable).
    Term(Term),
    /// An integer linear expression over c-variables.
    Lin(LinExpr),
}

impl Expr {
    /// All c-variables mentioned.
    pub fn cvars(&self, out: &mut BTreeSet<CVarId>) {
        match self {
            Expr::Term(Term::Var(v)) => {
                out.insert(*v);
            }
            Expr::Term(Term::Const(_)) => {}
            Expr::Lin(l) => l.cvars(out),
        }
    }

    /// Evaluates under an assignment; yields a constant.
    ///
    /// Linear expressions evaluate to `Const::Int`; returns `None` if
    /// a referenced c-variable is unbound or a linear expression
    /// references a non-integer-valued c-variable.
    pub fn eval(&self, lookup: &impl Fn(CVarId) -> Option<Const>) -> Option<Const> {
        match self {
            Expr::Term(t) => t.instantiate(lookup),
            Expr::Lin(l) => l.eval(lookup).map(Const::Int),
        }
    }
}

impl From<Term> for Expr {
    fn from(t: Term) -> Self {
        Expr::Term(t)
    }
}

impl From<LinExpr> for Expr {
    fn from(l: LinExpr) -> Self {
        Expr::Lin(l)
    }
}

impl From<Const> for Expr {
    fn from(c: Const) -> Self {
        Expr::Term(Term::Const(c))
    }
}

/// An atomic comparison `lhs op rhs`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Atom {
    /// Left side.
    pub lhs: Expr,
    /// Operator.
    pub op: CmpOp,
    /// Right side.
    pub rhs: Expr,
}

impl Atom {
    /// Builds an atom.
    pub fn new(lhs: impl Into<Expr>, op: CmpOp, rhs: impl Into<Expr>) -> Self {
        Atom {
            lhs: lhs.into(),
            op,
            rhs: rhs.into(),
        }
    }

    /// Evaluates the atom under an assignment.
    ///
    /// Ordering comparisons (`<`, `<=`, `>`, `>=`) between non-integer
    /// constants use the total structural order on [`Const`]; equality
    /// comparisons are structural. Returns `None` when a referenced
    /// c-variable is unbound or a linear side references a non-integer
    /// constant (a modelling error).
    pub fn eval(&self, lookup: &impl Fn(CVarId) -> Option<Const>) -> Option<bool> {
        let l = self.lhs.eval(lookup)?;
        let r = self.rhs.eval(lookup)?;
        Some(self.op.eval(l.cmp(&r)))
    }

    /// All c-variables mentioned.
    pub fn cvars(&self, out: &mut BTreeSet<CVarId>) {
        self.lhs.cvars(out);
        self.rhs.cvars(out);
    }

    /// Canonical orientation: symmetric operators (`=`, `!=`) put the
    /// smaller side left; `>` / `>=` rewrite to `<` / `<=` with swapped
    /// sides. Logically equivalent atoms built in different orders then
    /// compare equal, which matters for structural deduplication.
    pub fn normalized(self) -> Atom {
        match self.op {
            CmpOp::Eq | CmpOp::Ne => {
                if self.rhs < self.lhs {
                    Atom {
                        lhs: self.rhs,
                        op: self.op,
                        rhs: self.lhs,
                    }
                } else {
                    self
                }
            }
            CmpOp::Gt | CmpOp::Ge => Atom {
                lhs: self.rhs,
                op: self.op.flipped(),
                rhs: self.lhs,
            },
            CmpOp::Lt | CmpOp::Le => self,
        }
    }
}

/// A row condition: a boolean formula over [`Atom`]s.
///
/// `True` is the *empty condition* of the paper (the row is present in
/// every world); `False` marks a contradictory row (pruned by the
/// solver phase).
///
/// Composite nodes (`Not` / `And` / `Or`) hold their children behind
/// [`Arc`], so cloning a condition is O(1) regardless of its size and
/// subtrees are **shared** between the conditions derived from them.
/// This matters in the join inner loop: conjoining a body row's
/// condition into a derived row's condition bumps a reference count
/// instead of deep-copying the tree. Equality, hashing, and ordering
/// all remain structural (they see through the `Arc`).
///
/// The derived [`Ord`] is a total *structural* order; it has no
/// semantic meaning but gives canonicalisation a collision-free sort
/// key (see `faure_core::engine::canonicalize`).
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Condition {
    /// Always true (empty condition).
    True,
    /// Always false (contradiction).
    False,
    /// An atomic comparison.
    Atom(Atom),
    /// Negation.
    Not(Arc<Condition>),
    /// Conjunction (empty = true).
    And(Arc<Vec<Condition>>),
    /// Disjunction (empty = false).
    Or(Arc<Vec<Condition>>),
}

impl Condition {
    /// Raw conjunction node over `children` (no flattening or
    /// constant folding; use [`Condition::and`] / [`Condition::all`]
    /// for the smart constructors).
    pub fn conj(children: Vec<Condition>) -> Condition {
        Condition::And(Arc::new(children))
    }

    /// Raw disjunction node over `children` (no flattening or
    /// constant folding; use [`Condition::or`] / [`Condition::any`]
    /// for the smart constructors).
    pub fn disj(children: Vec<Condition>) -> Condition {
        Condition::Or(Arc::new(children))
    }

    /// Takes ownership of a shared child vector, cloning the vector
    /// only when other references to it exist (and then only
    /// shallowly — the children themselves are `Arc`-cheap).
    pub fn take_children(cs: Arc<Vec<Condition>>) -> Vec<Condition> {
        Arc::try_unwrap(cs).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Takes ownership of a shared `Not` child.
    pub fn take_inner(c: Arc<Condition>) -> Condition {
        Arc::try_unwrap(c).unwrap_or_else(|shared| (*shared).clone())
    }
    /// Shorthand for an equality atom between two terms.
    pub fn eq(lhs: impl Into<Expr>, rhs: impl Into<Expr>) -> Self {
        Condition::Atom(Atom::new(lhs, CmpOp::Eq, rhs))
    }

    /// Shorthand for a disequality atom between two terms.
    pub fn ne(lhs: impl Into<Expr>, rhs: impl Into<Expr>) -> Self {
        Condition::Atom(Atom::new(lhs, CmpOp::Ne, rhs))
    }

    /// Shorthand for a general comparison atom.
    pub fn cmp(lhs: impl Into<Expr>, op: CmpOp, rhs: impl Into<Expr>) -> Self {
        Condition::Atom(Atom::new(lhs, op, rhs))
    }

    /// Conjunction that flattens nested `And`s and short-circuits on
    /// constants (`True` disappears, `False` dominates).
    pub fn and(self, other: Condition) -> Condition {
        match (self, other) {
            (Condition::False, _) | (_, Condition::False) => Condition::False,
            (Condition::True, c) | (c, Condition::True) => c,
            (Condition::And(mut a), Condition::And(b)) => {
                Arc::make_mut(&mut a).extend(Condition::take_children(b));
                Condition::And(a)
            }
            (Condition::And(mut a), c) => {
                Arc::make_mut(&mut a).push(c);
                Condition::And(a)
            }
            (c, Condition::And(mut b)) => {
                Arc::make_mut(&mut b).insert(0, c);
                Condition::And(b)
            }
            (a, b) => Condition::conj(vec![a, b]),
        }
    }

    /// Disjunction that flattens nested `Or`s and short-circuits on
    /// constants.
    pub fn or(self, other: Condition) -> Condition {
        match (self, other) {
            (Condition::True, _) | (_, Condition::True) => Condition::True,
            (Condition::False, c) | (c, Condition::False) => c,
            (Condition::Or(mut a), Condition::Or(b)) => {
                Arc::make_mut(&mut a).extend(Condition::take_children(b));
                Condition::Or(a)
            }
            (Condition::Or(mut a), c) => {
                Arc::make_mut(&mut a).push(c);
                Condition::Or(a)
            }
            (c, Condition::Or(mut b)) => {
                Arc::make_mut(&mut b).insert(0, c);
                Condition::Or(b)
            }
            (a, b) => Condition::disj(vec![a, b]),
        }
    }

    /// Logical negation with constant folding and double-negation
    /// elimination (not full NNF; the solver does that).
    pub fn negate(self) -> Condition {
        match self {
            Condition::True => Condition::False,
            Condition::False => Condition::True,
            Condition::Not(inner) => Condition::take_inner(inner),
            Condition::Atom(a) => Condition::Atom(Atom {
                lhs: a.lhs,
                op: a.op.negated(),
                rhs: a.rhs,
            }),
            other => Condition::Not(Arc::new(other)),
        }
    }

    /// Conjunction of an iterator of conditions.
    pub fn all<I: IntoIterator<Item = Condition>>(conds: I) -> Condition {
        conds.into_iter().fold(Condition::True, |acc, c| acc.and(c))
    }

    /// Disjunction of an iterator of conditions.
    pub fn any<I: IntoIterator<Item = Condition>>(conds: I) -> Condition {
        conds.into_iter().fold(Condition::False, |acc, c| acc.or(c))
    }

    /// Evaluates the condition under an assignment of the c-variables
    /// it mentions. Returns `None` when a referenced c-variable is
    /// unbound or a linear atom references a non-integer constant.
    pub fn eval(&self, lookup: &impl Fn(CVarId) -> Option<Const>) -> Option<bool> {
        match self {
            Condition::True => Some(true),
            Condition::False => Some(false),
            Condition::Atom(a) => a.eval(lookup),
            Condition::Not(c) => c.eval(lookup).map(|b| !b),
            Condition::And(cs) => {
                for c in cs.iter() {
                    if !c.eval(lookup)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            Condition::Or(cs) => {
                for c in cs.iter() {
                    if c.eval(lookup)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
        }
    }

    /// Collects all c-variables mentioned anywhere in the condition.
    pub fn cvars(&self) -> BTreeSet<CVarId> {
        let mut out = BTreeSet::new();
        self.collect_cvars(&mut out);
        out
    }

    /// Appends mentioned c-variables into `out`.
    pub fn collect_cvars(&self, out: &mut BTreeSet<CVarId>) {
        match self {
            Condition::True | Condition::False => {}
            Condition::Atom(a) => a.cvars(out),
            Condition::Not(c) => c.collect_cvars(out),
            Condition::And(cs) | Condition::Or(cs) => {
                for c in cs.iter() {
                    c.collect_cvars(out);
                }
            }
        }
    }

    /// Structural size (number of atoms and connectives); used to keep
    /// simplification monotone and in tests.
    pub fn size(&self) -> usize {
        match self {
            Condition::True | Condition::False => 1,
            Condition::Atom(_) => 1,
            Condition::Not(c) => 1 + c.size(),
            Condition::And(cs) | Condition::Or(cs) => {
                1 + cs.iter().map(Condition::size).sum::<usize>()
            }
        }
    }

    /// Renders with names from `reg`.
    pub fn display<'a>(&'a self, reg: &'a CVarRegistry) -> CondDisplay<'a> {
        CondDisplay { cond: self, reg }
    }
}

/// Helper returned by [`Condition::display`].
pub struct CondDisplay<'a> {
    cond: &'a Condition,
    reg: &'a CVarRegistry,
}

impl CondDisplay<'_> {
    fn fmt_expr(&self, e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match e {
            Expr::Term(t) => write!(f, "{}", t.display(self.reg)),
            Expr::Lin(l) => {
                let mut first = true;
                for &(coef, v) in &l.terms {
                    if first {
                        if coef == 1 {
                            write!(f, "{}'", self.reg.name(v))?;
                        } else {
                            write!(f, "{}*{}'", coef, self.reg.name(v))?;
                        }
                        first = false;
                    } else if coef == 1 {
                        write!(f, " + {}'", self.reg.name(v))?;
                    } else {
                        write!(f, " + {}*{}'", coef, self.reg.name(v))?;
                    }
                }
                if l.constant != 0 || first {
                    if first {
                        write!(f, "{}", l.constant)?;
                    } else {
                        write!(f, " + {}", l.constant)?;
                    }
                }
                Ok(())
            }
        }
    }

    fn fmt_cond(&self, c: &Condition, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match c {
            Condition::True => f.write_str("true"),
            Condition::False => f.write_str("false"),
            Condition::Atom(a) => {
                self.fmt_expr(&a.lhs, f)?;
                write!(f, " {} ", a.op)?;
                self.fmt_expr(&a.rhs, f)
            }
            Condition::Not(inner) => {
                f.write_str("!(")?;
                self.fmt_cond(inner, f)?;
                f.write_str(")")
            }
            Condition::And(cs) => {
                f.write_str("(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" & ")?;
                    }
                    self.fmt_cond(c, f)?;
                }
                f.write_str(")")
            }
            Condition::Or(cs) => {
                f.write_str("(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" | ")?;
                    }
                    self.fmt_cond(c, f)?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for CondDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_cond(self.cond, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cvar::Domain;

    fn reg3() -> (CVarRegistry, CVarId, CVarId, CVarId) {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let y = reg.fresh("y", Domain::Bool01);
        let z = reg.fresh("z", Domain::Bool01);
        (reg, x, y, z)
    }

    #[test]
    fn linexpr_normalises() {
        let (_, x, y, _) = reg3();
        let e = LinExpr::zero()
            .plus_var(1, x)
            .plus_var(2, y)
            .plus_var(-1, x)
            .plus_const(5);
        assert_eq!(e.terms, vec![(2, y)]);
        assert_eq!(e.constant, 5);
        assert!(!e.is_constant());
        assert!(LinExpr::constant(3).is_constant());
    }

    #[test]
    fn linexpr_eval() {
        let (_, x, y, z) = reg3();
        let e = LinExpr::sum([x, y, z]);
        let lookup = |v: CVarId| Some(Const::Int(if v == x { 0 } else { 1 }));
        assert_eq!(e.eval(&lookup), Some(2));
        let bad = |_: CVarId| Some(Const::sym("oops"));
        assert_eq!(e.eval(&bad), None);
    }

    #[test]
    fn atom_eval_orders_and_equalities() {
        let (_, x, _, _) = reg3();
        let lookup = |_: CVarId| Some(Const::Int(1));
        // x̄ = 1 under x̄ := 1
        assert_eq!(
            Atom::new(Term::Var(x), CmpOp::Eq, Term::int(1)).eval(&lookup),
            Some(true)
        );
        // x̄ < 1 is false
        assert_eq!(
            Atom::new(Term::Var(x), CmpOp::Lt, Term::int(1)).eval(&lookup),
            Some(false)
        );
        // symbolic comparison
        let sym_lookup = |_: CVarId| Some(Const::sym("ADEC"));
        assert_eq!(
            Atom::new(Term::Var(x), CmpOp::Ne, Term::sym("ABC")).eval(&sym_lookup),
            Some(true)
        );
    }

    #[test]
    fn and_or_short_circuit() {
        let t = Condition::True;
        let f = Condition::False;
        assert_eq!(t.clone().and(f.clone()), Condition::False);
        assert_eq!(t.clone().or(f.clone()), Condition::True);
        let (_, x, _, _) = reg3();
        let a = Condition::eq(Term::Var(x), Term::int(1));
        assert_eq!(a.clone().and(Condition::True), a);
        assert_eq!(a.clone().or(Condition::False), a);
    }

    #[test]
    fn and_flattens() {
        let (_, x, y, z) = reg3();
        let a = Condition::eq(Term::Var(x), Term::int(1));
        let b = Condition::eq(Term::Var(y), Term::int(1));
        let c = Condition::eq(Term::Var(z), Term::int(1));
        let all = a.clone().and(b.clone()).and(c.clone());
        assert_eq!(all, Condition::conj(vec![a, b, c]));
    }

    #[test]
    fn negate_atoms_directly() {
        let (_, x, _, _) = reg3();
        let a = Condition::eq(Term::Var(x), Term::int(1));
        assert_eq!(a.negate(), Condition::ne(Term::Var(x), Term::int(1)));
        assert_eq!(Condition::True.negate(), Condition::False);
    }

    #[test]
    fn double_negation_cancels() {
        let (_, x, y, _) = reg3();
        let inner =
            Condition::eq(Term::Var(x), Term::int(0)).or(Condition::eq(Term::Var(y), Term::int(0)));
        assert_eq!(inner.clone().negate().negate(), inner);
    }

    #[test]
    fn eval_nested() {
        let (_, x, y, z) = reg3();
        // (x̄+ȳ+z̄ = 1) ∧ ȳ = 0, under x̄=1, ȳ=0, z̄=0
        let c = Condition::cmp(LinExpr::sum([x, y, z]), CmpOp::Eq, LinExpr::constant(1))
            .and(Condition::eq(Term::Var(y), Term::int(0)));
        let lookup = |v: CVarId| Some(Const::Int(if v == x { 1 } else { 0 }));
        assert_eq!(c.eval(&lookup), Some(true));
        let lookup2 = |_: CVarId| Some(Const::Int(1));
        assert_eq!(c.eval(&lookup2), Some(false));
    }

    #[test]
    fn cvars_collects_all() {
        let (_, x, y, z) = reg3();
        let c = Condition::cmp(LinExpr::sum([x, y]), CmpOp::Lt, LinExpr::constant(2))
            .and(Condition::ne(Term::Var(z), Term::sym("Mkt")));
        assert_eq!(c.cvars().into_iter().collect::<Vec<_>>(), vec![x, y, z]);
    }

    #[test]
    fn display_renders_readably() {
        let (reg, x, y, z) = reg3();
        let c = Condition::cmp(LinExpr::sum([x, y, z]), CmpOp::Eq, LinExpr::constant(1));
        assert_eq!(c.display(&reg).to_string(), "x' + y' + z' = 1");
    }
}
