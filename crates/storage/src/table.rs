//! Indexed c-table storage — columnar layout over interned data.
//!
//! A [`Table`] stores its rows struct-of-arrays: one typed [`Cell`]
//! column per attribute (u32-interned symbols, dense c-var indices,
//! unboxed ints, interned list ids) plus a [`CondId`] condition column
//! backed by the global hash-consed pool (`faure_ctable::pool`). The
//! data phase — index probes, pattern scans, dedup — then works on
//! `Copy` cells in contiguous vectors instead of cloning and re-hashing
//! `Vec<Term>` tuples, and row-condition equality is a `u32` compare.
//!
//! Cell encoding is injective ([`Cell`] distinguishes `Int(1)` from
//! `Sym("1")` from `List([1])`), so keying the dedup index directly on
//! the encoded row (`Box<[Cell]>`) replaces the old hash-bucket scheme
//! that had to verify candidates against the actual rows on every
//! lookup to stay collision-safe.

use faure_ctable::pool::{self, CondId};
use faure_ctable::{
    CTuple, CVarId, CVarRegistry, Condition, Const, Relation, Schema, Symbol, Term,
};
use faure_solver::{Session, SolverError};
use std::collections::HashMap;
use std::fmt;

/// A tuple's arity disagrees with the table schema.
///
/// Inserting used to `assert_eq!` on arity; a serving process must not
/// abort on malformed input, so the mismatch is now a typed error the
/// evaluation engine propagates (as `EvalError::ArityMismatch`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArityError {
    /// Name of the table whose schema was violated.
    pub table: String,
    /// Arity of the table schema.
    pub expected: usize,
    /// Arity of the offending tuple.
    pub got: usize,
}

impl fmt::Display for ArityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tuple of arity {} inserted into table {} of arity {}",
            self.got, self.table, self.expected
        )
    }
}

impl std::error::Error for ArityError {}

/// One columnar storage cell: the fully-interned, `Copy` encoding of a
/// [`Term`]. The encoding is injective — decoding always recovers a
/// structurally equal term — so cell equality *is* term equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Cell {
    /// An integer constant, unboxed.
    Int(i64),
    /// An interned symbolic constant.
    Sym(Symbol),
    /// An interned list constant (see [`pool::intern_list`]).
    List(pool::ListId),
    /// A c-variable (dense registry index).
    Var(CVarId),
}

impl Cell {
    /// Encodes a term (interning list payloads).
    pub fn encode(term: &Term) -> Cell {
        match term {
            Term::Const(c) => Cell::encode_const(c),
            Term::Var(v) => Cell::Var(*v),
        }
    }

    /// Encodes a constant.
    pub fn encode_const(c: &Const) -> Cell {
        match c {
            Const::Int(v) => Cell::Int(*v),
            Const::Sym(s) => Cell::Sym(*s),
            Const::List(items) => Cell::List(pool::intern_list(items)),
        }
    }

    /// Decodes back to a term (O(1); list payloads are Arc clones).
    pub fn decode(self) -> Term {
        match self {
            Cell::Int(v) => Term::Const(Const::Int(v)),
            Cell::Sym(s) => Term::Const(Const::Sym(s)),
            Cell::List(id) => Term::Const(Const::List(pool::resolve_list(id))),
            Cell::Var(v) => Term::Var(v),
        }
    }

    /// Decodes a constant cell; `None` for c-variable cells.
    pub fn decode_const(self) -> Option<Const> {
        match self {
            Cell::Int(v) => Some(Const::Int(v)),
            Cell::Sym(s) => Some(Const::Sym(s)),
            Cell::List(id) => Some(Const::List(pool::resolve_list(id))),
            Cell::Var(_) => None,
        }
    }

    /// The c-variable, if this is a variable cell.
    pub fn as_var(self) -> Option<CVarId> {
        match self {
            Cell::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// A per-column pattern used for indexed matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Matches any cell, unconditionally.
    Any,
    /// Matches a specific c-domain term.
    ///
    /// * constant vs equal constant — matches with no condition;
    /// * constant vs different constant — no match;
    /// * constant `c` vs c-variable cell `v̄` — matches with condition
    ///   `v̄ = c` (skipped outright if `c` is outside `v̄`'s domain);
    /// * c-variable `ū` vs constant cell `d` — matches with `ū = d`;
    /// * c-variable `ū` vs c-variable cell `v̄` — matches with `ū = v̄`
    ///   (no condition when they are the same variable).
    Exact(Term),
}

/// Result of inserting a tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// No row with these terms existed; a new row was added.
    New,
    /// A row with these terms existed and its condition gained a new
    /// disjunct.
    Merged,
    /// A row with these terms and this exact condition disjunct already
    /// existed; nothing changed.
    Unchanged,
}

impl InsertOutcome {
    /// Whether the insert changed the table contents.
    pub fn changed(self) -> bool {
        !matches!(self, InsertOutcome::Unchanged)
    }
}

/// One typed attribute column plus its probe indexes.
#[derive(Clone, Debug, Default)]
struct Column {
    /// The cell of every row, in row order (struct-of-arrays).
    cells: Vec<Cell>,
    /// Rows whose cell in this column is the given constant.
    by_const: HashMap<Cell, Vec<u32>>,
    /// Rows whose cell in this column is a c-variable (they
    /// conditionally match any constant).
    var_rows: Vec<u32>,
}

/// A derived row whose condition has been pre-normalised and whose
/// terms and condition have been pre-interned for insertion.
///
/// Building one runs the DNF normalisation that [`Table::insert`] would
/// otherwise perform at merge time — the most expensive part of adding
/// a row — plus the cell encoding and condition-pool interning the
/// columnar table needs. Parallel evaluation constructs `PreparedRow`s
/// inside worker threads so the serialised merge
/// ([`Table::absorb_partitions`]) is reduced to hash lookups on
/// interned data, `Copy` cell appends, and antichain merges — no term
/// clones, no tree re-hashing.
#[derive(Clone, Debug)]
pub struct PreparedRow {
    tuple: CTuple,
    /// Encoded cells of `tuple.terms`.
    cells: Box<[Cell]>,
    /// `tuple.cond` interned into the global pool.
    cond_id: CondId,
    /// Minimal-DNF disjuncts of the condition, or `None` when it is too
    /// large to normalise within budget (the table then stores it in
    /// the opaque representation).
    sets: Option<Vec<crate::dnf::AtomSet>>,
}

impl PreparedRow {
    /// Normalises `tuple`'s condition (the caller should have
    /// structurally simplified it, as with [`Table::insert`]) and
    /// interns its terms and condition.
    pub fn new(tuple: CTuple) -> Self {
        let sets = if tuple.cond == Condition::False {
            Some(Vec::new())
        } else {
            crate::dnf::to_min_dnf(&tuple.cond, crate::dnf::DEFAULT_SET_BUDGET)
        };
        let cells = tuple.terms.iter().map(Cell::encode).collect();
        let cond_id = pool::intern(&tuple.cond);
        PreparedRow {
            tuple,
            cells,
            cond_id,
            sets,
        }
    }

    /// The row's terms.
    pub fn terms(&self) -> &[Term] {
        &self.tuple.terms
    }

    /// The row's encoded cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The row's (un-normalised) condition.
    pub fn cond(&self) -> &Condition {
        &self.tuple.cond
    }

    /// The pooled id of the row's condition.
    pub fn cond_id(&self) -> CondId {
        self.cond_id
    }

    /// The underlying tuple.
    pub fn tuple(&self) -> &CTuple {
        &self.tuple
    }

    /// Whether the condition normalised to false (the row can never be
    /// inserted).
    pub fn is_false(&self) -> bool {
        self.sets.as_ref().is_some_and(Vec::is_empty)
    }
}

/// Per-row condition bookkeeping.
#[derive(Clone, Debug)]
enum CondRepr {
    /// Minimal antichain of atom-sets (see [`crate::dnf`]): disjuncts
    /// subsumed by smaller disjuncts are dropped on insert, which keeps
    /// fixpoints over cyclic graphs polynomial instead of enumerating
    /// every walk.
    Sets(Vec<crate::dnf::AtomSet>),
    /// Fallback for conditions too large to normalise: pooled disjunct
    /// ids with O(1) equality-based deduplication.
    Opaque(Vec<CondId>),
}

/// Which rows a [`Table::prune`] call judges.
#[derive(Clone, Copy, Debug)]
pub enum PruneRows<'a> {
    /// Every row of the table.
    All,
    /// The rows at these distinct indices.
    Only(&'a [usize]),
}

/// An indexed, columnar c-table.
///
/// Rows are deduplicated **by their terms**: deriving the same tuple
/// again under a different condition extends the existing row's
/// condition with a disjunct (`φ₁ ∨ φ₂ ∨ …`). Disjuncts are kept
/// *minimal* (an antichain under implication-by-inclusion) whenever the
/// condition normalises to small DNF, which both keeps conditions
/// readable and guarantees fast fixpoint convergence; otherwise pooled
/// structural deduplication applies. Either way the disjunct space over
/// a finite atom vocabulary is finite, so fixpoints terminate.
///
/// Row conditions are stored as [`CondId`]s; [`Table::row`] and
/// [`Table::iter`] materialise owned [`CTuple`]s on demand (condition
/// trees are O(1) Arc clones out of the pool, and materialised rows are
/// bit-identical to what the old row-major table stored).
#[derive(Clone, Debug)]
pub struct Table {
    /// The schema.
    pub schema: Schema,
    /// One typed column per attribute.
    cols: Vec<Column>,
    /// Pooled condition per row.
    conds: Vec<CondId>,
    /// Condition bookkeeping per row.
    reprs: Vec<CondRepr>,
    /// Dedup index keyed **directly** on the encoded row cells. Cell
    /// encoding is injective and fully interned, so equal keys are
    /// equal term vectors by construction — no collision buckets, no
    /// re-verification against the stored rows.
    by_terms: HashMap<Box<[Cell]>, u32>,
}

/// What a [`Table::delete_where`] pass did to the table, in terms of
/// the *old* row versions: rows dropped outright (the deletion
/// condition μ was `True`) and rows whose condition was weakened to
/// `ψ ∧ ¬μ` (their pre-weakening version is reported, since that is
/// what downstream derivations were computed from).
#[derive(Clone, Debug, Default)]
pub struct DeletionEffect {
    /// Rows removed from the table (old version).
    pub removed: Vec<CTuple>,
    /// Rows kept with a weakened condition (old version). A weakened
    /// row whose new condition collapses to `False` appears in
    /// `removed` instead.
    pub weakened: Vec<CTuple>,
}

impl DeletionEffect {
    /// Whether the pass changed anything.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.weakened.is_empty()
    }
}

impl Table {
    /// An empty table.
    pub fn new(schema: Schema) -> Self {
        let cols = (0..schema.arity()).map(|_| Column::default()).collect();
        Table {
            schema,
            cols,
            conds: Vec::new(),
            reprs: Vec::new(),
            by_terms: HashMap::new(),
        }
    }

    /// Builds a table from a plain relation (deduplicating rows).
    pub fn from_relation(rel: &Relation) -> Self {
        let mut t = Table::new(rel.schema.clone());
        for row in rel.iter() {
            t.insert(row.clone())
                .expect("relation rows match their own schema arity");
        }
        t
    }

    /// Converts to a plain relation, materialising each row once.
    pub fn to_relation(&self) -> Relation {
        Relation {
            schema: self.schema.clone(),
            tuples: self.iter().collect(),
        }
    }

    /// Consuming export: like [`to_relation`](Table::to_relation) but
    /// reuses the schema allocation and drops the indexes in place.
    pub fn into_relation(self) -> Relation {
        let tuples = (0..self.len()).map(|i| self.row(i)).collect();
        Relation {
            schema: self.schema,
            tuples,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.conds.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.conds.is_empty()
    }

    /// Materialises one row as an owned [`CTuple`]. The condition is an
    /// O(1) Arc clone out of the pool; terms decode cell-by-cell.
    pub fn row(&self, idx: usize) -> CTuple {
        CTuple {
            terms: self.cols.iter().map(|c| c.cells[idx].decode()).collect(),
            cond: pool::resolve(self.conds[idx]),
        }
    }

    /// One row's condition (O(1) pool resolve; avoids materialising
    /// the terms on condition-only paths like the join inner loop).
    pub fn cond(&self, idx: usize) -> Condition {
        pool::resolve(self.conds[idx])
    }

    /// One row's pooled condition id.
    pub fn cond_id(&self, idx: usize) -> CondId {
        self.conds[idx]
    }

    /// One cell, decoded (column-major access: `col` then `idx`).
    pub fn term(&self, idx: usize, col: usize) -> Term {
        self.cols[col].cells[idx].decode()
    }

    /// One cell, raw.
    pub fn cell(&self, idx: usize, col: usize) -> Cell {
        self.cols[col].cells[idx]
    }

    /// Iterates over all rows, materialising each once.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = CTuple> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Inserts a tuple, deduplicating by terms and merging conditions.
    ///
    /// The tuple's condition should be structurally simplified by the
    /// caller (the evaluation engine does); `Condition::False` rows are
    /// rejected outright, as are rows whose condition normalises to the
    /// empty DNF. A tuple whose arity disagrees with the schema is a
    /// typed [`ArityError`], not a panic.
    pub fn insert(&mut self, tuple: CTuple) -> Result<InsertOutcome, ArityError> {
        self.insert_prepared(&PreparedRow::new(tuple))
    }

    /// Inserts a pre-normalised row (see [`PreparedRow`]) — the
    /// normalisation-free half of [`insert`](Table::insert), used when
    /// the DNF and interning work already happened elsewhere (e.g. in a
    /// parallel worker, or when the same derived row also feeds a delta
    /// table).
    pub fn insert_prepared(&mut self, row: &PreparedRow) -> Result<InsertOutcome, ArityError> {
        if row.cells.len() != self.schema.arity() {
            return Err(ArityError {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: row.cells.len(),
            });
        }
        if row.cond_id == CondId::FALSE || row.is_false() {
            return Ok(InsertOutcome::Unchanged);
        }
        match self.by_terms.get(&row.cells).copied() {
            Some(idx) => {
                let idx = idx as usize;
                Ok(Self::merge_into_row(
                    &mut self.conds[idx],
                    &mut self.reprs[idx],
                    row.cond_id,
                    row.sets.clone(),
                ))
            }
            None => {
                let idx = u32::try_from(self.conds.len()).expect("row count overflow");
                self.by_terms.insert(row.cells.clone(), idx);
                for (col, &cell) in self.cols.iter_mut().zip(row.cells.iter()) {
                    col.cells.push(cell);
                    match cell {
                        Cell::Var(_) => col.var_rows.push(idx),
                        c => col.by_const.entry(c).or_default().push(idx),
                    }
                }
                let (repr, cond) = match row.sets.clone() {
                    Some(sets) => {
                        let cond = pool::intern(&crate::dnf::condition_of(&sets));
                        (CondRepr::Sets(sets), cond)
                    }
                    None => (CondRepr::Opaque(vec![row.cond_id]), row.cond_id),
                };
                self.reprs.push(repr);
                self.conds.push(cond);
                Ok(InsertOutcome::New)
            }
        }
    }

    /// Partitioned build: merges per-worker result partitions in
    /// **stable partition order** (partition 0 first, then 1, …, and
    /// within each partition in vector order).
    ///
    /// Because parallel evaluation partitions the serial enumeration
    /// into contiguous chunks, replaying the chunks in order makes the
    /// insert sequence — and therefore every merged condition —
    /// bit-identical to a serial run. `on_changed` fires for each row
    /// that changed the table (new terms or a new condition disjunct),
    /// in that same deterministic order; the engine uses it to record
    /// semi-naive deltas.
    pub fn absorb_partitions(
        &mut self,
        partitions: Vec<Vec<PreparedRow>>,
        mut on_changed: impl FnMut(&PreparedRow),
    ) -> Result<(), ArityError> {
        for part in partitions {
            for prow in &part {
                if self.insert_prepared(prow)?.changed() {
                    on_changed(prow);
                }
            }
        }
        Ok(())
    }

    /// Merges an incoming condition into an existing row's disjunction.
    ///
    /// Computes the same condition *trees* as the old row-major table
    /// (pooled `disj` mirrors [`Condition::or`] exactly), then stores
    /// their ids — so materialised rows stay bit-identical.
    fn merge_into_row(
        cond: &mut CondId,
        repr: &mut CondRepr,
        incoming_id: CondId,
        incoming_sets: Option<Vec<crate::dnf::AtomSet>>,
    ) -> InsertOutcome {
        if *cond == CondId::TRUE {
            return InsertOutcome::Unchanged;
        }
        match (&mut *repr, incoming_sets) {
            (CondRepr::Sets(existing), Some(new_sets)) => {
                let mut changed = false;
                for set in new_sets {
                    if crate::dnf::antichain_insert(existing, set) {
                        changed = true;
                    }
                }
                if changed {
                    *cond = pool::intern(&crate::dnf::condition_of(existing));
                    InsertOutcome::Merged
                } else {
                    InsertOutcome::Unchanged
                }
            }
            (CondRepr::Sets(existing), None) => {
                // Degrade to the opaque representation.
                let disjuncts: Vec<CondId> = existing
                    .iter()
                    .map(|s| pool::intern(&crate::dnf::condition_of(std::slice::from_ref(s))))
                    .collect();
                if disjuncts.contains(&incoming_id) {
                    *repr = CondRepr::Opaque(disjuncts);
                    return InsertOutcome::Unchanged;
                }
                // `Condition::any` over the disjunct trees, id-wise.
                let folded = disjuncts
                    .iter()
                    .fold(CondId::FALSE, |acc, &d| pool::disj(acc, d));
                *cond = pool::disj(folded, incoming_id);
                let mut disjuncts = disjuncts;
                disjuncts.push(incoming_id);
                *repr = CondRepr::Opaque(disjuncts);
                InsertOutcome::Merged
            }
            (CondRepr::Opaque(disjuncts), maybe_sets) => {
                let incoming = match maybe_sets {
                    Some(sets) => pool::intern(&crate::dnf::condition_of(&sets)),
                    None => incoming_id,
                };
                if incoming == CondId::TRUE {
                    *cond = CondId::TRUE;
                    *disjuncts = vec![CondId::TRUE];
                    return InsertOutcome::Merged;
                }
                if disjuncts.contains(&incoming) {
                    return InsertOutcome::Unchanged;
                }
                disjuncts.push(incoming);
                *cond = pool::disj(*cond, incoming);
                InsertOutcome::Merged
            }
        }
    }

    /// Candidate row indices for a pattern on one column (index probe).
    fn candidates_for(&self, col: usize, pat: &Pattern) -> Option<Vec<u32>> {
        match pat {
            Pattern::Any | Pattern::Exact(Term::Var(_)) => None,
            Pattern::Exact(Term::Const(c)) => {
                let ci = &self.cols[col];
                let mut v: Vec<u32> = ci
                    .by_const
                    .get(&Cell::encode_const(c))
                    .cloned()
                    .unwrap_or_default();
                v.extend_from_slice(&ci.var_rows);
                Some(v)
            }
        }
    }

    /// Matches a row against per-column patterns, producing the match
    /// condition `μ`, or `None` if the row cannot match.
    ///
    /// The row's own condition is **not** included; callers conjoin it.
    pub fn match_row(reg: &CVarRegistry, row: &CTuple, pats: &[Pattern]) -> Option<Condition> {
        debug_assert_eq!(row.arity(), pats.len());
        let mut cond = Condition::True;
        for (term, pat) in row.terms.iter().zip(pats) {
            match pat {
                Pattern::Any => {}
                Pattern::Exact(p) => match (p, term) {
                    (Term::Const(a), Term::Const(b)) => {
                        if a != b {
                            return None;
                        }
                    }
                    (Term::Const(c), Term::Var(v)) => {
                        if !reg.domain(*v).contains(c) {
                            return None;
                        }
                        cond = cond.and(Condition::eq(Term::Var(*v), Term::Const(c.clone())));
                    }
                    (Term::Var(u), Term::Const(d)) => {
                        if !reg.domain(*u).contains(d) {
                            return None;
                        }
                        cond = cond.and(Condition::eq(Term::Var(*u), Term::Const(d.clone())));
                    }
                    (Term::Var(u), Term::Var(v)) => {
                        if u != v {
                            cond = cond.and(Condition::eq(Term::Var(*u), Term::Var(*v)));
                        }
                    }
                },
            }
        }
        Some(cond)
    }

    /// Columnar [`match_row`](Table::match_row): same four cases and
    /// the same μ construction order, but reading `Copy` cells straight
    /// out of the column vectors instead of materialising a tuple.
    fn match_cells(&self, reg: &CVarRegistry, idx: u32, pats: &[Pattern]) -> Option<Condition> {
        let mut cond = Condition::True;
        for (col, pat) in self.cols.iter().zip(pats) {
            let cell = col.cells[idx as usize];
            match pat {
                Pattern::Any => {}
                Pattern::Exact(p) => match (p, cell) {
                    (Term::Const(c), Cell::Var(v)) => {
                        if !reg.domain(v).contains(c) {
                            return None;
                        }
                        cond = cond.and(Condition::eq(Term::Var(v), Term::Const(c.clone())));
                    }
                    (Term::Const(a), cell) => {
                        if Cell::encode_const(a) != cell {
                            return None;
                        }
                    }
                    (Term::Var(u), Cell::Var(v)) => {
                        if *u != v {
                            cond = cond.and(Condition::eq(Term::Var(*u), Term::Var(v)));
                        }
                    }
                    (Term::Var(u), cell) => {
                        let d = cell.decode_const().expect("non-var cell decodes to const");
                        if !reg.domain(*u).contains(&d) {
                            return None;
                        }
                        cond = cond.and(Condition::eq(Term::Var(*u), Term::Const(d)));
                    }
                },
            }
        }
        Some(cond)
    }

    /// Finds all rows matching the per-column patterns. Returns
    /// `(row index, match condition μ)` pairs. Uses the most selective
    /// constant column as the index probe.
    pub fn find_matches(&self, reg: &CVarRegistry, pats: &[Pattern]) -> Vec<(usize, Condition)> {
        assert_eq!(pats.len(), self.schema.arity(), "pattern arity mismatch");
        // Pick the constant column with the fewest candidates.
        let mut best: Option<Vec<u32>> = None;
        for (col, pat) in pats.iter().enumerate() {
            if let Some(cands) = self.candidates_for(col, pat) {
                if best.as_ref().is_none_or(|b| cands.len() < b.len()) {
                    best = Some(cands);
                }
            }
        }
        let mut out = Vec::new();
        match best {
            Some(cands) => {
                for idx in cands {
                    if let Some(mu) = self.match_cells(reg, idx, pats) {
                        out.push((idx as usize, mu));
                    }
                }
            }
            None => {
                for idx in 0..self.len() as u32 {
                    if let Some(mu) = self.match_cells(reg, idx, pats) {
                        out.push((idx as usize, mu));
                    }
                }
            }
        }
        out
    }

    /// The c-table negation condition for a candidate tuple `terms`:
    ///
    /// ```text
    /// ⋀ over matching rows r:  ¬(ψ_r ∧ μ(terms, r))
    /// ```
    ///
    /// i.e. the condition under which `terms` is **not** derivable from
    /// this table. This is the "not derivable from the c-table"
    /// semantics the paper adopts for negation.
    pub fn negation_condition(&self, reg: &CVarRegistry, terms: &[Term]) -> Condition {
        let pats: Vec<Pattern> = terms.iter().map(|t| Pattern::Exact(t.clone())).collect();
        let mut cond = Condition::True;
        for (idx, mu) in self.find_matches(reg, &pats) {
            let psi = self.cond(idx);
            cond = cond.and(psi.and(mu).negate());
            if cond == Condition::False {
                break;
            }
        }
        cond
    }

    /// Solver phase: removes the selected rows whose conditions are
    /// unsatisfiable and simplifies the others' conditions in place.
    /// Returns the number of rows removed.
    ///
    /// Rows in the antichain representation are pruned **per disjunct**
    /// (each disjunct is a plain conjunction — a single theory query);
    /// opaque rows go through the budget-guarded whole-condition
    /// simplification. A row's verdict depends only on its own
    /// condition, so pruning a subset leaves every other row untouched,
    /// and pruning a subset and then its complement equals pruning all
    /// rows at once.
    ///
    /// With `workers > 1` the selected rows are cut into contiguous
    /// chunks, one per scoped thread, each judged with a
    /// [`Session::fork`] of `session` (the engine's sessions share one
    /// lock-sharded memo). The verdicts are then applied serially in
    /// index order — survivors through
    /// [`adjust_condition`](Table::adjust_condition), the dead through
    /// one [`remove_rows`](Table::remove_rows) — so the table is
    /// bit-identical at every worker count. Worker statistics fold into
    /// `session` in chunk order: the deterministic counters
    /// (`sat_calls`, `sat_true`, `simplify_calls`, hit+miss total)
    /// match one worker's; only the hit/miss split depends on
    /// scheduling.
    pub fn prune(
        &mut self,
        reg: &CVarRegistry,
        session: &mut Session,
        rows: PruneRows<'_>,
        workers: usize,
    ) -> Result<usize, SolverError> {
        let all: Vec<usize>;
        let idxs = match rows {
            PruneRows::All => {
                all = (0..self.len()).collect();
                &all[..]
            }
            PruneRows::Only(idxs) => idxs,
        };
        let judge = |session: &mut Session, chunk: &[usize]| {
            chunk
                .iter()
                .map(|&i| Self::prune_verdict(reg, session, self.conds[i], &self.reprs[i]))
                .collect::<Result<Vec<_>, _>>()
        };
        let verdicts = if workers <= 1 || idxs.len() < 2 {
            judge(session, idxs)?
        } else {
            let judge = &judge;
            let outs: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = idxs
                    .chunks(idxs.len().div_ceil(workers))
                    .map(|chunk| {
                        let mut worker = session.fork();
                        s.spawn(move || (judge(&mut worker, chunk), worker.stats()))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("prune worker panicked"))
                    .collect()
            });
            for (_, stats) in &outs {
                session.absorb_stats(stats);
            }
            let chunks: Vec<Vec<_>> = outs
                .into_iter()
                .map(|(out, _)| out)
                .collect::<Result<_, _>>()?;
            chunks.concat()
        };
        // Free the judged rows' old condition sets — and, on a full
        // prune, the indexes — before allocating their replacements, and
        // rebuild the indexes last. The table's long-lived allocations
        // then end up packed as in a freshly built table; left
        // interleaved with freed memory, they measurably slow later
        // allocation-heavy maintenance passes (in the benchmark, the
        // first announcement after each withdrawal on `rib-churn`).
        let full = matches!(rows, PruneRows::All);
        for &idx in idxs {
            self.reprs[idx] = CondRepr::Opaque(Vec::new());
        }
        if full {
            self.clear_indexes();
        }
        let mut dead = Vec::new();
        for (&idx, verdict) in idxs.iter().zip(verdicts) {
            if !verdict.is_some_and(|cond| self.adjust_condition(idx, &cond)) {
                dead.push(idx);
            }
        }
        let removed = self.remove_rows(&dead).len();
        if full && removed == 0 {
            self.reindex();
        }
        Ok(removed)
    }

    /// One row's prune verdict: `None` if its condition is
    /// unsatisfiable, otherwise the simplified condition. It reads only
    /// the row's condition and representation, and solver results are
    /// ground truth, so the verdict does not depend on which rows are
    /// pruned with it or on which worker judges it.
    fn prune_verdict(
        reg: &CVarRegistry,
        session: &mut Session,
        cond: CondId,
        repr: &CondRepr,
    ) -> Result<Option<Condition>, SolverError> {
        let simplified = match repr {
            CondRepr::Sets(sets) => {
                let mut live = Vec::with_capacity(sets.len());
                for set in sets {
                    let conj = crate::dnf::condition_of(std::slice::from_ref(set));
                    if session.satisfiable(reg, &conj)? {
                        live.push(set.clone());
                    }
                }
                let cond = crate::dnf::condition_of(&live);
                if cond == Condition::False {
                    Condition::False
                } else if cond.size() <= 128 {
                    // Small survivor: also detect validity (e.g.
                    // {x̄=0} ∨ {x̄=1} over {0,1} → empty condition).
                    session.simplify_pruned(reg, &cond)?
                } else {
                    cond
                }
            }
            CondRepr::Opaque(_) => session.simplify_pruned(reg, &pool::resolve(cond))?,
        };
        Ok((simplified != Condition::False).then_some(simplified))
    }

    /// The row index holding exactly these terms, if present (O(1)
    /// dedup-index lookup on the injective cell encoding).
    pub fn find_row(&self, terms: &[Term]) -> Option<usize> {
        let cells: Box<[Cell]> = terms.iter().map(Cell::encode).collect();
        self.by_terms.get(&cells).map(|&i| i as usize)
    }

    /// Whether row `idx` stores its condition as a minimal-DNF
    /// antichain (the `Sets` representation). Incremental maintenance
    /// only certifies a merged row as "pure antichain append" — safe to
    /// propagate upward as just its new disjuncts — when this holds;
    /// opaque conditions fall back to delete-and-reinsert propagation.
    pub fn has_sets_repr(&self, idx: usize) -> bool {
        matches!(self.reprs[idx], CondRepr::Sets(_))
    }

    /// Whether any row stores a c-variable in a *cell* (conditions may
    /// still mention c-variables freely). Join results over var-free
    /// cells are independent of the plan's literal order — bindings
    /// never chain through a c-variable, so every match condition is a
    /// ground comparison that folds on the spot. Incremental
    /// maintenance uses this as the gate for in-place delta
    /// propagation; tables with var cells fall back to stratum
    /// recomputation to stay bit-identical with batch evaluation.
    pub fn has_var_cells(&self) -> bool {
        self.cols.iter().any(|c| !c.var_rows.is_empty())
    }

    /// Removes the rows at `indices` (duplicates and any order are
    /// fine), returning the removed rows materialised in index order.
    ///
    /// Columnar removal: the surviving cells, conditions and reprs are
    /// compacted in place — **no re-normalisation**,
    /// so surviving rows keep their exact condition representation —
    /// and the probe/dedup indexes are rebuilt.
    pub fn remove_rows(&mut self, indices: &[usize]) -> Vec<CTuple> {
        if indices.is_empty() {
            return Vec::new();
        }
        let mut kill = vec![false; self.len()];
        for &i in indices {
            kill[i] = true;
        }
        let removed: Vec<CTuple> = (0..self.len())
            .filter(|&i| kill[i])
            .map(|i| self.row(i))
            .collect();
        if removed.is_empty() {
            return removed;
        }
        fn keep<T>(v: &mut Vec<T>, kill: &[bool]) {
            let mut w = 0usize;
            for (r, &dead) in kill.iter().enumerate() {
                if !dead {
                    v.swap(w, r);
                    w += 1;
                }
            }
            v.truncate(w);
        }
        for col in &mut self.cols {
            keep(&mut col.cells, &kill);
        }
        keep(&mut self.conds, &kill);
        keep(&mut self.reprs, &kill);
        self.reindex();
        removed
    }

    /// Empties the probe and dedup indexes.
    fn clear_indexes(&mut self) {
        self.by_terms.clear();
        for col in &mut self.cols {
            col.by_const.clear();
            col.var_rows.clear();
        }
    }

    /// Rebuilds the probe and dedup indexes from the column vectors.
    fn reindex(&mut self) {
        self.clear_indexes();
        for idx in 0..self.conds.len() {
            let idx32 = idx as u32;
            let cells: Box<[Cell]> = self.cols.iter().map(|c| c.cells[idx]).collect();
            for (col, &cell) in self.cols.iter_mut().zip(cells.iter()) {
                match cell {
                    Cell::Var(_) => col.var_rows.push(idx32),
                    c => col.by_const.entry(c).or_default().push(idx32),
                }
            }
            self.by_terms.insert(cells, idx32);
        }
    }

    /// Replaces one row's condition in place, recomputing its pooled
    /// id and (antichain or opaque) representation exactly as a fresh
    /// insert of that condition would. Returns `false` when the new
    /// condition is `False` or normalises to the empty DNF — the row
    /// is then dead and the caller must [`remove_rows`](Table::remove_rows) it.
    pub fn adjust_condition(&mut self, idx: usize, cond: &Condition) -> bool {
        let sets = if *cond == Condition::False {
            Some(Vec::new())
        } else {
            crate::dnf::to_min_dnf(cond, crate::dnf::DEFAULT_SET_BUDGET)
        };
        match sets {
            Some(s) if s.is_empty() => false,
            Some(s) => {
                self.conds[idx] = pool::intern(&crate::dnf::condition_of(&s));
                self.reprs[idx] = CondRepr::Sets(s);
                true
            }
            None => {
                let id = pool::intern(cond);
                self.conds[idx] = id;
                self.reprs[idx] = CondRepr::Opaque(vec![id]);
                true
            }
        }
    }

    /// Applies one §5-style deletion pattern: `cols[i] = Some(c)`
    /// constrains attribute `i` to the constant `c`, `None` leaves it
    /// free. Mirrors the Levy–Sagiv semantics of
    /// `faure_core::update::apply_to_database` exactly, per row:
    ///
    /// * a constant cell that disagrees with its constraint keeps the
    ///   row untouched;
    /// * otherwise μ conjoins `v̄ = c` for every c-variable cell under a
    ///   constrained column (in column order);
    /// * μ = `True` removes the row; anything else weakens the row's
    ///   condition to `ψ ∧ ¬μ` (and removes it if that collapses).
    pub fn delete_where(&mut self, cols: &[Option<Const>]) -> DeletionEffect {
        assert_eq!(cols.len(), self.schema.arity(), "pattern arity mismatch");
        let mut drop_idx = Vec::new();
        let mut weakened = Vec::new();
        for idx in 0..self.len() {
            let mut mu = Condition::True;
            let mut keep = false;
            for (col, want) in self.cols.iter().zip(cols) {
                if let Some(c) = want {
                    match col.cells[idx] {
                        Cell::Var(v) => {
                            mu = mu.and(Condition::eq(Term::Var(v), Term::Const(c.clone())));
                        }
                        cell => {
                            if cell != Cell::encode_const(c) {
                                keep = true;
                                break;
                            }
                        }
                    }
                }
            }
            if keep {
                continue;
            }
            if mu == Condition::True {
                drop_idx.push(idx);
            } else {
                let old = self.row(idx);
                let new_cond = old.cond.clone().and(mu.negate());
                if !self.adjust_condition(idx, &new_cond) {
                    drop_idx.push(idx);
                    // Reported as removed (it is gone), not weakened.
                    continue;
                }
                weakened.push(old);
            }
        }
        // `drop_idx` rows still hold their old condition (a failed
        // `adjust_condition` does not write), so `remove_rows`
        // materialises the old versions.
        let removed = self.remove_rows(&drop_idx);
        DeletionEffect { removed, weakened }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::{Database, Domain};

    fn db_with_xy() -> (CVarRegistry, faure_ctable::CVarId, faure_ctable::CVarId) {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar(
            "y",
            Domain::Consts(vec![Const::sym("1.2.3.4"), Const::sym("1.2.3.5")]),
        );
        (db.cvars, x, y)
    }

    #[test]
    fn insert_dedups_terms_and_merges_conditions() {
        let (reg, x, _) = db_with_xy();
        let _ = reg;
        let mut t = Table::new(Schema::new("T", &["a"]));
        let c0 = Condition::eq(Term::Var(x), Term::int(0));
        let c1 = Condition::eq(Term::Var(x), Term::int(1));
        assert_eq!(
            t.insert(CTuple::with_cond([Term::int(7)], c0.clone()))
                .unwrap(),
            InsertOutcome::New
        );
        assert_eq!(
            t.insert(CTuple::with_cond([Term::int(7)], c0.clone()))
                .unwrap(),
            InsertOutcome::Unchanged
        );
        assert_eq!(
            t.insert(CTuple::with_cond([Term::int(7)], c1.clone()))
                .unwrap(),
            InsertOutcome::Merged
        );
        assert_eq!(t.len(), 1);
        assert!(faure_solver::equivalent(&reg, &t.row(0).cond, &c0.or(c1)).unwrap());
    }

    #[test]
    fn unconditional_row_absorbs() {
        let (_, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a"]));
        t.insert(CTuple::new([Term::int(7)])).unwrap();
        assert_eq!(
            t.insert(CTuple::with_cond(
                [Term::int(7)],
                Condition::eq(Term::Var(x), Term::int(0))
            ))
            .unwrap(),
            InsertOutcome::Unchanged
        );
        assert_eq!(t.row(0).cond, Condition::True);
    }

    #[test]
    fn false_condition_rejected() {
        let mut t = Table::new(Schema::new("T", &["a"]));
        assert_eq!(
            t.insert(CTuple::with_cond([Term::int(7)], Condition::False))
                .unwrap(),
            InsertOutcome::Unchanged
        );
        assert!(t.is_empty());
    }

    #[test]
    fn cell_encoding_is_injective_round_trip() {
        // Int(1), Sym("1") and List([1]) must stay three distinct
        // cells and decode back to their exact source terms.
        let terms = [
            Term::int(1),
            Term::sym("1"),
            Term::Const(Const::list([Const::Int(1)])),
        ];
        let cells: Vec<Cell> = terms.iter().map(Cell::encode).collect();
        assert_ne!(cells[0], cells[1]);
        assert_ne!(cells[0], cells[2]);
        assert_ne!(cells[1], cells[2]);
        for (t, c) in terms.iter().zip(&cells) {
            assert_eq!(&c.decode(), t);
        }
    }

    #[test]
    fn dedup_keys_on_exact_cells_not_hashes() {
        // Regression for the old hash-bucket dedup index: rows whose
        // term vectors differ only in representation kind (Int vs Sym
        // vs List spelling the "same" value) must never merge, and
        // re-inserting each exact row must hit its own entry. The old
        // `HashMap<u64, Vec<u32>>` design relied on a verify-the-bucket
        // scan to guarantee this under hash collisions; direct cell
        // keys make it structural.
        let mut t = Table::new(Schema::new("T", &["a", "b"]));
        let rows = [
            [Term::int(1), Term::int(2)],
            [Term::sym("1"), Term::int(2)],
            [Term::int(1), Term::sym("2")],
            [Term::Const(Const::list([Const::Int(1)])), Term::int(2)],
            [Term::int(2), Term::int(1)], // swapped order is distinct
        ];
        for row in &rows {
            assert_eq!(
                t.insert(CTuple::new(row.clone())).unwrap(),
                InsertOutcome::New
            );
        }
        assert_eq!(t.len(), rows.len());
        // Exact re-inserts dedup onto the existing row, never a new one.
        for row in &rows {
            assert_eq!(
                t.insert(CTuple::new(row.clone())).unwrap(),
                InsertOutcome::Unchanged
            );
        }
        assert_eq!(t.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(t.row(i).terms, row.to_vec());
        }
    }

    #[test]
    fn constant_pattern_matches_var_cell_conditionally() {
        let (reg, _, y) = db_with_xy();
        let mut t = Table::new(Schema::new("P", &["dest", "path"]));
        t.insert(CTuple::with_cond(
            [Term::Var(y), Term::sym("[ABE]")],
            Condition::ne(Term::Var(y), Term::sym("1.2.3.4")),
        ))
        .unwrap();
        // Pattern P(1.2.3.5, Any) — the paper's q3 example.
        let pats = [Pattern::Exact(Term::sym("1.2.3.5")), Pattern::Any];
        let matches = t.find_matches(&reg, &pats);
        assert_eq!(matches.len(), 1);
        assert_eq!(
            matches[0].1,
            Condition::eq(Term::Var(y), Term::sym("1.2.3.5"))
        );
    }

    #[test]
    fn constant_outside_domain_does_not_match() {
        let (reg, _, y) = db_with_xy();
        let mut t = Table::new(Schema::new("P", &["dest"]));
        t.insert(CTuple::new([Term::Var(y)])).unwrap();
        // 9.9.9.9 is outside dom(ȳ) = {1.2.3.4, 1.2.3.5}.
        let matches = t.find_matches(&reg, &[Pattern::Exact(Term::sym("9.9.9.9"))]);
        assert!(matches.is_empty());
    }

    #[test]
    fn index_probe_equals_full_scan() {
        let (reg, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("F", &["a", "b"]));
        for i in 0..100 {
            t.insert(CTuple::new([Term::int(i % 10), Term::int(i)]))
                .unwrap();
        }
        t.insert(CTuple::with_cond(
            [Term::Var(x), Term::int(1000)],
            Condition::True,
        ))
        .unwrap();
        let pats = [Pattern::Exact(Term::int(3)), Pattern::Any];
        let mut via_index: Vec<usize> = t
            .find_matches(&reg, &pats)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        via_index.sort_unstable();
        let mut via_scan: Vec<usize> = t
            .iter()
            .enumerate()
            .filter_map(|(i, row)| Table::match_row(&reg, &row, &pats).map(|_| i))
            .collect();
        via_scan.sort_unstable();
        assert_eq!(via_index, via_scan);
        // 10 constant matches plus the var row (3 ∈ {0,1}? no — x̄ is
        // Bool01, and 3 ∉ {0,1}, so the var row does NOT match).
        assert_eq!(via_index.len(), 10);
    }

    #[test]
    fn negation_condition_empty_table_is_true() {
        let reg = CVarRegistry::new();
        let t = Table::new(Schema::new("Fw", &["a", "b"]));
        assert_eq!(
            t.negation_condition(&reg, &[Term::sym("Mkt"), Term::sym("CS")]),
            Condition::True
        );
    }

    #[test]
    fn negation_condition_unconditional_match_is_false() {
        let reg = CVarRegistry::new();
        let mut t = Table::new(Schema::new("Fw", &["a", "b"]));
        t.insert(CTuple::new([Term::sym("Mkt"), Term::sym("CS")]))
            .unwrap();
        assert_eq!(
            t.negation_condition(&reg, &[Term::sym("Mkt"), Term::sym("CS")]),
            Condition::False
        );
    }

    #[test]
    fn negation_condition_conditional_match_negates() {
        let (reg, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("Lb", &["a"]));
        t.insert(CTuple::with_cond(
            [Term::sym("R&D")],
            Condition::eq(Term::Var(x), Term::int(1)),
        ))
        .unwrap();
        let c = t.negation_condition(&reg, &[Term::sym("R&D")]);
        // ¬(x̄ = 1) folded to x̄ ≠ 1 by `negate`.
        assert!(
            faure_solver::equivalent(&reg, &c, &Condition::ne(Term::Var(x), Term::int(1))).unwrap()
        );
    }

    #[test]
    fn locally_visible_contradictions_rejected_at_insert() {
        let (_, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a"]));
        // x̄ = 0 ∧ x̄ = 1 is caught by the DNF local filter: no row.
        assert_eq!(
            t.insert(CTuple::with_cond(
                [Term::int(1)],
                Condition::eq(Term::Var(x), Term::int(0))
                    .and(Condition::eq(Term::Var(x), Term::int(1))),
            ))
            .unwrap(),
            InsertOutcome::Unchanged
        );
        assert!(t.is_empty());
    }

    #[test]
    fn prune_removes_contradictions() {
        use faure_ctable::{CmpOp, LinExpr};
        let (reg, x, _) = db_with_xy();
        let mut db2 = Database::new();
        let y = db2.fresh_cvar("y", Domain::Bool01);
        let _ = reg;
        let reg = db2.cvars.clone();
        let mut t = Table::new(Schema::new("T", &["a"]));
        let _ = x;
        // ȳ + ȳ = 3 over {0,1}: unsatisfiable, but not a var=const
        // contradiction, so only the solver phase can remove it.
        t.insert(CTuple::with_cond(
            [Term::int(1)],
            Condition::cmp(
                LinExpr::var(y).plus_var(1, y),
                CmpOp::Eq,
                LinExpr::constant(3),
            ),
        ))
        .unwrap();
        t.insert(CTuple::with_cond(
            [Term::int(2)],
            Condition::eq(Term::Var(y), Term::int(0)),
        ))
        .unwrap();
        assert_eq!(t.len(), 2);
        let mut session = Session::new();
        let removed = t.prune(&reg, &mut session, PruneRows::All, 1).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0).terms, vec![Term::int(2)]);
        assert!(session.stats().sat_calls + session.stats().simplify_calls >= 2);
    }

    #[test]
    fn prune_parallel_matches_serial() {
        use faure_ctable::{CmpOp, LinExpr};
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar("y", Domain::Bool01);
        let reg = db.cvars.clone();
        let build = || {
            let mut t = Table::new(Schema::new("T", &["a"]));
            for i in 0..12i64 {
                let cond = match i % 4 {
                    // x̄ + ȳ = 3 over {0,1}²: solver-only unsat.
                    0 => Condition::cmp(
                        LinExpr::var(x).plus_var(1, y),
                        CmpOp::Eq,
                        LinExpr::constant(3),
                    ),
                    1 => Condition::eq(Term::Var(x), Term::int(0)),
                    // Valid: simplifies to True.
                    2 => Condition::eq(Term::Var(y), Term::int(0))
                        .or(Condition::eq(Term::Var(y), Term::int(1))),
                    _ => Condition::eq(Term::Var(x), Term::int(1))
                        .and(Condition::ne(Term::Var(y), Term::int(0))),
                };
                t.insert(CTuple::with_cond([Term::int(i)], cond)).unwrap();
            }
            t
        };

        let mut serial = build();
        let mut serial_session = Session::new();
        let serial_removed = serial
            .prune(&reg, &mut serial_session, PruneRows::All, 1)
            .unwrap();

        for workers in [1usize, 2, 4] {
            let mut par = build();
            let memo = std::sync::Arc::new(faure_solver::SharedMemo::for_registry(&reg));
            let mut session = Session::with_shared(memo);
            let removed = par
                .prune(&reg, &mut session, PruneRows::All, workers)
                .unwrap();
            assert_eq!(removed, serial_removed, "workers={workers}");
            assert_eq!(par.len(), serial.len());
            for i in 0..serial.len() {
                assert_eq!(par.row(i).terms, serial.row(i).terms);
                assert_eq!(par.row(i).cond, serial.row(i).cond);
                assert_eq!(par.cond_id(i), serial.cond_id(i), "pooled ids match too");
            }
            // Deterministic counters match serial; only the memo
            // hit/miss split depends on scheduling.
            let s = session.stats();
            let base = serial_session.stats();
            assert_eq!(s.sat_calls, base.sat_calls);
            assert_eq!(s.sat_true, base.sat_true);
            assert_eq!(s.simplify_calls, base.simplify_calls);
            assert_eq!(
                s.memo_hits + s.memo_misses,
                base.memo_hits + base.memo_misses
            );
        }
    }

    #[test]
    fn prune_turns_valid_conditions_into_true() {
        let (reg, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a"]));
        t.insert(CTuple::with_cond(
            [Term::int(1)],
            Condition::eq(Term::Var(x), Term::int(0)).or(Condition::eq(Term::Var(x), Term::int(1))),
        ))
        .unwrap();
        let mut session = Session::new();
        t.prune(&reg, &mut session, PruneRows::All, 1).unwrap();
        assert_eq!(t.row(0).cond, Condition::True);
        assert_eq!(t.cond_id(0), CondId::TRUE);
    }

    #[test]
    fn arity_mismatch_is_a_typed_error() {
        let mut t = Table::new(Schema::new("T", &["a", "b"]));
        let err = t.insert(CTuple::new([Term::int(1)])).unwrap_err();
        assert_eq!(
            err,
            ArityError {
                table: "T".into(),
                expected: 2,
                got: 1,
            }
        );
        assert!(err.to_string().contains("arity 1"));
        assert!(err.to_string().contains("table T"));
        assert!(t.is_empty());
    }

    #[test]
    fn absorb_partitions_matches_serial_inserts() {
        let (_, x, _) = db_with_xy();
        let c0 = Condition::eq(Term::Var(x), Term::int(0));
        let c1 = Condition::eq(Term::Var(x), Term::int(1));
        let rows = vec![
            CTuple::with_cond([Term::int(7)], c0.clone()),
            CTuple::with_cond([Term::int(8)], Condition::True),
            CTuple::with_cond([Term::int(7)], c1.clone()),
            CTuple::with_cond([Term::int(7)], c0.clone()), // dup disjunct
            CTuple::with_cond([Term::int(9)], Condition::False),
        ];
        let mut serial = Table::new(Schema::new("T", &["a"]));
        let mut serial_changed = Vec::new();
        for row in &rows {
            if serial.insert(row.clone()).unwrap().changed() {
                serial_changed.push(row.terms.clone());
            }
        }
        // Same rows split across two partitions preserving order.
        let parts: Vec<Vec<PreparedRow>> = vec![
            rows[..2].iter().cloned().map(PreparedRow::new).collect(),
            rows[2..].iter().cloned().map(PreparedRow::new).collect(),
        ];
        let mut part = Table::new(Schema::new("T", &["a"]));
        let mut part_changed = Vec::new();
        part.absorb_partitions(parts, |prow| part_changed.push(prow.terms().to_vec()))
            .unwrap();
        assert_eq!(part.len(), serial.len());
        for (a, b) in part.iter().zip(serial.iter()) {
            assert_eq!(a, b); // bit-identical rows, conditions included
        }
        assert_eq!(part_changed, serial_changed);
    }

    #[test]
    fn absorb_partitions_propagates_arity_errors() {
        let mut t = Table::new(Schema::new("T", &["a"]));
        let bad = vec![vec![PreparedRow::new(CTuple::new([
            Term::int(1),
            Term::int(2),
        ]))]];
        assert!(t.absorb_partitions(bad, |_| {}).is_err());
    }

    /// The condition a fresh insert would store for `cond` (inserts
    /// normalise through min-DNF, which may reorient atoms).
    fn normalized(cond: &Condition) -> Condition {
        let mut t = Table::new(Schema::new("N", &["a"]));
        t.insert(CTuple::with_cond([Term::int(0)], cond.clone()))
            .unwrap();
        t.row(0).cond
    }

    #[test]
    fn remove_rows_compacts_and_reindexes() {
        let (reg, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a", "b"]));
        for i in 0..6i64 {
            t.insert(CTuple::new([Term::int(i % 2), Term::int(i)]))
                .unwrap();
        }
        t.insert(CTuple::with_cond(
            [Term::Var(x), Term::int(99)],
            Condition::ne(Term::Var(x), Term::int(0)),
        ))
        .unwrap();
        let removed = t.remove_rows(&[1, 4, 1]); // dups are fine
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].terms, vec![Term::int(1), Term::int(1)]);
        assert_eq!(removed[1].terms, vec![Term::int(0), Term::int(4)]);
        assert_eq!(t.len(), 5);
        // Surviving rows keep their exact conditions and the indexes
        // answer probes correctly after compaction.
        assert!(t.find_row(&[Term::int(1), Term::int(1)]).is_none());
        let idx = t.find_row(&[Term::Var(x), Term::int(99)]).unwrap();
        assert_eq!(
            t.row(idx).cond,
            normalized(&Condition::ne(Term::Var(x), Term::int(0)))
        );
        let pats = [Pattern::Exact(Term::int(0)), Pattern::Any];
        let hits = t.find_matches(&reg, &pats);
        assert_eq!(hits.len(), 3); // rows 0,2 (consts) + the x̄ row
        assert!(t.remove_rows(&[]).is_empty());
    }

    #[test]
    fn adjust_condition_matches_fresh_insert() {
        let (_, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a"]));
        t.insert(CTuple::new([Term::int(1)])).unwrap();
        let c = Condition::eq(Term::Var(x), Term::int(0));
        assert!(t.adjust_condition(0, &c));
        let mut fresh = Table::new(Schema::new("T", &["a"]));
        fresh
            .insert(CTuple::with_cond([Term::int(1)], c.clone()))
            .unwrap();
        assert_eq!(t.row(0), fresh.row(0));
        assert_eq!(t.cond_id(0), fresh.cond_id(0));
        // A condition that is locally contradictory reports dead.
        let dead = Condition::eq(Term::Var(x), Term::int(0))
            .and(Condition::eq(Term::Var(x), Term::int(1)));
        assert!(!t.adjust_condition(0, &dead));
        assert!(!t.adjust_condition(0, &Condition::False));
        // A failed adjust leaves the row untouched.
        assert_eq!(t.row(0).cond, normalized(&c));
    }

    #[test]
    fn delete_where_mirrors_levy_sagiv_semantics() {
        let (_, x, _) = db_with_xy();
        let mut t = Table::new(Schema::new("T", &["a", "b"]));
        t.insert(CTuple::new([Term::int(1), Term::int(2)])).unwrap();
        t.insert(CTuple::new([Term::int(1), Term::int(3)])).unwrap();
        t.insert(CTuple::new([Term::Var(x), Term::int(2)])).unwrap();
        // Delete T(1, 2): the ground match drops, the x̄ row weakens.
        let eff = t.delete_where(&[Some(Const::int(1)), Some(Const::int(2))]);
        assert_eq!(eff.removed.len(), 1);
        assert_eq!(eff.removed[0].terms, vec![Term::int(1), Term::int(2)]);
        assert_eq!(eff.weakened.len(), 1);
        assert_eq!(eff.weakened[0].cond, Condition::True); // old version
        assert_eq!(t.len(), 2);
        let idx = t.find_row(&[Term::Var(x), Term::int(2)]).unwrap();
        assert_eq!(
            t.row(idx).cond,
            normalized(&Condition::ne(Term::Var(x), Term::int(1))) // ¬(x̄ = 1) folded
        );
        // A second exact delete of an absent tuple is a no-op.
        let eff = t.delete_where(&[Some(Const::int(9)), Some(Const::int(9))]);
        assert!(eff.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn round_trip_relation() {
        let mut rel = Relation::empty(Schema::new("T", &["a", "b"]));
        rel.push(CTuple::new([Term::int(1), Term::int(2)])).unwrap();
        rel.push(CTuple::new([Term::int(1), Term::int(2)])).unwrap(); // dup
        rel.push(CTuple::new([Term::int(3), Term::int(4)])).unwrap();
        let t = Table::from_relation(&rel);
        assert_eq!(t.len(), 2); // dedup
        let back = t.to_relation();
        assert_eq!(back.len(), 2);
        let consumed = Table::from_relation(&rel).into_relation();
        assert_eq!(consumed.tuples, back.tuples);
    }
}
