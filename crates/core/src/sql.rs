//! A small SQL dialect over c-tables, run by the fauré-log engine.
//!
//! §3 of the paper recalls that "the c-tables can be queried by a
//! straightforward extension of SQL": the join of two c-tables
//! concatenates tuples and conjoins their conditions with the equality
//! of the join attributes; selections against c-variable cells attach
//! conditions instead of filtering. The paper's implementation (§6)
//! runs fauré-log by *rewriting* onto SQL; this module goes the other
//! way. It [compiles](compile) a SELECT-FROM-WHERE statement into one
//! fauré-log rule and [runs](query) it through the same [`Engine`] as
//! every other query, so SQL answers pass the solver phase too and
//! never carry a contradictory row:
//!
//! ```text
//! SELECT dest, path FROM P WHERE dest = '1.2.3.4'
//! SELECT P.dest, C.cost FROM P, C WHERE P.path = C.path
//! SELECT * FROM R WHERE port != 80 AND server = 'CS'
//! ```
//!
//! Supported: `SELECT` column lists (qualified or bare) or `*`;
//! comma-joins with equality predicates; `WHERE` as an `AND`-chain of
//! comparisons (`=`, `!=`, `<`, `<=`, `>`, `>=`) between columns,
//! integers, and `'quoted'` strings. Deliberately *not* supported
//! (this is an illustration of the c-table algebra, not a database):
//! `OR`, grouping, aggregation, subqueries — use fauré-log for
//! anything deductive.

use crate::ast::{ArgTerm, CompExpr, Comparison, Literal, Program, Rule, RuleAtom};
use crate::engine::{without_telemetry, Engine};
use faure_ctable::{CmpOp, Const, Database, Schema};
use faure_storage::Table;
use std::fmt;

/// SQL layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Lex/parse problem with position.
    Parse {
        /// Byte offset.
        pos: usize,
        /// Message.
        msg: String,
    },
    /// Unknown table in FROM.
    UnknownTable(String),
    /// Unknown or ambiguous column reference.
    UnknownColumn(String),
    /// A column reference is ambiguous across FROM tables.
    AmbiguousColumn(String),
    /// The engine rejected the compiled rule (message of its error).
    Eval(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse { pos, msg } => write!(f, "SQL parse error at byte {pos}: {msg}"),
            SqlError::UnknownTable(t) => write!(f, "unknown table {t}"),
            SqlError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            SqlError::AmbiguousColumn(c) => {
                write!(f, "ambiguous column {c}: qualify it as table.column")
            }
            SqlError::Eval(msg) => write!(f, "evaluation failed: {msg}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// A parsed column reference (`table.column` or bare `column`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRef {
    /// Optional table qualifier.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

/// One side of a WHERE comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlValue {
    /// Column reference.
    Col(ColRef),
    /// Constant (integer or quoted string).
    Lit(Const),
}

/// One WHERE predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlPred {
    /// Left side.
    pub lhs: SqlValue,
    /// Operator.
    pub op: CmpOp,
    /// Right side.
    pub rhs: SqlValue,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Select {
    /// Projected columns; empty means `*`.
    pub columns: Vec<ColRef>,
    /// FROM tables, in order.
    pub tables: Vec<String>,
    /// AND-chain of predicates.
    pub predicates: Vec<SqlPred>,
}

// ---------------------------------------------------------------------------
// parser
// ---------------------------------------------------------------------------

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn err(&self, msg: impl Into<String>) -> SqlError {
        SqlError::Parse {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.src[self.pos..]
            .chars()
            .next()
            .filter(|c| c.is_whitespace())
        {
            self.pos += c.len_utf8();
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.src[self.pos..].chars().next()
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        if rest
            .get(..kw.len())
            .is_some_and(|w| w.eq_ignore_ascii_case(kw))
        {
            // Keyword boundary: next char must not be identifier-ish.
            let after = rest[kw.len()..].chars().next();
            if after.is_none_or(|c| !c.is_alphanumeric() && c != '_') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(sym) {
            self.pos += sym.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        self.skip_ws();
        let start = self.pos;
        for c in self.src[self.pos..].chars() {
            if c.is_alphanumeric() || c == '_' || c == '&' {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(self.src[start..self.pos].to_owned())
    }

    fn value(&mut self) -> Result<SqlValue, SqlError> {
        self.skip_ws();
        match self.peek() {
            Some('\'') => {
                self.pos += 1;
                let start = self.pos;
                while let Some(c) = self.src[self.pos..].chars().next() {
                    if c == '\'' {
                        let text = &self.src[start..self.pos];
                        self.pos += 1;
                        return Ok(SqlValue::Lit(Const::sym(text)));
                    }
                    self.pos += c.len_utf8();
                }
                Err(self.err("unterminated string literal"))
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let start = self.pos;
                if c == '-' {
                    self.pos += 1;
                }
                while self.src[self.pos..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit())
                {
                    self.pos += 1;
                }
                let n: i64 = self.src[start..self.pos]
                    .parse()
                    .map_err(|e| self.err(format!("bad integer: {e}")))?;
                Ok(SqlValue::Lit(Const::Int(n)))
            }
            _ => {
                let first = self.ident()?;
                if self.eat_sym(".") {
                    let col = self.ident()?;
                    Ok(SqlValue::Col(ColRef {
                        table: Some(first),
                        column: col,
                    }))
                } else {
                    Ok(SqlValue::Col(ColRef {
                        table: None,
                        column: first,
                    }))
                }
            }
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp, SqlError> {
        for (sym, op) in [
            ("!=", CmpOp::Ne),
            ("<>", CmpOp::Ne),
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("=", CmpOp::Eq),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
        ] {
            if self.eat_sym(sym) {
                return Ok(op);
            }
        }
        Err(self.err("expected comparison operator"))
    }
}

/// Parses a single SELECT statement.
pub fn parse_select(src: &str) -> Result<Select, SqlError> {
    let mut lx = Lexer { src, pos: 0 };
    if !lx.eat_kw("SELECT") {
        return Err(lx.err("expected SELECT"));
    }
    let mut columns = Vec::new();
    if !lx.eat_sym("*") {
        loop {
            match lx.value()? {
                SqlValue::Col(c) => columns.push(c),
                SqlValue::Lit(_) => return Err(lx.err("literals cannot be projected")),
            }
            if !lx.eat_sym(",") {
                break;
            }
        }
    }
    if !lx.eat_kw("FROM") {
        return Err(lx.err("expected FROM"));
    }
    let mut tables = Vec::new();
    loop {
        tables.push(lx.ident()?);
        if !lx.eat_sym(",") {
            break;
        }
    }
    let mut predicates = Vec::new();
    if lx.eat_kw("WHERE") {
        loop {
            let lhs = lx.value()?;
            let op = lx.cmp_op()?;
            let rhs = lx.value()?;
            predicates.push(SqlPred { lhs, op, rhs });
            if !lx.eat_kw("AND") {
                break;
            }
        }
    }
    lx.skip_ws();
    let _ = lx.eat_sym(";");
    lx.skip_ws();
    if lx.pos != src.len() {
        return Err(lx.err("trailing input"));
    }
    Ok(Select {
        columns,
        tables,
        predicates,
    })
}

// ---------------------------------------------------------------------------
// compiler
// ---------------------------------------------------------------------------

/// Head predicate of a compiled statement. The SQL lexer cannot produce
/// this name, so it never collides with a FROM table — not even one
/// called `result`.
const HEAD: &str = "?result";

/// Column catalogue of the FROM tables, concatenated in order.
struct Catalogue {
    /// (table name, column name) per position.
    cols: Vec<(String, String)>,
}

impl Catalogue {
    fn resolve(&self, r: &ColRef) -> Result<usize, SqlError> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (t, c))| c == &r.column && r.table.as_ref().is_none_or(|q| q == t))
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(SqlError::UnknownColumn(format!(
                "{}{}",
                r.table
                    .as_deref()
                    .map(|t| format!("{t}."))
                    .unwrap_or_default(),
                r.column
            ))),
            1 => Ok(matches[0]),
            _ => Err(SqlError::AmbiguousColumn(r.column.clone())),
        }
    }
}

/// A resolved WHERE operand: a catalogue position or a constant.
enum Operand {
    Col(usize),
    Lit(Const),
}

fn operand(cat: &Catalogue, v: &SqlValue) -> Result<Operand, SqlError> {
    Ok(match v {
        SqlValue::Col(r) => Operand::Col(cat.resolve(r)?),
        SqlValue::Lit(c) => Operand::Lit(c.clone()),
    })
}

fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// Compiles a SELECT into one fauré-log rule over `db`'s tables, plus
/// the schema (`result`) its answers are reported under.
///
/// Every FROM table becomes a positive atom with fresh variables.
/// `col = col` predicates unify the two variables, `col = literal`
/// puts the constant into the atom (like q2's `P("1.2.3.4", p)`), and
/// every other predicate becomes a comparison. The head holds the
/// SELECT list, or every column for `*` (named `table.column`).
pub fn compile(db: &Database, stmt: &Select) -> Result<(Rule, Schema), SqlError> {
    if stmt.tables.is_empty() {
        return Err(SqlError::Parse {
            pos: 0,
            msg: "FROM clause is empty".into(),
        });
    }
    // The engine would silently create a missing table, so check here.
    let mut cat = Catalogue { cols: Vec::new() };
    let mut arities = Vec::new();
    for t in &stmt.tables {
        let rel = db
            .relation(t)
            .ok_or_else(|| SqlError::UnknownTable(t.clone()))?;
        cat.cols
            .extend(rel.schema.attrs.iter().map(|a| (t.clone(), a.clone())));
        arities.push(rel.schema.arity());
    }

    // Union-find over positions for `col = col`; constants per class
    // for `col = literal`; everything else is a comparison.
    let n = cat.cols.len();
    let mut parent: Vec<usize> = (0..n).collect();
    let mut lits = Vec::new();
    let mut rest = Vec::new();
    for p in &stmt.predicates {
        match (operand(&cat, &p.lhs)?, p.op, operand(&cat, &p.rhs)?) {
            (Operand::Col(i), CmpOp::Eq, Operand::Col(j)) => {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                parent[ri] = rj;
            }
            (Operand::Col(i), CmpOp::Eq, Operand::Lit(c))
            | (Operand::Lit(c), CmpOp::Eq, Operand::Col(i)) => lits.push((i, c)),
            (l, op, r) => rest.push((l, op, r)),
        }
    }
    let root: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
    let mut bound: Vec<Option<Const>> = vec![None; n];
    let mut comparisons = Vec::new();
    for (i, c) in lits {
        match &bound[root[i]] {
            None => bound[root[i]] = Some(c),
            // A second, different constant on the class: a ground
            // comparison that is false, so the rule never fires.
            Some(prev) if *prev != c => comparisons.push(Comparison {
                lhs: CompExpr::Arg(ArgTerm::Cst(prev.clone())),
                op: CmpOp::Eq,
                rhs: CompExpr::Arg(ArgTerm::Cst(c)),
            }),
            Some(_) => {}
        }
    }
    let arg = |i: usize| match &bound[root[i]] {
        Some(c) => ArgTerm::Cst(c.clone()),
        None => ArgTerm::Var(format!("v{}", root[i])),
    };
    let side = |o: Operand| {
        CompExpr::Arg(match o {
            Operand::Col(i) => arg(i),
            Operand::Lit(c) => ArgTerm::Cst(c),
        })
    };
    for (l, op, r) in rest {
        comparisons.push(Comparison {
            lhs: side(l),
            op,
            rhs: side(r),
        });
    }

    let mut body = Vec::new();
    let mut start = 0;
    for (t, arity) in stmt.tables.iter().zip(arities) {
        body.push(Literal::Pos(RuleAtom::new(
            t.clone(),
            (start..start + arity).map(arg).collect(),
        )));
        start += arity;
    }
    let (cols, attrs): (Vec<usize>, Vec<String>) = if stmt.columns.is_empty() {
        (0..n)
            .map(|i| (i, format!("{}.{}", cat.cols[i].0, cat.cols[i].1)))
            .unzip()
    } else {
        stmt.columns
            .iter()
            .map(|c| Ok((cat.resolve(c)?, c.column.clone())))
            .collect::<Result<Vec<_>, SqlError>>()?
            .into_iter()
            .unzip()
    };
    let rule = Rule {
        head: RuleAtom::new(HEAD, cols.into_iter().map(arg).collect()),
        body,
        comparisons,
    };
    Ok((
        rule,
        Schema {
            name: "result".into(),
            attrs,
        },
    ))
}

/// Parses `sql`, compiles it, and runs the rule through the engine,
/// returning the answers as a c-table named `result`. Conditions follow
/// the c-table semantics: comparisons against c-variable cells annotate
/// rows instead of dropping them, and rows whose condition is
/// contradictory are pruned. SQL is not pipeline work, so the run does
/// not publish telemetry.
pub fn query(db: &Database, sql: &str) -> Result<Table, SqlError> {
    let (rule, schema) = compile(db, &parse_select(sql)?)?;
    let program = Program { rules: vec![rule] };
    let out = without_telemetry(|| Engine::new().prepare(&program)?.run(db))
        .map_err(|e| SqlError::Eval(e.to_string()))?;
    let mut table = Table::new(schema);
    for row in out.relation(HEAD).into_iter().flat_map(|r| r.iter()) {
        table
            .insert(row.clone())
            .expect("the head has one argument per result column");
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::examples::table2_path_db;
    use faure_ctable::{CTuple, Condition, Domain, Term};

    #[test]
    fn parse_shapes() {
        let s = parse_select("SELECT dest, path FROM P WHERE dest = '1.2.3.4'").unwrap();
        assert_eq!(s.columns.len(), 2);
        assert_eq!(s.tables, vec!["P"]);
        assert_eq!(s.predicates.len(), 1);

        let s2 =
            parse_select("SELECT P.dest, C.cost FROM P, C WHERE P.path = C.path AND C.cost < 4;")
                .unwrap();
        assert_eq!(s2.tables, vec!["P", "C"]);
        assert_eq!(s2.predicates.len(), 2);

        let star = parse_select("SELECT * FROM R").unwrap();
        assert!(star.columns.is_empty());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_select("SELEC a FROM t").is_err());
        assert!(parse_select("SELECT a FROM").is_err());
        assert!(parse_select("SELECT a FROM t WHERE a =").is_err());
        assert!(parse_select("SELECT 'lit' FROM t").is_err());
        assert!(parse_select("SELECT a FROM t extra").is_err());
    }

    #[test]
    fn select_constant_against_cvar_annotates() {
        let (db, vars) = table2_path_db();
        // dest = '1.2.3.5' matches row (ȳ, [ABE]) conditionally.
        let t = query(&db, "SELECT dest, path FROM P WHERE dest = '1.2.3.5'").unwrap();
        assert_eq!(t.len(), 1);
        let cond = &t.row(0).cond;
        assert!(faure_solver::satisfiable(&db.cvars, cond).unwrap());
        assert!(cond.cvars().contains(&vars.y));
    }

    #[test]
    fn join_on_ctable_matches_paper_semantics() {
        let (db, _) = table2_path_db();
        // The q2 query, in SQL.
        let t = query(
            &db,
            "SELECT C.cost FROM P, C WHERE P.path = C.path AND P.dest = '1.2.3.4'",
        )
        .unwrap();
        // 3 [x̄=[ABC]] and 4 [x̄=[ADEC]]: two conditional answers.
        assert_eq!(t.len(), 2);
        let mut costs: Vec<i64> = t
            .iter()
            .map(|r| r.terms[0].as_const().unwrap().as_int().unwrap())
            .collect();
        costs.sort_unstable();
        assert_eq!(costs, vec![3, 4]);
        for row in t.iter() {
            assert_ne!(row.cond, Condition::True);
        }
    }

    #[test]
    fn star_qualifies_columns() {
        let (db, _) = table2_path_db();
        let t = query(&db, "SELECT * FROM C WHERE cost >= 4").unwrap();
        assert_eq!(t.schema.attrs, vec!["C.path", "C.cost"]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn order_comparisons_on_ints() {
        let (db, _) = table2_path_db();
        let t = query(&db, "SELECT cost FROM C WHERE cost < 4").unwrap();
        // cost 3 appears twice in C but projection merges duplicates.
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0).terms, vec![Term::int(3)]);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let (db, _) = table2_path_db();
        assert_eq!(
            query(&db, "SELECT a FROM Nope").unwrap_err(),
            SqlError::UnknownTable("Nope".into())
        );
        assert!(matches!(
            query(&db, "SELECT nope FROM P"),
            Err(SqlError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ambiguous_column_detected() {
        let (db, _) = table2_path_db();
        // Both P and C have a `path` column.
        assert!(matches!(
            query(&db, "SELECT path FROM P, C"),
            Err(SqlError::AmbiguousColumn(_))
        ));
    }

    #[test]
    fn cartesian_when_no_join_predicate() {
        let (db, _) = table2_path_db();
        let t = query(&db, "SELECT P.dest, C.cost FROM P, C").unwrap();
        // 3 P rows × 3 C rows, projected to (dest, cost) with merging:
        // at most 9 rows.
        assert!(t.len() <= 9 && t.len() >= 4);
    }

    /// SQL and fauré-log must agree — the same query written both ways.
    #[test]
    fn sql_agrees_with_faurelog() {
        let (db, _) = table2_path_db();
        let via_sql = query(
            &db,
            "SELECT C.cost FROM P, C WHERE P.path = C.path AND P.dest = '1.2.3.4'",
        )
        .unwrap();
        let via_log = faure_core_equivalent(&db);
        let mut a: Vec<Vec<Term>> = via_sql.iter().map(|r| r.terms.clone()).collect();
        a.sort();
        assert_eq!(a, via_log);
    }

    /// The same query through the deductive engine, as q2 writes it.
    fn faure_core_equivalent(db: &Database) -> Vec<Vec<Term>> {
        let program = crate::parse_program(r#"Cost(c) :- P("1.2.3.4", p), C(p, c)."#).unwrap();
        let out = crate::evaluate(&program, db).unwrap();
        let mut rows: Vec<Vec<Term>> = out
            .relation("Cost")
            .unwrap()
            .iter()
            .map(|r| r.terms.clone())
            .collect();
        rows.sort();
        rows
    }

    /// Multi-byte input must produce errors, never a panic: a no-break
    /// space as whitespace, and non-ASCII text where a keyword is
    /// expected.
    #[test]
    fn multibyte_input_does_not_panic() {
        let (db, _) = table2_path_db();
        let t = query(&db, "SELECT\u{a0}cost FROM C WHERE cost < 4").unwrap();
        assert_eq!(t.len(), 1);
        for src in ["aéééé", "SELECT a FROM A WHERE a = 1 éé"] {
            assert!(matches!(parse_select(src), Err(SqlError::Parse { .. })));
        }
    }

    /// A selection that contradicts a row's condition prunes the row,
    /// exactly as the same query written as a rule derives nothing.
    #[test]
    fn contradictory_rows_are_pruned() {
        let mut db = Database::new();
        let u = db.fresh_cvar("u", Domain::Ints(vec![0, 1, 2]));
        db.create_relation(Schema::new("A", &["a", "b"])).unwrap();
        db.insert(
            "A",
            CTuple::with_cond(
                [Term::Var(u), Term::int(1)],
                Condition::ne(Term::Var(u), Term::int(1)),
            ),
        )
        .unwrap();
        let t = query(&db, "SELECT a FROM A WHERE a > 0 AND a < 2").unwrap();
        assert!(t.is_empty());
        let program = crate::parse_program("Q(a) :- A(a, b), a > 0, a < 2.").unwrap();
        assert!(crate::evaluate(&program, &db)
            .unwrap()
            .relation("Q")
            .unwrap()
            .is_empty());
    }

    /// An engine error — here the solver refusing an order atom over an
    /// open-domain c-variable — comes back as `SqlError::Eval`.
    #[test]
    fn engine_errors_are_reported() {
        let mut db = Database::new();
        let u = db.fresh_cvar("u", Domain::Open);
        db.create_relation(Schema::new("A", &["a"])).unwrap();
        db.insert("A", CTuple::new([Term::Var(u)])).unwrap();
        assert!(matches!(
            query(&db, "SELECT a FROM A WHERE a < 2"),
            Err(SqlError::Eval(_))
        ));
    }

    /// A database relation may itself be called `result`.
    #[test]
    fn table_named_result() {
        let mut db = Database::new();
        db.create_relation(Schema::new("result", &["x"])).unwrap();
        db.insert("result", CTuple::new([Term::int(7)])).unwrap();
        let t = query(&db, "SELECT x FROM result").unwrap();
        assert_eq!(t.schema.name, "result");
        assert_eq!(t.schema.attrs, vec!["x"]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(0).terms, vec![Term::int(7)]);
    }
}
