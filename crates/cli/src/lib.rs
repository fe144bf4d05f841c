//! # faure-cli — the `faure` command-line tool
//!
//! A standalone front end over the whole toolkit. Databases are plain
//! text: c-variable declarations plus *conditional facts*, which are
//! ordinary fauré-log facts whose body is a condition —
//!
//! ```text
//! % figure1.fdb — the Figure 1 fast-reroute state
//! @cvar x in {0, 1}
//! @cvar y in {0, 1}
//! @cvar z in {0, 1}
//!
//! F(1, 1, 2) :- $x = 1.     % protected primary
//! F(1, 1, 3) :- $x = 0.     % its backup
//! F(1, 2, 3) :- $y = 1.
//! F(1, 2, 4) :- $y = 0.
//! F(1, 3, 5) :- $z = 1.
//! F(1, 3, 4) :- $z = 0.
//! F(1, 4, 5).               % unconditional
//! ```
//!
//! Subcommands (see `faure help`):
//!
//! * `eval <db> <program> [--prune P] [--relation R]` — evaluate a
//!   fauré-log program and print derived relations with conditions;
//! * `check <program>` — span-aware static analysis: all diagnostics
//!   (`F0001`…) with source snippets; `--domains <db>` adds the
//!   database-aware passes;
//! * `check <db> <constraint>` — direct verification of a `panic`
//!   constraint, with violation witnesses;
//! * `scenarios <db> <constraint>` — enumerate the concrete worlds
//!   (e.g. failure combinations) violating the constraint;
//! * `subsume <target> <known>...` — the category-(i) test;
//! * `sql <db> <query>` — a SELECT over the c-tables;
//! * `worlds <db>` — enumerate the possible worlds (small inputs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod observe;

pub use observe::{
    cmd_eval_batch, cmd_eval_updates, cmd_profile, cmd_profile_with_clock, spawn_telemetry_jsonl,
    EvalReport, ObsOptions, TelemetryJsonl,
};

use faure_core::{evaluate_with, parse_program, EvalOptions, Program, PrunePolicy};
use faure_ctable::{CVarRegistry, Const, Database, Domain};
use faure_verify::{check_direct, violation_scenarios, Constraint, DirectVerdict};
use std::fmt;

/// CLI errors (message-only; the binary prints and exits non-zero).
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

impl From<Box<dyn std::error::Error>> for CliError {
    fn from(e: Box<dyn std::error::Error>) -> Self {
        err(e.to_string())
    }
}

/// Parses a `.fdb` database file: `@cvar` directives plus conditional
/// facts (any fauré-log program whose heads are ground-up-to-cvars).
///
/// Directive forms:
///
/// ```text
/// @cvar name in {0, 1}
/// @cvar name in {Mkt, "R&D", 7000}
/// @cvar name open
/// ```
pub fn load_database(text: &str) -> Result<Database, CliError> {
    let mut db = Database::new();
    let mut program_lines = String::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("@cvar") {
            parse_cvar_directive(rest.trim(), &mut db)
                .map_err(|m| err(format!("line {}: {m}", lineno + 1)))?;
        } else if let Some(rest) = line.strip_prefix("@schema") {
            parse_schema_directive(rest.trim(), &mut db)
                .map_err(|m| err(format!("line {}: {m}", lineno + 1)))?;
        } else {
            program_lines.push_str(raw);
            program_lines.push('\n');
        }
    }
    let program = parse_program(&program_lines).map_err(|e| err(format!("database facts: {e}")))?;
    for rule in &program.rules {
        if !rule.body.is_empty() {
            return Err(err(format!(
                "database files may contain only (conditional) facts, found rule `{rule}`"
            )));
        }
    }
    // Loading is an auxiliary evaluation (facts-only program, run to
    // normalise conditional facts into tables) — keep it out of the
    // process-global telemetry so `/metrics` tracks only pipeline work.
    let out = faure_core::without_telemetry(|| {
        evaluate_with(
            &program,
            &db,
            &EvalOptions {
                prune: PrunePolicy::Never,
                ..Default::default()
            },
        )
    })
    .map_err(|e| err(e.to_string()))?;
    Ok(out.database)
}

fn parse_cvar_directive(rest: &str, db: &mut Database) -> Result<(), String> {
    // "<name> in {v, v, ...}" or "<name> open"
    let (name, spec) = rest
        .split_once(char::is_whitespace)
        .ok_or("expected `@cvar <name> in {...}` or `@cvar <name> open`")?;
    let spec = spec.trim();
    if spec == "open" {
        db.fresh_cvar(name, Domain::Open);
        return Ok(());
    }
    let Some(set) = spec.strip_prefix("in") else {
        return Err("expected `in {...}` or `open`".into());
    };
    let set = set.trim();
    let inner = set
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("expected `{v, v, ...}`")?;
    let mut members = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        if let Ok(n) = item.parse::<i64>() {
            members.push(Const::Int(n));
        } else if let Some(q) = item.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
            members.push(Const::sym(q));
        } else {
            members.push(Const::sym(item));
        }
    }
    if members.is_empty() {
        return Err("domain must not be empty".into());
    }
    db.fresh_cvar(name, Domain::Consts(members));
    Ok(())
}

/// Parses `@schema Name(attr, attr, ...)` — declares a relation with
/// named attributes (facts otherwise get synthesised `c0..cn` names).
fn parse_schema_directive(rest: &str, db: &mut Database) -> Result<(), String> {
    let (name, args) = rest
        .split_once('(')
        .ok_or("expected `@schema Name(attr, ...)`")?;
    let name = name.trim();
    let args = args.strip_suffix(')').ok_or("expected closing `)`")?;
    let attrs: Vec<&str> = args
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .collect();
    db.create_relation(faure_ctable::Schema::new(name, &attrs))
        .map_err(|e| e.to_string())
}

/// Engine tuning knobs shared by the eval-family subcommands:
/// `--threads N` (data-parallel rule passes), `--shards N` (partitioned
/// fixpoint with delta exchange), and `--shard-key pred=col` overrides
/// of the planner's chosen partition key. Both axes preserve results:
/// thread parallelism is bit-identical, sharding is set-identical after
/// condition canonicalization.
#[derive(Debug, Default, Clone)]
pub struct EngineKnobs {
    /// `--threads N`; `None` keeps the engine default (`FAURE_THREADS`).
    pub threads: Option<usize>,
    /// `--shards N`; `None` keeps the engine default (`FAURE_SHARDS`).
    pub shards: Option<usize>,
    /// `--shard-key pred=col` overrides, applied to the prepared
    /// program's shard plan before evaluation.
    pub shard_keys: Vec<(String, usize)>,
}

impl EngineKnobs {
    /// Knobs carrying only a thread count (the pre-sharding call shape).
    pub fn threads(threads: Option<usize>) -> Self {
        EngineKnobs {
            threads,
            ..Self::default()
        }
    }

    /// Applies the option-level knobs to an [`EvalOptions`]. Shard-key
    /// overrides are per-prepared-program and applied separately.
    pub(crate) fn configure(&self, opts: &mut EvalOptions) {
        if let Some(n) = self.threads {
            opts.threads = n.max(1);
        }
        if let Some(n) = self.shards {
            opts.shards = n.max(1);
        }
    }
}

/// Parses a `--shard-key` value of the form `pred=col` (a derived
/// predicate name and a zero-based head column index).
pub fn parse_shard_key(s: &str) -> Result<(String, usize), CliError> {
    let (pred, col) = s
        .split_once('=')
        .ok_or_else(|| err(format!("--shard-key takes `pred=col`, got `{s}`")))?;
    let pred = pred.trim();
    let col: usize = col
        .trim()
        .parse()
        .map_err(|_| err(format!("--shard-key column must be an integer, got `{s}`")))?;
    if pred.is_empty() {
        return Err(err(format!("--shard-key needs a predicate name in `{s}`")));
    }
    Ok((pred.to_owned(), col))
}

/// Parses `--prune` values.
pub fn parse_prune(s: &str) -> Result<PrunePolicy, CliError> {
    match s {
        "never" => Ok(PrunePolicy::Never),
        "stratum" => Ok(PrunePolicy::EndOfStratum),
        "iteration" => Ok(PrunePolicy::EveryIteration),
        "eager" => Ok(PrunePolicy::Eager),
        other => Err(err(format!(
            "unknown prune policy `{other}` (never|stratum|iteration|eager)"
        ))),
    }
}

/// Renders a relation with conditions.
pub fn render_relation(
    name: &str,
    db: &Database,
    out: &mut impl fmt::Write,
) -> Result<(), CliError> {
    let Some(rel) = db.relation(name) else {
        return Err(err(format!("no relation named {name}")));
    };
    writeln!(out, "{}({}):", rel.schema.name, rel.schema.attrs.join(", "))
        .map_err(|e| err(e.to_string()))?;
    for t in rel.iter() {
        writeln!(out, "  {}", t.display(&db.cvars)).map_err(|e| err(e.to_string()))?;
    }
    Ok(())
}

/// `faure eval` implementation; returns the rendered output.
/// `threads` > 1 runs the parallel fixpoint (results are bit-identical
/// to serial at any thread count); `None` keeps the engine default
/// (serial, or the `FAURE_THREADS` environment variable).
pub fn cmd_eval(
    db_text: &str,
    program_text: &str,
    prune: PrunePolicy,
    only_relation: Option<&str>,
    threads: Option<usize>,
) -> Result<String, CliError> {
    let db = load_database(db_text)?;
    let program = parse_program(program_text).map_err(|e| err(e.to_string()))?;
    let mut opts = EvalOptions {
        prune,
        ..Default::default()
    };
    if let Some(n) = threads {
        opts.threads = n.max(1);
    }
    let out = evaluate_with(&program, &db, &opts).map_err(|e| err(e.to_string()))?;
    let mut s = String::new();
    match only_relation {
        Some(r) => render_relation(r, &out.database, &mut s)?,
        None => {
            for p in program.idb_predicates() {
                render_relation(p, &out.database, &mut s)?;
            }
        }
    }
    use fmt::Write;
    writeln!(
        s,
        "-- {} tuples, relational {:?}, solver {:?}",
        out.stats.tuples, out.stats.relational, out.stats.solver
    )
    .map_err(|e| err(e.to_string()))?;
    Ok(s)
}

/// `faure check` implementation.
pub fn cmd_check(db_text: &str, constraint_text: &str) -> Result<String, CliError> {
    let db = load_database(db_text)?;
    let program = parse_program(constraint_text).map_err(|e| err(e.to_string()))?;
    let constraint = Constraint::new("constraint", program).map_err(|e| err(e.to_string()))?;
    let verdict = check_direct(&constraint, &db).map_err(|e| err(e.to_string()))?;
    let mut s = String::new();
    use fmt::Write;
    match verdict {
        DirectVerdict::Holds => writeln!(&mut s, "HOLDS in every possible world"),
        DirectVerdict::Violated(vs) => writeln!(&mut s, "VIOLATED:").and_then(|()| {
            for v in &vs {
                writeln!(&mut s, "  {}", v.display(&db.cvars))?;
            }
            Ok(())
        }),
    }
    .map_err(|e| err(e.to_string()))?;
    Ok(s)
}

/// Result of `faure check <program.fl>` (the lint form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintOutcome {
    /// Rendered diagnostics plus a one-line summary.
    pub rendered: String,
    /// Number of error-severity diagnostics.
    pub errors: usize,
    /// Number of warning-severity diagnostics.
    pub warnings: usize,
}

/// `faure check <program.fl>` implementation: runs the span-aware
/// analyzer and renders all diagnostics rustc-style. With `db`, the
/// database-aware passes (schema arity, shadowing, undefined
/// relations) run too.
pub fn cmd_lint(source: &str, filename: &str, db: Option<&Database>) -> LintOutcome {
    use faure_analyze::Severity;
    let report = match db {
        Some(db) => faure_analyze::check_source_with_db(source, db),
        None => faure_analyze::check_source(source),
    };
    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = report.len() - errors;
    let mut rendered = report.render(source, filename);
    match (errors, warnings) {
        (0, 0) => rendered.push_str(&format!("{filename}: no problems found\n")),
        (e, w) => rendered.push_str(&format!("{filename}: {e} error(s), {w} warning(s)\n")),
    }
    LintOutcome {
        rendered,
        errors,
        warnings,
    }
}

/// `faure check <program.fl> --format json` implementation: same
/// analysis as [`cmd_lint`], rendered as a JSON array of diagnostics
/// (code, severity, message, file, line, col, span) for editor and CI
/// integration.
pub fn cmd_lint_json(source: &str, filename: &str, db: Option<&Database>) -> LintOutcome {
    use faure_analyze::Severity;
    let report = match db {
        Some(db) => faure_analyze::check_source_with_db(source, db),
        None => faure_analyze::check_source(source),
    };
    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = report.len() - errors;
    LintOutcome {
        rendered: report.to_json(source, filename),
        errors,
        warnings,
    }
}

/// `faure explain <program.fl>` implementation: prints the compiled
/// rule plans (join order by bound-column selectivity, semi-naive
/// delta slots, pushed-down comparisons, trailing negations) for every
/// stratum — the plans the evaluation engine caches and executes —
/// followed by the per-predicate column domains the abstract
/// interpreter infers from the program text alone.
pub fn cmd_explain(program_text: &str) -> Result<String, CliError> {
    use std::fmt::Write as _;
    let program = parse_program(program_text).map_err(|e| CliError(e.to_string()))?;
    let mut out = faure_core::explain_program(&program).map_err(|e| CliError(e.to_string()))?;
    // Program-only inference: input relations are ⊤ (unknown contents),
    // so anything tighter below was proven from the rules themselves.
    let inference = faure_analyze::infer(&program, None);
    let _ = writeln!(out, "\ninferred domains (program-only):");
    for (pred, cols) in &inference.columns {
        let rendered: Vec<String> = cols.iter().map(|d| d.to_string()).collect();
        let empty = if inference.nonempty.contains(pred) {
            ""
        } else {
            "   [provably empty]"
        };
        let _ = writeln!(out, "  {pred}({}){empty}", rendered.join(", "));
    }
    Ok(out)
}

/// `faure explain <program.fl> --format json` implementation: the same
/// compiled plans as [`cmd_explain`], rendered as a JSON array (one
/// object per rule with its full and delta-pass plans) for editor and
/// CI integration — parity with `faure check --format json`.
pub fn cmd_explain_json(program_text: &str) -> Result<String, CliError> {
    let program = parse_program(program_text).map_err(|e| CliError(e.to_string()))?;
    faure_core::explain_program_json(&program).map_err(|e| CliError(e.to_string()))
}

/// `faure scenarios` implementation.
pub fn cmd_scenarios(
    db_text: &str,
    constraint_text: &str,
    limit: usize,
) -> Result<String, CliError> {
    let db = load_database(db_text)?;
    let program = parse_program(constraint_text).map_err(|e| err(e.to_string()))?;
    let constraint = Constraint::new("constraint", program).map_err(|e| err(e.to_string()))?;
    let scenarios = violation_scenarios(&constraint, &db, limit).map_err(|e| err(e.to_string()))?;
    let mut s = String::new();
    use fmt::Write;
    if scenarios.is_empty() {
        writeln!(&mut s, "no violating scenarios").map_err(|e| err(e.to_string()))?;
    }
    for a in &scenarios {
        if a.is_empty() {
            writeln!(&mut s, "violated in every world").map_err(|e| err(e.to_string()))?;
            continue;
        }
        let desc: Vec<String> = a
            .iter()
            .map(|(v, c)| format!("{}'={}", db.cvars.name(*v), c))
            .collect();
        writeln!(&mut s, "{}", desc.join(", ")).map_err(|e| err(e.to_string()))?;
    }
    Ok(s)
}

/// `faure subsume` implementation (category (i)): does the union of
/// `known` subsume `target`? The registry comes from an optional
/// database file supplying attribute domains.
pub fn cmd_subsume(
    target_text: &str,
    known_texts: &[String],
    reg: &CVarRegistry,
) -> Result<String, CliError> {
    let target = parse_program(target_text).map_err(|e| err(e.to_string()))?;
    let mut known = Program::new();
    for k in known_texts {
        known.extend(parse_program(k).map_err(|e| err(e.to_string()))?);
    }
    match faure_core::subsumes(&known, &target, reg).map_err(|e| err(e.to_string()))? {
        faure_core::Subsumption::Subsumed => {
            Ok("SUBSUMED: the known constraints prove the target\n".into())
        }
        faure_core::Subsumption::NotShown { uncovered_rule } => Ok(format!(
            "UNKNOWN: violation pattern #{uncovered_rule} of the target is not covered\n"
        )),
    }
}

/// `faure sql` implementation.
pub fn cmd_sql(db_text: &str, query: &str) -> Result<String, CliError> {
    let db = load_database(db_text)?;
    let table = faure_core::sql::query(&db, query).map_err(|e| err(e.to_string()))?;
    let mut s = String::new();
    use fmt::Write;
    for row in table.iter() {
        writeln!(&mut s, "{}", row.display(&db.cvars)).map_err(|e| err(e.to_string()))?;
    }
    if table.is_empty() {
        s.push_str("(no rows)\n");
    }
    Ok(s)
}

/// `faure worlds` implementation.
pub fn cmd_worlds(db_text: &str, limit: usize) -> Result<String, CliError> {
    let db = load_database(db_text)?;
    let mut s = String::new();
    use fmt::Write;
    let mut n = 0usize;
    for world in
        faure_ctable::worlds::WorldIter::new(&db, Some(1 << 16)).map_err(|e| err(e.to_string()))?
    {
        n += 1;
        if n > limit {
            writeln!(&mut s, "... (more worlds omitted)").map_err(|e| err(e.to_string()))?;
            break;
        }
        let binds: Vec<String> = world
            .assignment
            .iter()
            .map(|(v, c)| format!("{}'={}", db.cvars.name(*v), c))
            .collect();
        writeln!(&mut s, "world {n}: {}", binds.join(", ")).map_err(|e| err(e.to_string()))?;
        for rel in world.relations.values() {
            for t in &rel.tuples {
                let cells: Vec<String> = t.iter().map(Const::to_string).collect();
                writeln!(&mut s, "  {}({})", rel.schema.name, cells.join(", "))
                    .map_err(|e| err(e.to_string()))?;
            }
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "\
@cvar x in {0, 1}
@cvar y in {0, 1}
@cvar z in {0, 1}
@schema F(f, n1, n2)
F(1, 1, 2) :- $x = 1.
F(1, 1, 3) :- $x = 0.
F(1, 2, 3) :- $y = 1.
F(1, 2, 4) :- $y = 0.
F(1, 3, 5) :- $z = 1.
F(1, 3, 4) :- $z = 0.
F(1, 4, 5).
";

    const REACH: &str = "\
R(f, a, b) :- F(f, a, b).
R(f, a, b) :- F(f, a, c), R(f, c, b).
";

    #[test]
    fn explain_prints_reordered_plans() {
        let text = cmd_explain(REACH).unwrap();
        // The recursive rule gets a delta-pass plan whose remaining
        // literal is probed on the bound join column.
        assert!(text.contains("plan [full]"), "{text}");
        assert!(text.contains("plan [Δ R @ body 2]"), "{text}");
        assert!(text.contains("scan Δ R(f, c, b)"), "{text}");
        assert!(text.contains("probe F(f, a, c)"), "{text}");
        assert!(text.contains("emit R(f, a, b)"), "{text}");
    }

    #[test]
    fn explain_rejects_unsafe_programs() {
        assert!(cmd_explain("R(a, b) :- F(a).\n").is_err());
    }

    #[test]
    fn lint_json_reports_diagnostics() {
        let out = cmd_lint_json("R(a, b) :- F(a).\n", "bad.fl", None);
        assert_eq!(out.errors, 1);
        assert!(
            out.rendered.contains("\"code\":\"F0001\""),
            "{}",
            out.rendered
        );
        assert!(
            out.rendered.contains("\"file\":\"bad.fl\""),
            "{}",
            out.rendered
        );
        let clean = cmd_lint_json("R(a) :- F(a).\n", "ok.fl", None);
        assert_eq!(clean.errors + clean.warnings, 0);
        assert_eq!(clean.rendered, "[]\n");
    }

    #[test]
    fn load_database_with_conditional_facts() {
        let db = load_database(FIG1).unwrap();
        let f = db.relation("F").unwrap();
        assert_eq!(f.len(), 7);
        assert!(f.is_conditional());
        assert_eq!(db.cvars.len(), 3);
    }

    #[test]
    fn directive_variants() {
        let db =
            load_database("@cvar a in {0, 1}\n@cvar s in {Mkt, \"R&D\"}\n@cvar o open\nT(1).\n")
                .unwrap();
        assert_eq!(db.cvars.len(), 3);
        assert_eq!(
            db.cvars.domain(db.cvars.by_name("o").unwrap()),
            &Domain::Open
        );
    }

    #[test]
    fn bad_directives_rejected() {
        assert!(load_database("@cvar\nT(1).\n").is_err());
        assert!(load_database("@cvar x in {}\nT(1).\n").is_err());
        assert!(load_database("@cvar x maybe\nT(1).\n").is_err());
    }

    #[test]
    fn rules_in_database_rejected() {
        let e = load_database("T(a) :- S(a).\n").unwrap_err();
        assert!(e.to_string().contains("only (conditional) facts"));
    }

    #[test]
    fn eval_end_to_end() {
        let out = cmd_eval(FIG1, REACH, PrunePolicy::EndOfStratum, Some("R"), None).unwrap();
        assert!(out.contains("R("), "{out}");
        // The FRR guarantee visible from the CLI: R(1,1,5) unconditional.
        assert!(
            out.contains("(1, 1, 5)\n") || out.contains("(1, 1, 5) "),
            "{out}"
        );
    }

    #[test]
    fn eval_threads_renders_identically() {
        let serial = cmd_eval(FIG1, REACH, PrunePolicy::EndOfStratum, Some("R"), Some(1)).unwrap();
        let parallel =
            cmd_eval(FIG1, REACH, PrunePolicy::EndOfStratum, Some("R"), Some(4)).unwrap();
        // Strip the trailing stats line (timings differ run to run).
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("--"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&serial), strip(&parallel));
    }

    #[test]
    fn explain_json_end_to_end() {
        let out = cmd_explain_json(REACH).unwrap();
        assert!(out.starts_with('['), "{out}");
        assert!(out.contains(r#""op":"scan-delta""#), "{out}");
        assert!(out.contains(r#""delta":{"pred":"R","body":2}"#), "{out}");
        assert!(cmd_explain_json("R(a, b) :- F(a).\n").is_err());
    }

    #[test]
    fn check_and_scenarios() {
        let constraint = format!("{REACH}panic :- F(f, a, b), !R(1, 1, 4).\n");
        let out = cmd_check(FIG1, &constraint).unwrap();
        assert!(out.starts_with("VIOLATED"));
        let sc = cmd_scenarios(FIG1, &constraint, 10).unwrap();
        // Exactly the three worlds where the in-use branch avoids 4.
        assert_eq!(sc.lines().count(), 3);
        let holds = format!("{REACH}panic :- F(f, a, b), !R(1, 1, 5).\n");
        assert!(cmd_check(FIG1, &holds).unwrap().starts_with("HOLDS"));
    }

    #[test]
    fn subsume_end_to_end() {
        let mut reg = CVarRegistry::new();
        reg.fresh("p", Domain::Ints(vec![80, 344, 7000]));
        let target = "panic :- R(p), p != 80, p != 344.\n";
        let known = vec!["panic :- R(p), p != 80.\n".to_owned()];
        let out = cmd_subsume(target, &known, &reg).unwrap();
        assert!(out.starts_with("SUBSUMED"));
        let out2 = cmd_subsume(&known[0], &[target.to_owned()], &reg).unwrap();
        assert!(out2.starts_with("UNKNOWN"));
    }

    #[test]
    fn sql_end_to_end() {
        let out = cmd_sql(FIG1, "SELECT * FROM F WHERE n1 = 4").unwrap();
        assert!(out.contains("(1, 4, 5)"));
    }

    #[test]
    fn worlds_end_to_end() {
        let out = cmd_worlds(FIG1, 100).unwrap();
        assert_eq!(out.matches("world ").count(), 8);
        // The unconditional link appears in every world.
        assert_eq!(out.matches("F(1, 4, 5)").count(), 8);
    }
}
