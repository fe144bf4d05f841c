//! End-to-end tests driving the built `faure` binary as a subprocess.

use std::io::Write;
use std::process::Command;

fn faure() -> Command {
    Command::new(env!("CARGO_BIN_EXE_faure"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("faure-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

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
fn help_prints_usage() {
    let out = faure().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("faure eval"));
}

#[test]
fn no_args_prints_usage() {
    let out = faure().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn eval_pipeline() {
    let db = write_temp("fig1.fdb", FIG1);
    let program = write_temp("reach.fl", REACH);
    let out = faure()
        .args(["eval", db.to_str().unwrap(), program.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(1, 1, 5)"), "{text}");
    assert!(text.contains("tuples"), "{text}");
}

#[test]
fn check_reports_verdicts() {
    let db = write_temp("fig1b.fdb", FIG1);
    let holds = write_temp(
        "holds.fl",
        &format!("{REACH}panic :- F(f, a, b), !R(1, 1, 5).\n"),
    );
    let out = faure()
        .args(["check", db.to_str().unwrap(), holds.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("HOLDS"));

    let violated = write_temp(
        "violated.fl",
        &format!("{REACH}panic :- F(f, a, b), !R(1, 1, 4).\n"),
    );
    let out = faure()
        .args([
            "scenarios",
            db.to_str().unwrap(),
            violated.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 3, "{text}");
}

#[test]
fn sql_subcommand() {
    let db = write_temp("fig1c.fdb", FIG1);
    let out = faure()
        .args(["sql", db.to_str().unwrap(), "SELECT * FROM F WHERE n1 = 4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("(1, 4, 5)"));
}

/// SQL input never panics: multi-byte text where the lexer expects
/// whitespace or a keyword is a clean error (exit 1, `error:`).
#[test]
fn sql_multibyte_input_fails_cleanly() {
    let db = write_temp("fig1-utf8.fdb", FIG1);
    for query in [
        "SELECT\u{a0}a FROM A",
        "aéééé",
        "SELECT a FROM A WHERE a = 1 éé",
    ] {
        let out = faure()
            .args(["sql", db.to_str().unwrap(), query])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{query}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{query}"
        );
    }
}

/// SQL answers pass the solver phase: a selection that contradicts the
/// only row's condition prints no rows, as `faure eval` derives none.
#[test]
fn sql_prunes_contradictory_rows() {
    let db = write_temp(
        "contradiction.fdb",
        "@cvar u in {0, 1, 2}\n@schema A(a, b)\nA($u, 1) :- $u != 1.\n",
    );
    let out = faure()
        .args([
            "sql",
            db.to_str().unwrap(),
            "SELECT a FROM A WHERE a > 0 AND a < 2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "(no rows)\n");
}

#[test]
fn bad_input_fails_cleanly() {
    let db = write_temp("bad.fdb", "@cvar broken\n");
    let program = write_temp("p.fl", "R(a) :- F(a).\n");
    let out = faure()
        .args(["eval", db.to_str().unwrap(), program.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn missing_file_fails_cleanly() {
    let out = faure()
        .args(["eval", "/nonexistent.fdb", "/nonexistent.fl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// Extracts the integer after `"key":` in a JSON-ish string slice.
fn json_u64(s: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let i = s
        .find(&pat)
        .unwrap_or_else(|| panic!("key {key} not found in {s}"));
    let rest = &s[i + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("key {key} not an integer in {s}"))
}

/// The ISSUE's live-telemetry acceptance check: after a churn run, the
/// engine counters the background JSONL writer last snapshotted must
/// agree with the `--metrics` document's whole-process `totals` block.
/// Runs in a spawned process so no other test's evaluation can bump
/// the process-global registry mid-comparison.
#[test]
fn telemetry_jsonl_final_line_agrees_with_metrics_totals() {
    let db = write_temp("tele.fdb", FIG1);
    let program = write_temp("tele.fl", REACH);
    let stream = write_temp("tele.fdl", "+F(1, 4, 6).\n-F(1, 4, 5).\n");
    let metrics = write_temp("tele-metrics.json", "");
    let jsonl = write_temp("tele.jsonl", "");
    let out = faure()
        .args([
            "eval",
            db.to_str().unwrap(),
            program.to_str().unwrap(),
            "--updates",
            stream.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
            "--telemetry-jsonl",
            jsonl.to_str().unwrap(),
            "--telemetry-interval-ms",
            "60000",
            "--threads",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The per-update progress stream landed on stderr, not stdout.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("update 1/2"), "{stderr}");
    assert!(stderr.contains("update 2/2"), "{stderr}");
    assert!(stderr.contains("memo"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("update 1/2"));

    let metrics_doc = std::fs::read_to_string(&metrics).unwrap();
    let totals_at = metrics_doc.find("\"totals\":").expect("totals block");
    let totals = &metrics_doc[totals_at..];
    let jsonl_text = std::fs::read_to_string(&jsonl).unwrap();
    let last = jsonl_text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .expect("at least one snapshot line");

    // Counter-for-counter agreement between the final telemetry
    // snapshot and the metrics totals.
    for (metric, key) in [
        ("faure_probes_total", "probes"),
        ("faure_rows_matched_total", "rows_matched"),
        ("faure_sat_calls_total", "sat_calls"),
        ("faure_sat_true_total", "sat_true"),
        ("faure_memo_hits_total", "memo_hits"),
        ("faure_memo_misses_total", "memo_misses"),
        ("faure_updates_applied_total", "updates_applied"),
        ("faure_plan_cache_hits_total", "plan_cache_hits"),
        ("faure_plan_cache_misses_total", "plan_cache_misses"),
    ] {
        assert_eq!(
            json_u64(last, metric),
            json_u64(totals, key),
            "{metric} disagrees with totals.{key}\njsonl: {last}\ntotals: {totals}"
        );
    }
    // The absolute IDB row-count gauge matches too.
    assert_eq!(
        json_u64(last, "faure_idb_tuples"),
        json_u64(totals, "idb_tuples"),
        "idb tuples gauge disagrees\njsonl: {last}\ntotals: {totals}"
    );
    // Pool hits: the registry mirrors the process-global pool counters
    // at publish boundaries; the metrics pool block snapshots the same
    // source after the last apply.
    let pool_at = metrics_doc.find("\"pool\":").expect("pool block");
    assert_eq!(
        json_u64(last, "faure_pool_hits_total"),
        json_u64(&metrics_doc[pool_at..], "pool_hits"),
        "pool hits disagree\njsonl: {last}"
    );
}

#[test]
fn flight_recorder_dumps_on_success() {
    let db = write_temp("flight.fdb", FIG1);
    let program = write_temp("flight.fl", REACH);
    let dump = std::env::temp_dir().join(format!("faure-flight-ok-{}.json", std::process::id()));
    let out = faure()
        .args([
            "eval",
            db.to_str().unwrap(),
            program.to_str().unwrap(),
            "--flight-recorder",
            dump.to_str().unwrap(),
            "--flight-capacity",
            "16",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("flight recording"), "{stdout}");
    let json = std::fs::read_to_string(&dump).unwrap();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    std::fs::remove_file(&dump).ok();
}

#[test]
fn forced_panic_dumps_flight_ring() {
    let db = write_temp("panic.fdb", FIG1);
    let program = write_temp("panic.fl", REACH);
    let dump = std::env::temp_dir().join(format!("faure-flight-panic-{}.json", std::process::id()));
    let out = faure()
        .args([
            "eval",
            db.to_str().unwrap(),
            program.to_str().unwrap(),
            "--flight-recorder",
            dump.to_str().unwrap(),
        ])
        .env("FAURE_FLIGHT_PANIC", "1")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("flight recorder: dumped"), "{stderr}");
    // The panic-hook dump is a loadable Chrome trace with real events.
    let json = std::fs::read_to_string(&dump).unwrap();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    std::fs::remove_file(&dump).ok();
}

#[test]
fn unwritable_observability_paths_fail_cleanly() {
    let db = write_temp("unwritable.fdb", FIG1);
    let program = write_temp("unwritable.fl", REACH);
    for flag in [
        "--metrics",
        "--trace",
        "--flight-recorder",
        "--telemetry-jsonl",
    ] {
        let out = faure()
            .args([
                "eval",
                db.to_str().unwrap(),
                program.to_str().unwrap(),
                flag,
                "/nonexistent-dir/out.json",
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error:") && stderr.contains("/nonexistent-dir/out.json"),
            "{flag}: {stderr}"
        );
    }
}
