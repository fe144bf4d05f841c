//! Smoke test: every workload at its tiny size, traced and untraced,
//! passes its output checks and reports every metric.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use faure_perfbench::workloads::{run_pass, Size, Workload, DEFAULT_SEED};

/// Per-layer metrics every traced pass must report.
const LAYERS: [&str; 39] = [
    "engine.prepare_s",
    "engine.plans_compiled",
    "engine.lint_s",
    "engine.table_setup_s",
    "engine.export_s",
    "engine.join_s",
    "engine.merge_s",
    "engine.iterations",
    "engine.delta_rows",
    "exec.probes",
    "exec.rows_matched",
    "exec.conds_conjoined",
    "exec.yield",
    "prune.wall_s",
    "prune.roundtrip_s",
    "prune.rows_removed",
    "solver.cpu_s",
    "solver.sat_calls",
    "solver.memo_misses",
    "solver.memo_hit_rate",
    "solver.ms_per_miss",
    "pool.size_before",
    "pool.new_nodes",
    "pool.hit_rate",
    "maintain.materialize_s",
    "maintain.propagate_s",
    "maintain.rederive_s",
    "maintain.rederive_withdraw_share",
    "maintain.announce.overdeleted",
    "maintain.announce.rederived",
    "maintain.announce.rows_matched",
    "maintain.announce.match_per_overdelete",
    "maintain.withdraw.overdeleted",
    "maintain.withdraw.rederived",
    "maintain.withdraw.rows_matched",
    "maintain.withdraw.match_per_overdelete",
    "mem.bytes_per_tuple",
    "ledger.traced_wall_s",
    "ledger.unattributed_s",
];

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    faure_perfbench::drop_engine_env();
    for w in Workload::ALL {
        for seed in [DEFAULT_SEED, 7] {
            let untraced = run_pass(w, seed, false, Size::Smoke, false).expect("pass runs");
            let traced = run_pass(w, seed, true, Size::Smoke, false).expect("pass runs");
            for r in [&untraced, &traced] {
                assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.checks);
                assert!(
                    r.checks.iter().all(|c| c.ok),
                    "{}: {:?}",
                    w.name(),
                    r.checks
                );
                assert!(r.checks.len() >= 2, "{}", w.name());
                assert!(r.setup_s > 0.0 && r.analysis_s > 0.0, "{}", w.name());
                assert!(!r.announce_ms.is_empty() && !r.withdraw_ms.is_empty());
                assert!(r.peak_rss_mb > 0.0);
            }
            assert!(untraced.layers.is_empty());
            for name in LAYERS {
                assert!(
                    traced.layers.iter().any(|(n, _)| *n == name),
                    "{}: missing {name}",
                    w.name()
                );
            }
            let get = |name: &str| {
                traced
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            // Withdrawals, not announcements, carry the over-delete.
            assert_eq!(get("maintain.announce.overdeleted"), 0.0, "{}", w.name());
            assert!(get("maintain.withdraw.overdeleted") > 0.0, "{}", w.name());
            assert!((get("maintain.rederive_withdraw_share") - 1.0).abs() < 1e-9);
            // The ledger accounts for the traced wall to within 10%.
            let wall = get("ledger.traced_wall_s");
            assert!(
                get("ledger.unattributed_s").abs() < 0.1 * wall,
                "{}",
                w.name()
            );
        }
    }
}

#[test]
fn setup_only_pass_stops_after_setup() {
    let r = run_pass(Workload::RibChurn, DEFAULT_SEED, false, Size::Smoke, true).unwrap();
    assert!(r.setup_s > 0.0);
    assert_eq!(r.analysis_s, 0.0);
    assert!(r.announce_ms.is_empty() && r.checks.is_empty());
}

#[test]
fn same_seed_same_inputs() {
    let a = run_pass(Workload::FrrDeep, 7, true, Size::Smoke, false).unwrap();
    let b = run_pass(Workload::FrrDeep, 7, true, Size::Smoke, false).unwrap();
    let counts = |r: &faure_perfbench::workloads::PassReport| {
        r.layers
            .iter()
            .filter(|(n, _)| n.starts_with("exec.") || n.ends_with("rederived"))
            .map(|(_, v)| *v)
            .collect::<Vec<_>>()
    };
    assert_eq!(counts(&a), counts(&b));
}
