//! Criterion benches for the Table 4 queries at fixed workload sizes.
//!
//! Absolute numbers differ from the paper (different machine, Rust
//! engine vs PostgreSQL+Z3); the tracked property is the *relative*
//! shape: q4–q5 (recursion) dominates, q6 produces the most tuples and
//! solver work, q7 is cheap, q8 sits in between.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use faure_bench::workload;
use faure_core::{evaluate_with, EvalOptions, PrunePolicy};
use faure_net::{queries, rib};

fn bench_reachability(c: &mut Criterion) {
    let mut group = c.benchmark_group("q4_q5_reachability");
    group.sample_size(10);
    for prefixes in [50usize, 100, 200] {
        let w = workload(prefixes, 1);
        group.bench_with_input(BenchmarkId::from_parameter(prefixes), &w, |b, w| {
            b.iter(|| {
                evaluate_with(
                    &queries::reachability_program(),
                    &w.db,
                    &EvalOptions::default(),
                )
                .expect("evaluation succeeds")
            })
        });
    }
    group.finish();
}

fn bench_failure_patterns(c: &mut Criterion) {
    // Precompute R once; bench the nested queries.
    let w = workload(100, 1);
    let out = evaluate_with(
        &queries::reachability_program(),
        &w.db,
        &EvalOptions::default(),
    )
    .expect("evaluation succeeds");
    let with_r = out.database;
    let pair = rib::frequent_pair(&w).unwrap_or((0, 1));

    let mut group = c.benchmark_group("failure_patterns_100_prefixes");
    group.sample_size(10);
    group.bench_function("q6_two_link_failure", |b| {
        b.iter(|| {
            evaluate_with(
                &queries::q6_two_link_failure(),
                &with_r,
                &EvalOptions::default(),
            )
            .expect("evaluation succeeds")
        })
    });
    group.bench_function("q8_reach_with_failure", |b| {
        b.iter(|| {
            evaluate_with(
                &queries::q8_reach_with_failure(pair.0),
                &with_r,
                &EvalOptions::default(),
            )
            .expect("evaluation succeeds")
        })
    });

    let out6 = evaluate_with(
        &queries::q6_two_link_failure(),
        &with_r,
        &EvalOptions::default(),
    )
    .expect("evaluation succeeds");
    group.bench_function("q7_pair_under_y_failure", |b| {
        b.iter(|| {
            evaluate_with(
                &queries::q7_pair_under_y_failure(pair.0, pair.1),
                &out6.database,
                &EvalOptions::default(),
            )
            .expect("evaluation succeeds")
        })
    });
    group.finish();
}

fn bench_solver_phase_share(c: &mut Criterion) {
    // The cost of the solver phase alone: evaluate with Never, then
    // prune the result tables — mirrors the paper's separate Z3 step.
    let w = workload(100, 1);
    let no_prune = EvalOptions {
        prune: PrunePolicy::Never,
        ..Default::default()
    };
    let out = evaluate_with(&queries::reachability_program(), &w.db, &no_prune)
        .expect("evaluation succeeds");
    let r = out.relation("R").expect("derived").clone();
    let reg = out.database.cvars.clone();

    let mut group = c.benchmark_group("solver_phase");
    group.sample_size(10);
    group.bench_function("prune_r_table_100_prefixes", |b| {
        b.iter(|| {
            let mut table = faure_storage::Table::from_relation(&r);
            let mut session = faure_solver::Session::new();
            table
                .prune(&reg, &mut session, faure_storage::PruneRows::All, 1)
                .expect("prunable");
            table.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_reachability,
    bench_failure_patterns,
    bench_solver_phase_share
);
criterion_main!(benches);
