//! `perfbench-pass`: one measured pass of one workload, in this
//! process, printed as one JSON line. `run.py` starts one process per
//! pass and aggregates them; run it directly only to inspect a pass:
//!
//! ```text
//! perfbench-pass --workload rib-batch --seed 20210610 --trace 0 [--smoke] [--setup-only]
//! ```

use faure_perfbench::json::Json;
use faure_perfbench::workloads::{engine_options, run_pass, Size, Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench-pass --workload <rib-batch|rib-churn|frr-deep> \
                     [--seed N] [--trace 0|1] [--smoke] [--setup-only]";

struct Args {
    workload: Workload,
    seed: u64,
    traced: bool,
    size: Size,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::RibBatch,
        seed: DEFAULT_SEED,
        traced: false,
        size: Size::Full,
        setup_only: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--smoke" => args.size = Size::Smoke,
            "--setup-only" => args.setup_only = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench-pass: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let dropped = faure_perfbench::drop_engine_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-pass: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = engine_options();
    let mut prov = Json::obj();
    prov.set(
        "host_cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    prov.set("rustc", env!("PERFBENCH_RUSTC_VERSION"));
    prov.set("profile", "release");
    prov.set("engine_threads", opts.threads);
    prov.set("engine_shards", opts.shards);
    prov.set(
        "env_dropped",
        Json::Arr(dropped.into_iter().map(Json::Str).collect()),
    );

    match run_pass(
        args.workload,
        args.seed,
        args.traced,
        args.size,
        args.setup_only,
    ) {
        Ok(report) => {
            let mut out = report.to_json();
            out.set("provenance", prov);
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            let mut out = Json::obj();
            out.set("workload", args.workload.name());
            out.set("error", e.as_str());
            out.set("provenance", prov);
            println!("{out}");
            eprintln!("perfbench-pass: {e}");
            ExitCode::from(1)
        }
    }
}
