#!/usr/bin/env python3
"""Runs the Fauré engine benchmark and prints its metrics.

    python3 perfbench/run.py --workload rib-batch --seed 20210610 --seconds 30 --trace 0

Run from the repository root. The script builds the `perfbench`
package (release profile, offline, into $CARGO_TARGET_DIR or
`.bench_build`), then measures for about `--seconds` seconds:

* a few set-up-only passes (the median of every set-up is `setup_s`);
* measured passes, each in a process of its own, one after another.
  The condition pool is process-global and never shrinks, so one
  process measures one cold pass (see README.md). With `--trace 1`
  untraced and traced passes alternate: end-to-end metrics come from
  the untraced ones, per-layer metrics from the traced ones, and the
  difference between the two is the tracing overhead.

Every pass checks the engine's outputs outside its timed regions. The
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it
give every metric by name with its unit, the provenance of the run and
the output-check verdicts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rib-batch", "rib-churn", "frr-deep")
DEFAULT_SEED = 20210610
SETUP_ONLY_PASSES = 5
# What the untraced passes of a run must reach before it may end: two
# passes, so no single pass decides a median or a tail, and enough
# pooled samples per update type that a p90 has ten samples beyond it.
MIN_PASSES = 2
MIN_UPDATE_SAMPLES = 100
# Seconds after the build by which every pass must have ended, so a run
# exits within three minutes even if a pass hangs.
DEADLINE_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "analysis_s": "s",
    "announce_p50_ms": "ms",
    "announce_p90_ms": "ms",
    "withdraw_p50_ms": "ms",
    "withdraw_p90_ms": "ms",
    "updates_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or name.endswith("ms_per_miss"):
        return "ms"
    if name == "mem.bytes_per_tuple":
        return "bytes"
    if name.endswith(("rate", "share", "yield", "frac", "per_overdelete")):
        return "ratio"
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the pass binary; returns its path, or None on failure."""
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"run.py: cannot start cargo: {e}")
        return None
    if done.returncode != 0:
        log("run.py: building the benchmark failed")
        return None
    return os.path.join(target, "release", "perfbench-pass")


def git_commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_pass(exe, args, deadline, traced, setup_only=False):
    """One pass in a process of its own; returns its report or None."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0"]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: pass failed: {e}")
        return None
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else None
    except ValueError:
        report = None
    if done.returncode != 0 or report is None or "error" in report:
        log(f"run.py: pass exited {done.returncode}: {done.stderr.strip()}")
        return None
    return report


def percentile(xs, q):
    """Linear-interpolated percentile of `xs` (q in [0, 1])."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(untraced, setups):
    announce = [x for p in untraced for x in p["announce_ms"]]
    withdraw = [x for p in untraced for x in p["withdraw_ms"]]
    apply_s = (sum(announce) + sum(withdraw)) / 1e3
    metrics = {
        "setup_s": statistics.median(setups),
        "analysis_s": statistics.median(p["analysis_s"] for p in untraced),
        "announce_p50_ms": percentile(announce, 0.5),
        "announce_p90_ms": percentile(announce, 0.9),
        "withdraw_p50_ms": percentile(withdraw, 0.5),
        "withdraw_p90_ms": percentile(withdraw, 0.9),
        "updates_per_s": (len(announce) + len(withdraw)) / apply_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    samples = {
        "setup_s": f"{len(setups)} set-ups",
        "analysis_s": f"{len(untraced)} passes",
        "announce_p50_ms": f"{len(announce)} announcements",
        "announce_p90_ms": f"{len(announce)} announcements",
        "withdraw_p50_ms": f"{len(withdraw)} withdrawals",
        "withdraw_p90_ms": f"{len(withdraw)} withdrawals",
        "updates_per_s": f"{len(announce) + len(withdraw)} updates, 1 caller",
        "peak_rss_mb": f"{len(untraced)} passes",
    }
    return metrics, samples


def per_layer(traced, untraced):
    names = list(traced[0]["layers"])
    metrics = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
    traced_wall = statistics.median(p["timed_wall_s"] for p in traced)
    untraced_wall = statistics.median(p["timed_wall_s"] for p in untraced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    if exe is None:
        return 1

    started = time.monotonic()
    deadline = started + DEADLINE_S
    crashed = 0
    setups, untraced, traced, reports = [], [], [], []
    for _ in range(SETUP_ONLY_PASSES):
        r = run_pass(exe, args, deadline, traced=False, setup_only=True)
        if r is None:
            crashed += 1
            continue
        reports.append(r)
        setups.append(r["setup_s"])

    # Measured passes until the next one would overrun --seconds: at
    # least one of each kind the run reports and, when the end-to-end
    # metrics are the result, the minimums above.
    longest = 0.0
    i = 0
    while True:
        want_trace = args.trace == 1 and i % 2 == 1
        t0 = time.monotonic()
        r = run_pass(exe, args, deadline, traced=want_trace)
        longest = max(longest, time.monotonic() - t0)
        i += 1
        if r is None:
            crashed += 1
        else:
            reports.append(r)
            (traced if want_trace else untraced).append(r)
            if not want_trace:
                setups.append(r["setup_s"])
        if crashed > 2 or time.monotonic() > deadline:
            break
        pooled = min(sum(len(p["announce_ms"]) for p in untraced),
                     sum(len(p["withdraw_ms"]) for p in untraced))
        enough = len(untraced) >= MIN_PASSES and pooled >= MIN_UPDATE_SAMPLES
        have_all = (untraced and (traced or args.trace == 0)
                    and (enough or args.trace == 1 or args.smoke))
        if have_all and time.monotonic() - started + longest > args.seconds:
            break

    if not untraced or (args.trace == 1 and not traced):
        log("run.py: no measured pass completed")
        return 1

    attempted = sum(r["attempted"] for r in reports) + crashed
    failed = sum(r["failed"] for r in reports) + crashed
    checks = [c for r in reports for c in r["checks"]]
    correct = failed == 0 and all(c["ok"] for c in checks)

    first = untraced[0]
    prov = dict(first["provenance"])
    prov.update({
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": first["size"],
        "params": first["params"],
        "passes": {"untraced": len(untraced), "traced": len(traced),
                   "setup_only": len(setups) - len(untraced), "crashed": crashed},
        "pool_size_before": sorted({r["pool_size_before"] for r in reports}),
    })
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    seen = set()
    for c in checks:
        if c["name"] not in seen or not c["ok"]:
            seen.add(c["name"])
            print(f"# check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")

    e2e, samples = end_to_end(untraced, setups)
    for name, value in e2e.items():
        print(f"# e2e {name} = {value:.6g} {E2E_UNITS[name]} ({samples[name]})")
    print(f"# e2e failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    if args.trace == 1:
        layers = per_layer(traced, untraced)
        for name, value in layers.items():
            print(f"# layer {name} = {value:.6g} {layer_unit(name)}")
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in layers.items()}
    else:
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in e2e.items()}
    print(f"# verdict correct={str(correct).lower()} attempted={attempted} failed={failed}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
