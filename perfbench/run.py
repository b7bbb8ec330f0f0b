"""Benchmark of the gha package: three seeded closed-loop workloads.

Run from the root of a gha checkout:

    python3 perfbench/run.py --workload normal_forms_cold --seed 1 --seconds 25 --trace 0

Workloads (see each module's docstring for why it was chosen):
    normal_forms_cold   gha normalize, fresh Presentation per job
    products_warm       element products in a warmed library session
    census_pipeline     gha simples -> build -> verify -> classify, is_simple, iso, center

One client runs the jobs of a workload one after another in this process
(closed loop, one thread).  Whole rounds of the seeded job mix repeat
until the timed part is as close to ``--seconds`` as whole rounds allow
(at least one round runs).  Outputs are checked after the timed region.
A job that fails in any way other than the known ``classify`` defect of
the census (see census.py) makes the result incorrect.  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time below is read at the reference speed of the speed gauge (see
gauge.py): a wall time less the gauge's samples inside it, times
REF_NOMINAL_S over the time of a fixed reference kernel that a timer
signal runs every 25 ms during it.  The raw wall times are printed on the
lines above the result.

``--trace 0`` reports the end-to-end metrics:
    jobs_per_s    jobs finished per second of job time, the median over the
                  rounds of the run
    job_p50_ms    median job latency
    job_p90_ms    90th percentile job latency (at --seconds 25 a run has at
                  least 154 jobs while its rounds take under 16 s)
    setup_s       from the start of the gauge, at the top of this script, to
                  the first timed job: importing gha, making and parsing the
                  inputs, warming caches; median of this process and
                  SETUP_CHILDREN fresh processes, half of them started before
                  the timed region, half after
    peak_rss_mb   ru_maxrss of this process at the end of the timed region
    ok_ratio      share of attempted jobs that neither raised, nor returned an
                  unexpected exit code, nor failed their check (1 - failed_ratio)

``--trace 1`` first runs untraced rounds for half of ``--seconds``, then
wraps the gha modules (see spans.py) and runs traced rounds for the other
half.  It reports the per-layer metrics and the tracing overhead, and
writes the spans to .perfbench_out/.
"""

import time

from gauge import SpeedGauge  # standard library only, so set-up is timed against the gauge too

GAUGE = SpeedGauge()
GAUGE.start()
START = time.perf_counter()

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter

from spans import PER_LAYER, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = {
    "normal_forms_cold": "normal_forms",
    "products_warm": "products",
    "census_pipeline": "census",
}
SETUP_CHILDREN = 12
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "gha", "__init__.py")):
        print(f"perfbench: no gha sources under {SRC}; run from the root of a gha checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = importlib.import_module(WORKLOADS[args.workload])
    state = workload.setup(args.seed)
    setup_wall = time.perf_counter() - START
    GAUGE.settle()
    setup_s = GAUGE.scaled(START, setup_wall)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        runners, metrics = traced_run(args, state, GAUGE)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        runners, metrics = plain_run(args, state, setup_s, GAUGE)
        units = END_TO_END
    attempted = sum(r.attempted for r in runners)
    failures = [f for r in runners for f in r.failures]
    unexpected = report_failures(failures, attempted)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": unexpected == 0,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


def _long_lived_middles(state) -> int:
    return sum(p.middle_reductions for p in state.presentations)


def plain_run(args, state, setup_s, gauge):
    from common import Runner, measure

    # Fresh set-ups before and after the timed region, so that the median
    # does not rest on one moment of a machine whose speed drifts.
    setups = [setup_s] + [child_setup(args) for _ in range(SETUP_CHILDREN // 2)]
    runner = Runner(gauge=gauge)
    middles = _long_lived_middles(state)
    rounds = measure(state.run_round, runner, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    middles = _long_lived_middles(state) - middles
    setups += [child_setup(args) for _ in range(SETUP_CHILDREN - SETUP_CHILDREN // 2)]
    runner.check()
    lat = runner.scaled_latencies()
    print(describe_rounds(rounds, runner.latencies, "wall"))
    print(describe_rounds(rounds, lat, "at reference speed"))
    print(describe_gauge(gauge))
    if state.presentations:
        print(f"  middle reductions in the timed region of the long-lived presentations: {middles}")
    print("  setup runs at reference speed (s): " + " ".join(f"{s:.4f}" for s in setups))
    metrics = {
        "jobs_per_s": jobs_per_s(rounds, lat),
        "job_p50_ms": statistics.median(lat) * 1000.0,
        "job_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "ok_ratio": 1.0 - len(runner.failures) / runner.attempted,
    }
    return [runner], metrics


def jobs_per_s(rounds, latencies) -> float:
    """Median over rounds of the round's jobs over the sum of their latencies."""
    return statistics.median(len(r) / sum(latencies[r.start : r.stop]) for r in rounds)


def describe_rounds(rounds, latencies, what) -> str:
    jobs, busy = sum(len(r) for r in rounds), sum(latencies)
    rates = " ".join(f"{len(r) / sum(latencies[r.start : r.stop]):.4g}" for r in rounds)
    return f"  {jobs} jobs in {len(rounds)} rounds, {busy:.3f} s of job time {what}; jobs/s per round: {rates}"


def describe_gauge(gauge) -> str:
    return "  speed gauge: " + gauge.quantiles_ms()


def child_setup(args) -> float:
    """Set-up time of a fresh process for the same workload and seed, at the
    reference speed of its own gauge."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def traced_run(args, state, gauge):
    from common import Runner, measure

    plain = Runner(gauge=gauge)
    rounds_plain = measure(state.run_round, plain, args.seconds / 2)
    tracer = Tracer()
    traced = Runner(tracer, gauge)
    middles = _long_lived_middles(state)
    tracer.install()
    try:
        rounds_traced = measure(state.run_round, traced, args.seconds / 2)
    finally:
        tracer.uninstall()
    middles = _long_lived_middles(state) - middles + sum(traced.job_middle_reductions)
    plain.check()
    traced.check()
    lat_plain, lat_traced = plain.scaled_latencies(), traced.scaled_latencies()
    rate_plain, rate_traced = jobs_per_s(rounds_plain, lat_plain), jobs_per_s(rounds_traced, lat_traced)
    print("  untraced:" + describe_rounds(rounds_plain, lat_plain, "at reference speed"))
    print("  traced:  " + describe_rounds(rounds_traced, lat_traced, "at reference speed"))
    print(describe_gauge(gauge))
    no_middle = sum(1 for n in traced.job_middle_reductions if n == 0)
    print(f"  middle reductions: {middles} in the traced region; {no_middle} of {traced.attempted} jobs did none")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.tsv")
    kept = tracer.write(path)
    print(f"  spans: {kept} kept in {os.path.relpath(path, ROOT)}, {tracer.dropped} over the cap not kept")
    metrics = tracer.metrics(middles, traced.json_bytes, rate_plain - rate_traced)
    return [plain, traced], metrics


def report_failures(failures, attempted) -> int:
    """List every failed job by input, once per distinct input with a count.

    Returns the number of failures that are not the known classify defect.
    """
    from common import KNOWN_DEFECT, is_known_defect

    counts = Counter(failures)
    unexpected = sum(1 for f in failures if not is_known_defect(f))
    print(f"  failed {len(failures)} of {attempted} jobs ({len(counts)} distinct inputs)")
    if failures:
        print(f"  of which {len(failures) - unexpected} are the known classify defect '{KNOWN_DEFECT}'"
              f" and {unexpected} are unexpected")
    for (label, why), n in sorted(counts.items()):
        tag = "FAILED" if is_known_defect((label, why)) else "FAILED (unexpected)"
        print(f"  {tag} x{n}: {label}\n      {why}")
    return unexpected


if __name__ == "__main__":
    try:
        code = main()
    finally:
        GAUGE.stop()  # also on the paths out before set-up ends, where it still runs
    sys.exit(code)
