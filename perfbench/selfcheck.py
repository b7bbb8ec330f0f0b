"""Quick self-check of the benchmark itself.

1. Every checker flags a deliberately corrupted output and passes the
   real one, a job failure other than the known classify defect makes
   the result incorrect, and the speed gauge reads a job made of
   reference kernel runs at their nominal time.
2. A short run of every workload, untraced and traced, prints every
   metric named in BENCHMARK.json with its unit.
3. In a directory holding only BENCHMARK.json and perfbench/ (no gha
   sources) the benchmark exits non-zero without printing a result.

    python3 perfbench/selfcheck.py     # from the root of a gha checkout; about 3 minutes
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_out", "selfcheck")

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def check_normal_forms() -> None:
    import normal_forms
    from common import cli

    state = normal_forms.setup(0)
    cell = ("h^2 + 1", 2, 3)
    _, out, _ = cli(["normalize", "-f", cell[0], "-e", f"y^{cell[1]}*x^{cell[2]}"])
    expect(state.oracle_problem(cell, out) is None, "normal_forms: oracle accepts the real normal form")
    corrupted = out.replace("h^", "2*h^", 1)
    expect(corrupted != out and state.oracle_problem(cell, corrupted) is not None, "normal_forms: oracle flags a changed coefficient")
    expect(state.oracle_problem(cell, out.strip() + " + y") is not None, "normal_forms: oracle flags an extra term")


def check_products() -> None:
    import products
    from common import Runner

    state = products.setup(0)
    _, a, b = state.pairs[0]
    good = a * b
    expect(state.oracle_problem(0, good) is None, "products: oracle accepts a*b")
    bad = good + a.presentation.generator("x")
    expect(state.oracle_problem(0, bad) is not None, "products: oracle flags a*b + x")
    runner, outputs = Runner(), {}
    runner.check_repeatable(outputs, 0, "first", good, state.oracle_problem)
    runner.check_repeatable(outputs, 0, "repeat", bad, state.oracle_problem)
    runner.check()
    expect([label for label, _ in runner.failures] == ["repeat"], "products: a repeat that differs from the first output fails")
    runner, outputs = Runner(), {}
    for label in ("first", "again"):
        runner.check_repeatable(outputs, 0, label, bad, state.oracle_problem)
    runner.check()
    expect(len(runner.failures) == 2, "products: a repeat equal to a wrong first output fails with it")


def check_gauge() -> None:
    from common import Runner, measure
    from gauge import REF_NOMINAL_S, SpeedGauge, reference_kernel

    kernels = 400

    def run_round(runner):
        for _ in range(3):
            runner.run("kernel", lambda: [reference_kernel() for _ in range(kernels)])

    runner = Runner(gauge=SpeedGauge())
    measure(run_round, runner, 1.0)
    ratios = [lat / (kernels * REF_NOMINAL_S) for lat in runner.scaled_latencies()]
    expect(all(0.8 < r < 1.25 for r in ratios),
           "gauge: a job of n reference kernels reads as n * REF_NOMINAL_S at any machine speed"
           f" (ratios {' '.join(f'{r:.3f}' for r in ratios)})")


def check_census() -> None:
    import census
    from common import cli

    f, desc = "h^2", {"variant": "nilpotent_x", "zdot": "0", "n": 1}
    _, mod, _ = cli(["build", "-f", f, "--descriptor", json.dumps(desc)])
    _, ver, _ = cli(["--json", "verify", "-f", f, "--module", mod])
    expect(census.check_verify(ver) is None, "census: verify check accepts ok")
    bad = json.loads(ver)
    bad["ok"] = False
    expect(census.check_verify(json.dumps(bad)) is not None, "census: verify check flags ok = false")
    _, cls, _ = cli(["classify", "-f", f, "--module", mod])
    expect(census.check_classify(cls, desc, "exact") is None, "census: classify round-trip accepted")
    wrong = dict(desc, zdot="1")
    expect(census.check_classify(cls, wrong, "exact") is not None, "census: classify round-trip flags another zdot")
    expect(census.check_simple(True) is None and census.check_simple(False) is not None, "census: is_simple check")

    import gha

    f1 = "h^2 + 1"
    f2 = str(gha.affine_conjugate(gha.parse_poly(f1), gha.exact(1) / 2, gha.exact(1)))
    _, iso, _ = cli(["iso", f"-f1={f1}", f"-f2={f2}"])
    expect(census.check_iso(iso, f1, f2, True) is None, "census: iso check accepts a true witness")
    expect(census.check_iso(iso, f1, f2, False) is not None, "census: iso check flags a wrong verdict")
    doc = json.loads(iso)
    doc["witness"]["c"] = "7"
    expect(census.check_iso(json.dumps(doc), f1, f2, True) is not None, "census: iso check flags a bad witness")

    f = "zeta(3)*h + 1"
    _, cen, _ = cli(["center", "-f", f])
    expect(census.check_center(cen, f, 3) is None, "census: center check accepts the real generators")
    doc = json.loads(cen)
    doc["generators"][0] = "x"
    expect(census.check_center(json.dumps(doc), f, 3) is not None, "census: center check flags a non-central generator")


def check_failure_gate() -> None:
    import census
    import gha.cli
    from common import KNOWN_DEFECT, Runner, is_known_defect
    from run import report_failures

    known = ("classify -f 'h^2 + 2*h - 3/4' (n=4, cell backend approx) --backend approx module of {}",
             f"ClassifyError: {KNOWN_DEFECT}")
    expect(is_known_defect(known), "failures: the known classify defect is recognised")
    other_cell = ("classify -f 'h^2 - 1' (n=4, cell backend approx) --backend approx module of {}", known[1])
    expect(not is_known_defect(other_cell), "failures: the same error on another cell is unexpected")
    expect(not is_known_defect((known[0], "wrong output: x")), "failures: a wrong classify output is unexpected")

    def crash(argv):
        raise RuntimeError("injected crash")

    runner, real = Runner(), gha.cli.main
    gha.cli.main = crash
    try:
        census.setup(0)._center(runner, "zeta(3)*h + 1", 3)
    finally:
        gha.cli.main = real
    expect(report_failures(runner.failures, runner.attempted) == 1, "failures: a crashing center job is unexpected")


def short_runs() -> None:
    from run import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = bench["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            what = f"{workload} --trace {trace}"
            if done.returncode != 0:
                expect(False, f"{what}: exit code {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{what}: result keys")
            expect(result["attempted"] >= 1 and result["correct"] is True, f"{what}: jobs ran and outputs are correct")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{what}: every {section} metric printed with its unit")


def bare_directory() -> None:
    bare = os.path.join(WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "products_warm", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and not done.stdout.strip(), "bare directory: exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "gha", "__init__.py")):
        print("selfcheck: run from the root of a gha checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    check_normal_forms()
    check_products()
    check_census()
    check_failure_gate()
    check_gauge()
    bare_directory()
    short_runs()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
