"""Shared pieces of the gha benchmark: the in-process CLI call, the job
runner and the closed-loop measurement.

Every workload is a closed loop with one client: the next job starts only
after the previous one has returned.  A workload runs *rounds*; a round is
a fixed job mix drawn from the seed once per run.  ``measure`` repeats
whole rounds until the timed part is as close to the requested number of
seconds as whole rounds allow (and runs at least one), so every run
measures the same mix in the same proportions and ``jobs_per_s`` does not
depend on where a time limit happened to cut a round.

Job latencies are read against the speed gauge of gauge.py, which runs
while rounds run.
"""

from __future__ import annotations

import contextlib
import io
import time
from array import array

import gha.cli
from gauge import SpeedGauge

clock = time.perf_counter

# ``classify`` raises this on some numeric instantiations of f = h^2 + 2*h - 3/4,
# n = 4 (see census.py).  Runs count and list these failures; they are not hidden.
# Any other failure makes the run's result incorrect.
KNOWN_DEFECT = "h-spectrum is not a single f-orbit"
KNOWN_DEFECT_LABEL = "classify -f 'h^2 + 2*h - 3/4' (n=4,"


def is_known_defect(failure: tuple[str, str]) -> bool:
    """True for a ``classify`` job of the known-defect cell that raised the known error."""
    label, why = failure
    return label.startswith(KNOWN_DEFECT_LABEL) and KNOWN_DEFECT in why


class JobError(Exception):
    """A job returned an unexpected exit code."""


def cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``gha <argv>`` in this process; returns (exit code, stdout, stderr).

    ``gha.cli.main`` is looked up at each call so that a traced run sees
    the wrapped function.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gha.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_job(argv: list[str], expect: int = 0):
    """A job that runs the CLI and returns its stdout, or raises JobError."""

    def job():
        code, out, err = cli(argv)
        if code != expect:
            raise JobError(f"exit code {code} (expected {expect}): {err.strip()}")
        return out

    return job


class Runner:
    """Times jobs one after another and collects their deferred checks.

    ``run`` times one job.  A job that raises counts as failed at once.
    Output checks are registered with ``defer`` and run by ``check`` after
    the timed region, so the oracles never share the clock with the code
    they check.
    """

    def __init__(self, tracer=None, gauge: SpeedGauge | None = None) -> None:
        self.tracer = tracer
        self.gauge = gauge
        self.starts = array("d")
        self.latencies = array("d")  # wall seconds
        self.failures: list[tuple[str, str]] = []
        self.json_bytes = 0
        self.job_middle_reductions: list[int] = []  # per job, traced runs only
        self._deferred: list[tuple[object, object]] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run(self, label, job):
        """Time ``job()``; returns its value, or None when it raised."""
        if self.tracer is not None:
            self.tracer.job = self.attempted + 1
        t0 = clock()
        try:
            value = job()
        except (Exception, SystemExit) as exc:  # SystemExit: argparse rejected argv
            value = None
            self.failures.append((_text(label), f"{type(exc).__name__}: {exc}"))
        self.latencies.append(clock() - t0)
        self.starts.append(t0)
        if self.tracer is not None:
            self.job_middle_reductions.append(self.tracer.end_job())
        if isinstance(value, str) and value.startswith("{"):
            self.json_bytes += len(value)
        return value

    def defer(self, label, check, times=None) -> None:
        """Register ``check()``, returning None when the output is right.

        A failed check counts ``times()`` failed jobs (one by default).
        """
        self._deferred.append((label, check, times))

    def check_repeatable(self, outputs: dict, key, label, out, oracle) -> None:
        """Check the first output for ``key`` with ``oracle(key, out)``, repeats by equality.

        Only the first output of each input is kept, so the outputs of later
        rounds do not pile up in memory (and in ``peak_rss_mb``).  A repeat
        equal to the first output only adds to its count and fails with it;
        so the memory a run keeps does not grow with its number of rounds.
        """
        first = outputs.get(key)
        if first is None:
            first = outputs[key] = {"out": out, "repeats": 0}
            self.defer(label, lambda: oracle(key, out), times=lambda: 1 + first["repeats"])
            return
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            same = out == first["out"]
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        if same:
            first["repeats"] += 1
        else:
            self.defer(label, lambda: "differs from the first output for the same input")

    def scaled_latencies(self) -> list[float]:
        """Job latencies at the reference speed of the gauge."""
        return [self.gauge.scaled(t0, lat) for t0, lat in zip(self.starts, self.latencies)]

    def check(self) -> None:
        for label, check, times in self._deferred:
            try:
                problem = check()
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failure = (_text(label), f"wrong output: {problem}")
                self.failures += [failure] * (1 if times is None else times())
        self._deferred.clear()


def _text(label) -> str:
    return label() if callable(label) else label


def measure(run_round, runner: Runner, seconds: float) -> list[range]:
    """Run whole rounds, at least one, until the timed part is as close to
    ``seconds`` as whole rounds allow, judging the next round by the last.

    Returns the indices of each round's jobs in the runner.
    """
    rounds = []
    start = clock()
    if runner.gauge is not None:
        runner.gauge.start()
    try:
        while True:
            first, t0 = runner.attempted, clock()
            run_round(runner)
            t1 = clock()
            rounds.append(range(first, runner.attempted))
            if t1 - start + (t1 - t0) / 2 >= seconds:
                return rounds
    finally:
        if runner.gauge is not None:
            runner.gauge.settle()
