"""census_pipeline: the simple-module census as a pipeline of CLI calls,
with seeded isomorphism and center queries mixed in.

Why: root finding and orbit search, Burnside echelon closure, small exact
polynomials and JSON.  There is no rewriting beyond ``center``'s x^l.

Cells (f, n, backend) are the panel of ``scripts/simple_module_census.py``
(copied here so the benchmark keeps its inputs when the script changes),
n <= 4, on both the exact and the approx backend.  Each cell runs
``gha simples`` with one instantiation per family (``--samples 1``: the
default of 2 doubles a round to about 45 s, too long for a run).  Every
instantiation then goes build -> verify -> classify through the CLI, with
the JSON of one step passed to the next, on the approx backend where the
family says it is numeric.  Each built module also gets one
``gha.is_simple`` call, the Burnside test of the census ``--check``.

The seed draws the isomorphism pairs, the center queries and the order of
the round.  A round runs every cell and every query once: first ``simples``
for every cell, then the pipelines of all instantiations and the queries,
interleaved.

Checks: ``verify`` reports ok, ``is_simple`` is true and ``classify``
round-trips under ``modules_isomorphic``.  ``iso`` verdicts match the
known answer of the constructed pair and the witness reproduces f2 under
``affine_conjugate``.  Every ``center`` generator passes ``is_central``.

Known defect, kept in the data and counted: on f = h^2 + 2*h - 3/4, n = 4,
``classify`` raises ``common.KNOWN_DEFECT`` ("h-spectrum is not a single
f-orbit") on 5 of the 15 instantiations of the exact cell (whose numeric
families run on the approx backend) and on 5 of the 25 of the approx cell.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import gha.schemas
from common import cli_job
from gha import (
    Poly,
    Presentation,
    affine_conjugate,
    compositional_inverse_linear,
    exact,
    is_central,
    modules_isomorphic,
    parse_element,
    parse_poly,
    parse_scalar,
    zeta,
)
from gha.schemas import descriptor_from_json

NAME = "census_pipeline"

PANEL = [
    "zeta(3)*h",
    "zeta(4)*h",
    "h^2",
    "h^3",
    "h^2 - 1",
    "h^2 + 2*h - 3/4",
    "2*h + 1",
]
MAX_DIM = 4
BACKENDS = ("exact", "approx")
SAMPLES = 1
# Cells too slow for a run, with the reason.
LEFT_OUT = {("h^3", 4, "exact"): "enumeration and checks take about 200 s"}

ISO_PER_KIND = 8
CENTER_QUERIES = 12


def conductor_hint(f_text: str, n: int) -> int | None:
    """For f = h^m the dimension-n orbits live in Q(zeta_{m^n - 1}), as in the census script."""
    f = parse_poly(f_text)
    m = f.degree
    if m < 2 or n > 6 or f != parse_poly(f"h^{m}"):
        return None
    hint = m**n - 1
    return hint if hint > 1 else None


def _q(rng: random.Random, pool) -> Fraction:
    return Fraction(rng.choice(pool))


_SMALL = [-3, -2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-1, 3)]
_NONZERO = [-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]


def _poly(rng: random.Random, deg: int) -> Poly:
    return Poly([exact(_q(rng, _SMALL)) for _ in range(deg)] + [exact(_q(rng, _NONZERO))])


def _monic_square(c) -> Poly:
    return Poly([exact(Fraction(c)), exact(0), exact(1)])


def iso_pairs(rng: random.Random) -> list[tuple[str, str, bool]]:
    """(f1, f2, isomorphic?) with a known answer, ISO_PER_KIND of each kind.

    Conjugates a*f1((h - c)/a) + c of a random f1 of degree 1, 2 or 3 are
    isomorphic.  Monic h^2 + c1 and h^2 + c2 with c1 != c2 are not: the
    only affine map fixing the shape h^2 + const is the identity.
    """
    out = []
    for _ in range(ISO_PER_KIND):
        for deg in (1, 2, 3):
            f1 = _poly(rng, deg)
            if deg == 1 and f1.coefficient(1) == exact(1):
                f1 = Poly([f1.coefficient(0), exact(2)])
            a, c = _q(rng, _NONZERO), _q(rng, _SMALL)
            out.append((str(f1), str(affine_conjugate(f1, a, c)), True))
        c1, c2 = rng.sample(_SMALL, 2)
        out.append((str(_monic_square(c1)), str(_monic_square(c2)), False))
    return out


def center_queries(rng: random.Random) -> list[tuple[str, int | None]]:
    """(f, l): f = zeta(l)*h + b has the cyclotomic center with that l; l None is trivial."""
    out = []
    for j in range(CENTER_QUERIES):
        if j % 2 == 0:
            l = rng.choice([3, 4, 5, 6])
            out.append((str(Poly([exact(_q(rng, _SMALL)), zeta(l)])), l))
        else:
            out.append((str(_poly(rng, 2)), None))
    return out


class State:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.cells = [
            (f_text, n, backend, conductor_hint(f_text, n) if backend == "exact" else None)
            for f_text in PANEL
            for n in range(1, MAX_DIM + 1)
            for backend in BACKENDS
            if (f_text, n, backend) not in LEFT_OUT
        ]
        self.queries = [("iso",) + pair for pair in iso_pairs(self.rng)]
        self.queries += [("center",) + query for query in center_queries(self.rng)]
        self.rng.shuffle(self.cells)
        self.presentations: list = []  # long-lived presentations: none

    def run_round(self, runner) -> None:
        """``simples`` for every cell, then every instantiation's pipeline and
        every query, interleaved in an order drawn from the seed.

        Interleaving gives every stretch of the round a mix of all cells'
        jobs, so a speed swing of the machine in the middle of a round
        touches every kind of job alike instead of one cell's many small jobs.
        """
        units = list(self.queries)
        for cell in self.cells:
            units += self._cell(runner, *cell)
        self.rng.shuffle(units)
        for kind, *args in units:
            getattr(self, "_" + kind)(runner, *args)

    def _cell(self, runner, f_text, n, backend, hint) -> list[tuple]:
        """Run ``gha simples`` for the cell; one ("instance", ...) unit per instantiation."""
        argv = ["--backend", backend, "--json"]
        if hint is not None:
            argv += ["--conductor", str(hint)]
        argv += ["simples", "-f", f_text, "-n", str(n), "--samples", str(SAMPLES)]
        out = runner.run(f"simples -f '{f_text}' -n {n} --backend {backend}", cli_job(argv))
        if out is None:
            return []
        units = []
        for fam in json.loads(out)["families"]:
            numeric = backend == "approx" or any("numeric" in note for note in fam["notes"])
            bk = "approx" if numeric else "exact"
            units += [("instance", f_text, n, backend, bk, desc) for desc in fam["instantiations"]]
        return units

    def _instance(self, runner, f_text, n, backend, bk, desc) -> None:
        where = f"-f '{f_text}' (n={n}, cell backend {backend}) --backend {bk}"
        dtext = json.dumps(desc)
        mod = runner.run(
            f"build {where} --descriptor '{dtext}'",
            cli_job(["--backend", bk, "build", "-f", f_text, "--descriptor", dtext]),
        )
        if mod is None:
            return
        label = f"{where} module of {dtext}"
        ver = runner.run(
            "verify " + label,
            cli_job(["--backend", bk, "--json", "verify", "-f", f_text, "--module", mod]),
        )
        if ver is not None:
            runner.defer("verify " + label, lambda ver=ver: check_verify(ver))
        cls = runner.run(
            "classify " + label,
            cli_job(["--backend", bk, "classify", "-f", f_text, "--module", mod]),
        )
        if cls is not None:
            runner.defer("classify " + label, lambda cls=cls: check_classify(cls, desc, bk))
        # looked up through the package at call time, so a traced run sees the wrappers
        simple = runner.run(
            "is_simple " + label, lambda: gha.is_simple(gha.schemas.module_from_json(json.loads(mod), bk))
        )
        if simple is not None:
            runner.defer("is_simple " + label, lambda simple=simple: check_simple(simple))

    def _iso(self, runner, f1, f2, isomorphic) -> None:
        label = f"iso -f1 '{f1}' -f2 '{f2}'"
        out = runner.run(label, cli_job(["iso", f"-f1={f1}", f"-f2={f2}"], expect=0 if isomorphic else 1))
        if out is not None:
            runner.defer(label, lambda: check_iso(out, f1, f2, isomorphic))

    def _center(self, runner, f_text, l) -> None:
        label = f"center -f '{f_text}'"
        out = runner.run(label, cli_job(["center", f"-f={f_text}"]))
        if out is not None:
            runner.defer(label, lambda: check_center(out, f_text, l))


def setup(seed: int) -> State:
    return State(seed)


# -- checks -------------------------------------------------------------------


def check_verify(out: str) -> str | None:
    doc = json.loads(out)
    return None if doc["ok"] is True else f"relations fail: {doc['failed']}"


def check_classify(out: str, desc: dict, backend: str) -> str | None:
    back = descriptor_from_json(json.loads(out)["descriptor"], backend)
    if modules_isomorphic(back, descriptor_from_json(desc, backend)):
        return None
    return f"classify returned {json.loads(out)['descriptor']}"


def check_simple(simple: bool) -> str | None:
    return None if simple is True else "is_simple is false"


def check_iso(out: str, f1_text: str, f2_text: str, isomorphic: bool) -> str | None:
    doc = json.loads(out)
    if doc["isomorphic"] is not isomorphic:
        return f"verdict {doc['isomorphic']}, known answer {isomorphic}"
    if not isomorphic:
        return None
    w = doc["witness"]
    if w is None:
        return "isomorphic verdict without a witness"
    backend = "approx" if doc["numeric_witness"] else "exact"
    f1, f2 = parse_poly(f1_text, backend), parse_poly(f2_text, backend)
    if w["swapped"]:
        f1 = compositional_inverse_linear(f1)
    if affine_conjugate(f1, parse_scalar(w["a"], backend), parse_scalar(w["c"], backend)) != f2:
        return f"witness {w} does not conjugate f1 onto f2"
    return None


def check_center(out: str, f_text: str, l: int | None) -> str | None:
    doc = json.loads(out)
    if doc["l"] != l:
        return f"center reports l = {doc['l']}, expected {l}"
    pres = Presentation(parse_poly(f_text))
    for gen in doc["generators"]:
        if not is_central(parse_element(gen, pres)):
            return f"generator {gen} is not central"
    return None
