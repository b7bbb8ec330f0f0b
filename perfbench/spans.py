"""Layer-by-layer tracing of the gha package, from outside it.

``Tracer.install`` wraps the public functions of every gha module and the
public methods and arithmetic operators of its public classes.  Every
module's binding of a wrapped function is replaced, so ``structure.roots``
is traced as well as ``polys.roots``.  ``uninstall`` puts the originals
back.

Each call opens a span on a stack.  A span's self time is its duration
minus the time covered by the spans it opened; a layer's self time is the
sum over its spans.  Spans of every layer except ``scalars`` are also kept
in memory (name, start, end, parent, job) and written out at the end;
scalar operations run millions of times per run, so they are aggregated
per name only.  Scalar operations are counted only when called from
outside the scalar layer, so an operator that delegates to another counts
once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("scalars", "polys", "algebra", "structure", "modules", "linalg", "parser", "schemas", "cli")
OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__divmod__",
    "__neg__", "__pow__", "__eq__", "__ne__", "__str__",
}
SPAN_CAP = 400_000

# per-layer metric -> (unit, better)
PER_LAYER = {
    "scalars.exact_ops": ("count", "lower"),
    "scalars.exact_rational_share": ("ratio", "higher"),
    "scalars.approx_ops": ("count", "lower"),
    "scalars.self_s": ("s", "lower"),
    "polys.mul_calls": ("count", "lower"),
    "polys.mul_self_s": ("s", "lower"),
    "polys.mul_max_degree": ("count", "lower"),
    "polys.compose_calls": ("count", "lower"),
    "polys.compose_self_s": ("s", "lower"),
    "polys.divmod_calls": ("count", "lower"),
    "polys.gcd_calls": ("count", "lower"),
    "polys.divmod_self_s": ("s", "lower"),
    "polys.roots_calls": ("count", "lower"),
    "polys.roots_self_s": ("s", "lower"),
    "polys.exact_roots_calls": ("count", "lower"),
    "polys.exact_roots_self_s": ("s", "lower"),
    "polys.exact_split_share": ("ratio", "higher"),
    "polys.periodic_points_self_s": ("s", "lower"),
    "polys.iterate_calls": ("count", "lower"),
    "polys.self_s": ("s", "lower"),
    "algebra.middle_reductions": ("count", "lower"),
    "algebra.mul_calls": ("count", "lower"),
    "algebra.mul_self_s": ("s", "lower"),
    "algebra.f_iterate_self_s": ("s", "lower"),
    "algebra.result_terms": ("count", "lower"),
    "algebra.self_s": ("s", "lower"),
    "structure.self_s": ("s", "lower"),
    "structure.iso_check_calls": ("count", "lower"),
    "structure.iso_check_self_s": ("s", "lower"),
    "structure.center_self_s": ("s", "lower"),
    "structure.numeric_witness_share": ("ratio", "lower"),
    "modules.enumerate_self_s": ("s", "lower"),
    "modules.families": ("count", "higher"),
    "modules.numeric_family_share": ("ratio", "lower"),
    "modules.build_self_s": ("s", "lower"),
    "modules.verify_self_s": ("s", "lower"),
    "modules.is_simple_self_s": ("s", "lower"),
    "modules.classify_self_s": ("s", "lower"),
    "modules.self_s": ("s", "lower"),
    "linalg.mat_mul_calls": ("count", "lower"),
    "linalg.mat_mul_self_s": ("s", "lower"),
    "linalg.echelon_inserts": ("count", "lower"),
    "linalg.echelon_useful_share": ("ratio", "higher"),
    "linalg.echelon_self_s": ("s", "lower"),
    "linalg.charpoly_self_s": ("s", "lower"),
    "linalg.self_s": ("s", "lower"),
    "parser.self_s": ("s", "lower"),
    "schemas.self_s": ("s", "lower"),
    "schemas.bytes_out": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_jobs_per_s": ("1/s", "lower"),
}

# metric -> traced names whose call counts ("calls") or self times ("self") add up to it
_SUMS = {
    "polys.mul_calls": ("calls", ["polys.Poly.__mul__", "polys.Poly.__rmul__"]),
    "polys.mul_self_s": ("self", ["polys.Poly.__mul__", "polys.Poly.__rmul__"]),
    "polys.compose_calls": ("calls", ["polys.Poly.compose"]),
    "polys.compose_self_s": ("self", ["polys.Poly.compose"]),
    "polys.divmod_calls": ("calls", ["polys.Poly.__divmod__"]),
    "polys.gcd_calls": ("calls", ["polys.poly_gcd"]),
    "polys.divmod_self_s": ("self", ["polys.Poly.__divmod__", "polys.Poly.__floordiv__", "polys.Poly.__mod__"]),
    "polys.roots_calls": ("calls", ["polys.roots"]),
    "polys.roots_self_s": ("self", ["polys.roots"]),
    "polys.exact_roots_calls": ("calls", ["polys.exact_roots"]),
    "polys.exact_roots_self_s": ("self", ["polys.exact_roots"]),
    "polys.periodic_points_self_s": ("self", ["polys.periodic_points"]),
    "polys.iterate_calls": ("calls", ["polys.iterate"]),
    "algebra.mul_calls": ("calls", ["algebra.GHAElement.__mul__", "algebra.GHAElement.__rmul__"]),
    "algebra.mul_self_s": ("self", ["algebra.GHAElement.__mul__", "algebra.GHAElement.__rmul__"]),
    "algebra.f_iterate_self_s": ("self", ["algebra.Presentation.f_iterate"]),
    "structure.iso_check_calls": ("calls", ["structure.iso_check"]),
    "structure.iso_check_self_s": ("self", ["structure.iso_check"]),
    "structure.center_self_s": ("self", ["structure.center"]),
    "modules.enumerate_self_s": ("self", ["modules.enumerate_simples"]),
    "modules.build_self_s": ("self", ["modules.build"]),
    "modules.verify_self_s": ("self", ["modules.verify_relations"]),
    "modules.is_simple_self_s": ("self", ["modules.is_simple"]),
    "modules.classify_self_s": ("self", ["modules.classify"]),
    "linalg.mat_mul_calls": ("calls", ["linalg.mat_mul"]),
    "linalg.mat_mul_self_s": ("self", ["linalg.mat_mul"]),
    "linalg.echelon_inserts": ("calls", ["linalg.EchelonBasis.insert"]),
    "linalg.echelon_self_s": ("self", ["linalg.EchelonBasis.insert", "linalg.EchelonBasis.contains"]),
    "linalg.charpoly_self_s": ("self", ["linalg.charpoly"]),
}


class Tracer:
    def __init__(self) -> None:
        self.job = 0
        self.paused = False  # set while the benchmark itself calls gha between jobs
        self.stats: dict[str, list] = {}  # traced name -> [calls, self seconds]
        self.counts: dict[str, float] = {}
        self.names: list[str] = []
        self.s_name, self.s_parent, self.s_job = array("i"), array("i"), array("i")
        self.s_start, self.s_end = array("d"), array("d")
        self.dropped = 0
        self.presentations: list = []
        self._stack: list[list] = []  # open spans: [child seconds, stored index, is scalar]
        self._restore: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        import gha

        modules = [gha] + [importlib.import_module(f"gha.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gha.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])
        self._hook_presentations()

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") or name in OPERATORS
            if not public:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, qual, layer))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(attr.__func__, qual, layer)))

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _hook_presentations(self) -> None:
        from gha.algebra import Presentation

        init = Presentation.__init__
        seen = self.presentations

        def __init__(pres, *args, **kwargs):
            init(pres, *args, **kwargs)
            seen.append(pres)

        self._set(Presentation, "__init__", __init__)

    def end_job(self) -> int:
        """Middle reductions done by the presentations the last job created."""
        done = sum(p.middle_reductions for p in self.presentations)
        self.presentations.clear()
        return done

    # -- the span wrapper ------------------------------------------------------

    def _wrap(self, fn, qual: str, layer: str):
        stat = self.stats.setdefault(qual, [0, 0.0])
        observe = _OBSERVERS.get(qual)
        scalar = layer == "scalars"
        counts = self.counts
        ops_key = None
        if scalar and ".CyclotomicNumber." in qual:
            ops_key = "exact"
        elif scalar and ".ApproxComplex." in qual:
            ops_key = "approx"
        name_id = len(self.names)
        self.names.append(qual)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            idx = -1
            if not scalar:
                idx = tracer._open(name_id, parent[1] if parent else -1)
            elif ops_key is not None and (parent is None or not parent[2]):
                counts[ops_key] = counts.get(ops_key, 0) + 1
                if ops_key == "exact" and all(getattr(a, "conductor", 1) == 1 for a in args):
                    counts["exact_rational"] = counts.get("exact_rational", 0) + 1
            frame = [0.0, idx if idx >= 0 else (parent[1] if parent else -1), scalar]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += (t1 - t0) - frame[0]
                if parent is not None:
                    parent[0] += t1 - t0
                if idx >= 0:
                    tracer.s_start[idx] = t0
                    tracer.s_end[idx] = t1
            if observe is not None:
                observe(counts, args, out)
            return out

        return functools.wraps(fn)(traced)

    def _open(self, name_id: int, parent: int) -> int:
        if len(self.s_name) >= SPAN_CAP:
            self.dropped += 1
            return -1
        self.s_name.append(name_id)
        self.s_parent.append(parent)
        self.s_job.append(self.job)
        self.s_start.append(0.0)
        self.s_end.append(0.0)
        return len(self.s_name) - 1

    # -- results --------------------------------------------------------------

    def metrics(self, middle_reductions: int, bytes_out: int, overhead_jobs_per_s: float) -> dict:
        c = self.counts.get
        out: dict[str, float] = {}
        for metric, (kind, quals) in _SUMS.items():
            column = 0 if kind == "calls" else 1
            out[metric] = sum(self.stats[q][column] for q in quals if q in self.stats)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for q, (_, s) in self.stats.items() if q.startswith(layer + "."))
        out["scalars.exact_ops"] = c("exact", 0)
        out["scalars.exact_rational_share"] = _share(c("exact_rational", 0), c("exact", 0))
        out["scalars.approx_ops"] = c("approx", 0)
        out["polys.mul_max_degree"] = c("mul_max_degree", 0)
        out["polys.exact_split_share"] = _share(c("exact_split", 0), out["polys.exact_roots_calls"])
        out["algebra.middle_reductions"] = middle_reductions
        out["algebra.result_terms"] = c("result_terms", 0)
        out["structure.numeric_witness_share"] = _share(c("numeric_witness", 0), out["structure.iso_check_calls"])
        out["modules.families"] = c("families", 0)
        out["modules.numeric_family_share"] = _share(c("numeric_families", 0), c("families", 0))
        out["linalg.echelon_useful_share"] = _share(c("echelon_useful", 0), out["linalg.echelon_inserts"])
        out["schemas.bytes_out"] = bytes_out
        out["trace.overhead_jobs_per_s"] = overhead_jobs_per_s
        return {name: out[name] for name in PER_LAYER}

    def write(self, path: str) -> int:
        """Write the kept spans as tab-separated name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.s_name)):
                fh.write(
                    f"{i}\t{self.names[self.s_name[i]]}\t{self.s_start[i]:.9f}\t"
                    f"{self.s_end[i]:.9f}\t{self.s_parent[i]}\t{self.s_job[i]}\n"
                )
        return len(self.s_name)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _bump(counts: dict, key: str, by: float = 1) -> None:
    counts[key] = counts.get(key, 0) + by


def _poly_mul(counts, args, out) -> None:
    if hasattr(out, "coeffs") and len(out.coeffs) - 1 > counts.get("mul_max_degree", 0):
        counts["mul_max_degree"] = len(out.coeffs) - 1


def _exact_roots(counts, args, out) -> None:
    if out[1].degree == 0:
        _bump(counts, "exact_split")


def _element_mul(counts, args, out) -> None:
    if hasattr(out, "terms"):
        _bump(counts, "result_terms", len(out.terms))


def _iso(counts, args, out) -> None:
    if out.numeric_witness:
        _bump(counts, "numeric_witness")


def _families(counts, args, out) -> None:
    _bump(counts, "families", len(out))
    _bump(counts, "numeric_families", sum(any("numeric" in n for n in fam.notes) for fam in out))


def _insert(counts, args, out) -> None:
    if out:
        _bump(counts, "echelon_useful")


_OBSERVERS = {
    "polys.Poly.__mul__": _poly_mul,
    "polys.Poly.__rmul__": _poly_mul,
    "polys.exact_roots": _exact_roots,
    "algebra.GHAElement.__mul__": _element_mul,
    "algebra.GHAElement.__rmul__": _element_mul,
    "structure.iso_check": _iso,
    "modules.enumerate_simples": _families,
    "linalg.EchelonBasis.insert": _insert,
}
