"""Census of finite-dimensional simple modules over a panel of H(f).

For each f and each dimension n this enumerates the families, counts them
by kind, and reports whether the orbit data stayed exact or fell back to
numerics.  With --check every sampled instantiation is also built,
verified against the defining relations, tested for simplicity, and
classified back to its descriptor.

Usage:
    python3 scripts/simple_module_census.py
    python3 scripts/simple_module_census.py --max-dim 5 --check
    python3 scripts/simple_module_census.py --fs "h^2,zeta(5)*h" --samples 3
"""

import argparse
import time

from gha import (
    CYCLIC_X,
    CYCLIC_Y,
    NILPOTENT_X,
    build,
    classify,
    enumerate_simples,
    is_simple,
    modules_isomorphic,
    parse_poly,
    verify_relations,
)

DEFAULT_PANEL = [
    "zeta(3)*h",
    "zeta(4)*h",
    "h^2",
    "h^3",
    "h^2 - 1",
    "h^2 + 2*h - 3/4",
    "2*h + 1",
]


def monomial_conductor_hint(f, n):
    """For f = h^m the dimension-n orbits live in Q(zeta_{m^n - 1})."""
    m = f.degree
    if m < 2 or n > 6:
        return None
    if f != parse_poly(f"h^{m}", "exact"):
        return None
    hint = m**n - 1
    return hint if hint > 1 else None


def census_row(f_text, n, samples, check):
    f = parse_poly(f_text, "exact")
    hint = monomial_conductor_hint(f, n)
    t0 = time.perf_counter()
    try:
        fams = enumerate_simples(f, n, samples=samples, conductor=hint)
    except ValueError as exc:
        return f"  n={n}: skipped ({exc})"
    elapsed = (time.perf_counter() - t0) * 1000.0

    counts = {CYCLIC_X: 0, CYCLIC_Y: 0, NILPOTENT_X: 0}
    numeric = 0
    continuum = 0
    built = 0
    for fam in fams:
        counts[fam.variant] += 1
        if any("numeric" in note for note in fam.notes):
            numeric += 1
        if fam.continuum_orbit:
            continuum += 1
        if check:
            f_used = f.approx() if any("numeric" in note for note in fam.notes) else f
            for d in fam.instantiations:
                m = build(d, f_used)
                rep = verify_relations(m, f_used)
                if not rep.ok:
                    raise SystemExit(f"relation check failed for {d} over f = {f_text}")
                if not is_simple(m):
                    raise SystemExit(f"non-simple instantiation {d} over f = {f_text}")
                if not modules_isomorphic(classify(m, f_used), d):
                    raise SystemExit(f"classify round-trip failed for {d} over f = {f_text}")
                built += 1

    tags = []
    if continuum:
        tags.append(f"{continuum} continuum")
    if numeric:
        tags.append(f"{numeric} numeric")
    if hint is not None:
        tags.append(f"hint zeta_{hint}")
    if check:
        tags.append(f"{built} instantiations checked")
    tail = f"  [{', '.join(tags)}]" if tags else ""
    return (
        f"  n={n}: {len(fams):3d} families "
        f"(cyclic_x {counts[CYCLIC_X]}, cyclic_y {counts[CYCLIC_Y]}, "
        f"nilpotent_x {counts[NILPOTENT_X]}) in {elapsed:7.1f} ms{tail}"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-dim", type=int, default=4, help="largest dimension to survey")
    ap.add_argument("--samples", type=int, default=2, help="sampled members per family parameter and orbits per continuum")
    ap.add_argument("--fs", type=str, default=None, help="comma-separated f list overriding the panel")
    ap.add_argument("--check", action="store_true", help="build, verify and classify every instantiation")
    args = ap.parse_args()

    panel = [t.strip() for t in args.fs.split(",")] if args.fs else DEFAULT_PANEL

    grand = time.perf_counter()
    for f_text in panel:
        print(f"f = {f_text}")
        for n in range(1, args.max_dim + 1):
            print(census_row(f_text, n, args.samples, args.check), flush=True)
    print(f"total {time.perf_counter() - grand:.1f}s")


if __name__ == "__main__":
    main()
