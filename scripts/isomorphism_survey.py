"""Random survey of the isomorphism decision between H(f1) and H(f2).

Three experiments:

1. conjugates: draw f of degree 2..max-degree and a random affine change
   of variable, ask whether H(f) and H(conjugate) are recognized as
   isomorphic, and re-verify every returned witness independently.  Every
   second pair, when max-degree is at least 3, has an irrational scale
   a = sqrt(q), whose witness is numeric.
2. unrelated: draw independent pairs and record the verdict; any positive
   is re-verified, never trusted.
3. linear zoo: partition a small grid of linear polynomials a*h + b into
   isomorphism classes by pairwise decision.

A missed conjugate, a witness that does not reproduce f2 and a positive
that fails re-verification are each reported, and make the script exit 1.

Usage:
    python3 scripts/isomorphism_survey.py
    python3 scripts/isomorphism_survey.py --trials 200 --max-degree 4 --seed 7
"""

import argparse
import random
import time
from fractions import Fraction

from gha import Poly, affine_conjugate, compositional_inverse_linear, exact, iso_check, parse_poly

# rational q that are not squares, so that a = sqrt(q) lies outside Q
NON_SQUARES = [2, 3, 5, -2, -3, Fraction(1, 2), Fraction(2, 3), Fraction(-5, 2)]


def rand_poly(rng, degree):
    coeffs = [exact(Fraction(rng.randint(-3, 3))) for _ in range(degree)]
    lead = exact(Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])))
    return Poly(coeffs + [lead])


def rational_conjugate(rng, max_degree):
    f1 = rand_poly(rng, rng.randint(2, max_degree))
    a = exact(Fraction(rng.choice([1, -1, 2]), rng.choice([1, 2, 3])))
    c = exact(Fraction(rng.randint(-3, 3)))
    return f1, affine_conjugate(f1, a, c)


def irrational_conjugate(rng, max_degree):
    """f1 with odd powers of h only and f2 = a*f1((h - c)/a) + c for
    a = sqrt(q): f2 = sum_k f1_k q^((1 - k)/2) (h - c)^k + c has rational
    coefficients, since every k is odd."""
    f1 = rand_poly(rng, rng.choice(range(3, max_degree + 1, 2)))
    f1 = Poly([v if k % 2 else exact(0) for k, v in enumerate(f1.coeffs)])
    q = Fraction(rng.choice(NON_SQUARES))
    c = exact(Fraction(rng.randint(-3, 3)))
    shift = Poly([-c, exact(1)])
    f2 = Poly([c])
    for k in range(1, f1.degree + 1, 2):
        f2 = f2 + shift**k * (f1.coefficient(k) * exact(q ** ((1 - k) // 2)))
    return f1, f2


def witness_reproduces(f1, f2, verdict):
    w = verdict.witness
    if w is None:
        return verdict.case == 1
    base = compositional_inverse_linear(f1) if w.swapped else f1
    if verdict.numeric_witness:
        # the closeness rule of the approximate scalars
        return affine_conjugate(base.approx(), w.a, w.c) == f2.approx()
    return affine_conjugate(base, w.a, w.c) == f2


def survey_conjugates(rng, trials, max_degree):
    hits = 0
    bad_witness = 0
    numeric = 0
    t0 = time.perf_counter()
    for trial in range(trials):
        draw = irrational_conjugate if trial % 2 and max_degree >= 3 else rational_conjugate
        f1, f2 = draw(rng, max_degree)
        v = iso_check(f1, f2)
        if v.isomorphic:
            hits += 1
            numeric += v.numeric_witness
            if not witness_reproduces(f1, f2, v):
                bad_witness += 1
                print(f"  WITNESS FAILED: f1 = {f1}, f2 = {f2}, witness = {v.witness}")
        else:
            print(f"  MISSED CONJUGATE: f1 = {f1}, f2 = {f2}: {v.detail}")
    dt = time.perf_counter() - t0
    print(
        f"conjugate pairs: {hits}/{trials} recognized, "
        f"{numeric} numeric witnesses, {bad_witness} witness failures, {dt:.1f}s"
    )
    return trials - hits + bad_witness


def survey_unrelated(rng, trials, max_degree):
    verdicts = {}
    surprises = 0
    for _ in range(trials):
        f1 = rand_poly(rng, rng.randint(1, max_degree))
        f2 = rand_poly(rng, rng.randint(1, max_degree))
        v = iso_check(f1, f2)
        key = (v.isomorphic, v.case)
        verdicts[key] = verdicts.get(key, 0) + 1
        if v.isomorphic and not witness_reproduces(f1, f2, v):
            surprises += 1
            print(f"  UNVERIFIED POSITIVE: f1 = {f1}, f2 = {f2}")
    print("independent pairs by (isomorphic, case):")
    for key in sorted(verdicts, key=str):
        print(f"  {key}: {verdicts[key]}")
    if surprises:
        print(f"  {surprises} positives failed re-verification")
    return surprises


def linear_zoo(grid):
    values = [Fraction(v) for v in range(-grid, grid + 1)]
    fs = []
    for a in values:
        if a == 0:
            continue
        for b in values:
            fs.append(parse_poly(f"({a})*h + ({b})", "exact"))
    classes = []
    for f in fs:
        for rep in classes:
            if iso_check(rep[0], f).isomorphic:
                rep.append(f)
                break
        else:
            classes.append([f])
    classes.sort(key=len, reverse=True)
    print(f"linear zoo on a*h + b, a,b in [-{grid}, {grid}]: {len(fs)} algebras, {len(classes)} classes")
    for rep in classes[:8]:
        print(f"  size {len(rep):3d}, representative f = {rep[0]}")
    if len(classes) > 8:
        print(f"  ... and {len(classes) - 8} more classes")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=100, help="pairs per random experiment")
    ap.add_argument("--max-degree", type=int, default=4, help="largest degree drawn (at least 2)")
    ap.add_argument("--grid", type=int, default=3, help="half-width of the linear-coefficient grid")
    ap.add_argument("--seed", type=int, default=20260819)
    args = ap.parse_args()
    if args.trials < 0:
        ap.error("--trials must be nonnegative")
    if args.grid < 0:
        ap.error("--grid must be nonnegative")
    # the conjugate experiment draws degrees 2..max-degree
    if args.max_degree < 2:
        ap.error("--max-degree must be at least 2")

    rng = random.Random(args.seed)
    failures = survey_conjugates(rng, args.trials, args.max_degree)
    print()
    failures += survey_unrelated(rng, args.trials, args.max_degree)
    print()
    linear_zoo(args.grid)
    if failures:
        raise SystemExit(f"{failures} isomorphism checks failed")


if __name__ == "__main__":
    main()
