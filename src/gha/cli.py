"""Command-line front-end.

Exit codes: 0 success, 1 mathematical negative (not isomorphic, element
not central, relations fail, module outside the three families) or
stdout closed before the output was written, 2 input error (syntax, bad
JSON, descriptor constraint violations), 3 numeric failure (root finding
gave up, degree guard tripped, overflow).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .algebra import Presentation, _noncommuting_generator
from .config import CONFIG, SCHEMA_VERSION
from .parser import parse_element, parse_poly
from .polys import CoefficientOverflowError, DegreeOverflowError, RootFindingError
from .scalars import BackendMismatchError

# The subcommands past ``central`` import the module, structure and schema
# layers when they run, so ``normalize`` and ``central`` never load them.

MATH_NEGATIVE = 1
INPUT_ERROR = 2
NUMERIC_FAILURE = 3


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _read_json_arg(value: str):
    """Inline JSON text, a file path, or '-' for stdin."""
    if value == "-":
        text = sys.stdin.read()
    elif value.lstrip().startswith(("{", "[")):
        text = value
    else:
        try:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ValueError(f"cannot read {value}: {err}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"bad JSON: {err}")


def _poly(args):
    return parse_poly(args.f, args.backend)


def _cmd_normalize(args) -> int:
    f = _poly(args)
    pres = Presentation(f)
    elem = parse_element(args.expr, pres)
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "f": str(f),
                "input": args.expr,
                "normal_form": str(elem),
            }
        )
    else:
        print(elem)
    return 0


def _cmd_central(args) -> int:
    f = _poly(args)
    pres = Presentation(f)
    elem = parse_element(args.expr, pres)
    hit = _noncommuting_generator(elem)
    central = hit is None
    failing = None if central else {"generator": hit[0], "commutator": str(hit[1] - hit[2])}
    if args.json:
        _emit(
            {
                "schema_version": SCHEMA_VERSION,
                "f": str(f),
                "element": args.expr,
                "central": central,
                "failing": failing,
            }
        )
    elif central:
        print("true")
    else:
        print("false")
        print(f"[{failing['generator']}, e] = {failing['commutator']}")
    return 0 if central else MATH_NEGATIVE


def _cmd_center(args) -> int:
    from .schemas import center_to_json
    from .structure import center

    f = _poly(args)
    _emit(center_to_json(str(f), center(f)))
    return 0


def _cmd_iso(args) -> int:
    from .schemas import iso_to_json
    from .structure import iso_check

    f1 = parse_poly(args.f1, args.backend)
    f2 = parse_poly(args.f2, args.backend)
    verdict = iso_check(f1, f2, conductor=args.conductor)
    _emit(iso_to_json(str(f1), str(f2), verdict))
    return 0 if verdict.isomorphic else MATH_NEGATIVE


def _cmd_simples(args) -> int:
    from .modules import enumerate_simples
    from .schemas import families_to_json

    f = _poly(args)
    fams = enumerate_simples(f, args.n, samples=args.samples, conductor=args.conductor)
    _emit(families_to_json(str(f), args.n, f.backend, fams))
    return 0


def _cmd_build(args) -> int:
    from .modules import build
    from .schemas import descriptor_from_json, module_to_json

    f = _poly(args)
    doc = _read_json_arg(args.descriptor)
    desc = descriptor_from_json(doc, f.backend)
    mod = build(desc, f)
    _emit(module_to_json(mod))
    return 0


def _load_module(args, f):
    from .schemas import module_from_json

    return module_from_json(_read_json_arg(args.module), f.backend)


def _cmd_verify(args) -> int:
    from .modules import verify_relations
    from .schemas import verify_to_json

    f = _poly(args)
    mod = _load_module(args, f)
    report = verify_relations(mod, f)
    if args.json:
        _emit(verify_to_json(report))
    else:
        print(report)
    return 0 if report.ok else MATH_NEGATIVE


def _cmd_classify(args) -> int:
    from .modules import ClassifyError, classify
    from .schemas import descriptor_to_json

    f = _poly(args)
    mod = _load_module(args, f)
    try:
        desc = classify(mod, f)
    except ClassifyError as err:
        print(f"not classifiable: {err}", file=sys.stderr)
        return MATH_NEGATIVE
    _emit({"schema_version": SCHEMA_VERSION, "descriptor": descriptor_to_json(desc)})
    return 0


# the options whose value may start with "-", as f = -h + 1 or -y*x does
_VALUE_OPTIONS = frozenset({"-f", "-f1", "-f2", "-e"})


def _attach_values(argv: list[str]) -> list[str]:
    """argv with each ``-f VALUE`` (and -f1, -f2, -e) whose VALUE starts
    with "-" written as ``-f=VALUE``, which argparse reads as the value
    and not as another option."""
    out = []
    it = iter(argv)
    for arg in it:
        value = next(it, None) if arg in _VALUE_OPTIONS else None
        if value is None:
            out.append(arg)
        elif value.startswith("-"):
            out.append(f"{arg}={value}")
        else:
            out += [arg, value]
    return out


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one.

    Reuse is safe while parse_args keeps no state between calls: it
    returns a new Namespace each time, and no option has a mutable
    default that a call could change.
    """
    top = argparse.ArgumentParser(
        prog="gha",
        description="Normal forms, centers, isomorphisms, and simple modules "
        "of the generalized Heisenberg algebra H(f).",
    )
    top.add_argument(
        "--backend",
        choices=("exact", "approx"),
        default="exact",
        help="scalar arithmetic: exact cyclotomic or complex floating point",
    )
    top.add_argument(
        "--conductor",
        type=int,
        default=None,
        metavar="N",
        help="work in the cyclotomic field Q(zeta_N) when hunting roots",
    )
    top.add_argument(
        "--tol",
        type=float,
        default=None,
        metavar="T",
        help="approx backend: values are equal when |a - b| <= T*max(1, |a|, |b|)",
    )
    top.add_argument(
        "--json",
        action="store_true",
        help="JSON output for the text-first subcommands too",
    )

    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normal form of an expression in x, h, y, z")
    p.add_argument("-f", required=True, help="defining polynomial f(h)")
    p.add_argument("-e", dest="expr", required=True, help="expression to normalize")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("central", help="does the element commute with everything")
    p.add_argument("-f", required=True)
    p.add_argument("-e", dest="expr", required=True)
    p.set_defaults(func=_cmd_central)

    p = sub.add_parser("center", help="generators of the center of H(f)")
    p.add_argument("-f", required=True)
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("iso", help="decide H(f1) = H(f2) and produce a witness")
    p.add_argument("-f1", required=True)
    p.add_argument("-f2", required=True)
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("simples", help="families of n-dimensional simple modules")
    p.add_argument("-f", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument(
        "--samples",
        type=int,
        default=2,
        metavar="K",
        help="sampled members per family parameter and orbits per continuum (default 2)",
    )
    p.set_defaults(func=_cmd_simples)

    p = sub.add_parser("build", help="matrices of a module from its descriptor")
    p.add_argument("-f", required=True)
    p.add_argument(
        "--descriptor", required=True, help="descriptor JSON (inline, path, or -)"
    )
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="check the defining relations on matrices")
    p.add_argument("-f", required=True)
    p.add_argument("--module", required=True, help="module JSON (inline, path, or -)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="which family a module belongs to")
    p.add_argument("-f", required=True)
    p.add_argument("--module", required=True, help="module JSON (inline, path, or -)")
    p.set_defaults(func=_cmd_classify)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    if args.tol is not None and not 0 < args.tol < math.inf:
        print("error: --tol must be positive", file=sys.stderr)
        return INPUT_ERROR
    if args.conductor is not None and args.conductor < 1:
        print("error: --conductor must be a positive integer", file=sys.stderr)
        return INPUT_ERROR
    # --tol holds for this call only; later calls in the process see the old value
    old_tol = CONFIG.tol
    if args.tol is not None:
        CONFIG.tol = args.tol
    # an exact answer prints whatever its number of digits: the limit on
    # printing integers (absent before Python 3.10.7) is lifted for this call
    old_digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if old_digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away (gha ... | head): as the SIGPIPE note
        # of the Python docs does, point stdout at devnull so that the flush
        # at exit cannot raise again, and exit 1 with no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (RootFindingError, DegreeOverflowError, CoefficientOverflowError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return NUMERIC_FAILURE
    except (ValueError, BackendMismatchError) as err:
        print(f"error: {err}", file=sys.stderr)
        return INPUT_ERROR
    finally:
        CONFIG.tol = old_tol
        if old_digits is not None:
            sys.set_int_max_str_digits(old_digits)


if __name__ == "__main__":
    sys.exit(main())
