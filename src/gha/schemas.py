"""JSON shapes for CLI input and output, plus the converters.

Every document carries ``"schema_version": 1``.  Scalars travel as their
canonical strings ("1/2 - zeta(3)", "0.5 + 0.25*i") and are parsed back
with the text front-end, so dump/load is lossless per backend.
"""

from __future__ import annotations

from typing import Any

from .config import SCHEMA_VERSION
from .modules import (
    CYCLIC_X,
    CYCLIC_Y,
    NILPOTENT_X,
    CyclicXDescriptor,
    CyclicYDescriptor,
    DescriptorError,
    MatrixModule,
    ModuleFamily,
    NilpotentXDescriptor,
    RelationReport,
)
from .parser import parse_scalar
from .polys import Orbit
from .structure import CenterDescription, IsoVerdict

_SCALAR = {"type": "string", "minLength": 1}
_VERSION = {"const": SCHEMA_VERSION}

_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _SCALAR},
}

MODULE_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "n", "X", "H", "Y"],
    "additionalProperties": False,
    "properties": {
        "schema_version": _VERSION,
        "n": {"type": "integer", "minimum": 1},
        "X": _MATRIX,
        "H": _MATRIX,
        "Y": _MATRIX,
    },
}

_CYCLIC_DESCRIPTOR = {
    "type": "object",
    "required": ["variant", "orbit", "zdot", "a"],
    "additionalProperties": False,
    "properties": {
        "variant": {"enum": [CYCLIC_X, CYCLIC_Y]},
        "orbit": {"type": "array", "minItems": 1, "items": _SCALAR},
        "zdot": _SCALAR,
        "a": _SCALAR,
    },
}

_NILPOTENT_DESCRIPTOR = {
    "type": "object",
    "required": ["variant", "zdot", "n"],
    "additionalProperties": False,
    "properties": {
        "variant": {"const": NILPOTENT_X},
        "zdot": _SCALAR,
        "n": {"type": "integer", "minimum": 1},
    },
}

DESCRIPTOR_SCHEMA = {"oneOf": [_CYCLIC_DESCRIPTOR, _NILPOTENT_DESCRIPTOR]}

CLASSIFY_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "descriptor"],
    "additionalProperties": False,
    "properties": {
        "schema_version": _VERSION,
        "descriptor": DESCRIPTOR_SCHEMA,
    },
}

_FAMILY = {
    "type": "object",
    "required": [
        "variant",
        "n",
        "orbit",
        "zdot",
        "zdot_free",
        "a_free",
        "excluded_zdot",
        "continuum_orbit",
        "instantiations",
        "notes",
    ],
    "additionalProperties": False,
    "properties": {
        "variant": {"enum": [CYCLIC_X, CYCLIC_Y, NILPOTENT_X]},
        "n": {"type": "integer", "minimum": 1},
        "orbit": {
            "anyOf": [{"type": "null"}, {"type": "array", "items": _SCALAR}]
        },
        "zdot": {"anyOf": [{"type": "null"}, _SCALAR]},
        "zdot_free": {"type": "boolean"},
        "a_free": {"type": "boolean"},
        "excluded_zdot": {"type": "array", "items": _SCALAR},
        "continuum_orbit": {"type": "boolean"},
        "instantiations": {"type": "array", "items": DESCRIPTOR_SCHEMA},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}

FAMILIES_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "f", "n", "backend", "count", "families"],
    "additionalProperties": False,
    "properties": {
        "schema_version": _VERSION,
        "f": {"type": "string"},
        "n": {"type": "integer", "minimum": 1},
        "backend": {"enum": ["exact", "approx"]},
        "count": {"type": "integer", "minimum": 0},
        "families": {"type": "array", "items": _FAMILY},
    },
}

CENTER_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "f", "case", "l", "c", "generators"],
    "additionalProperties": False,
    "properties": {
        "schema_version": _VERSION,
        "f": {"type": "string"},
        "case": {"enum": ["trivial-Cz", "cyclotomic-case"]},
        "l": {"anyOf": [{"type": "null"}, {"type": "integer", "minimum": 1}]},
        "c": {"anyOf": [{"type": "null"}, _SCALAR]},
        "generators": {"type": "array", "minItems": 1, "items": {"type": "string"}},
    },
}

ISO_SCHEMA = {
    "type": "object",
    "required": [
        "schema_version",
        "f1",
        "f2",
        "isomorphic",
        "case",
        "witness",
        "numeric_witness",
        "detail",
    ],
    "additionalProperties": False,
    "properties": {
        "schema_version": _VERSION,
        "f1": {"type": "string"},
        "f2": {"type": "string"},
        "isomorphic": {"type": "boolean"},
        "case": {"anyOf": [{"type": "null"}, {"type": "integer"}]},
        "witness": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["a", "c", "swapped"],
                    "additionalProperties": False,
                    "properties": {
                        "a": _SCALAR,
                        "c": _SCALAR,
                        "swapped": {"type": "boolean"},
                    },
                },
            ]
        },
        "numeric_witness": {"type": "boolean"},
        "detail": {"type": "string"},
    },
}

VERIFY_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "ok", "residuals", "failed"],
    "additionalProperties": False,
    "properties": {
        "schema_version": _VERSION,
        "ok": {"type": "boolean"},
        "residuals": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "failed": {"type": "array", "items": {"type": "string"}},
    },
}

NORMALIZE_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "f", "input", "normal_form"],
    "additionalProperties": False,
    "properties": {
        "schema_version": _VERSION,
        "f": {"type": "string"},
        "input": {"type": "string"},
        "normal_form": {"type": "string"},
    },
}

CENTRAL_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "f", "element", "central", "failing"],
    "additionalProperties": False,
    "properties": {
        "schema_version": _VERSION,
        "f": {"type": "string"},
        "element": {"type": "string"},
        "central": {"type": "boolean"},
        "failing": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["generator", "commutator"],
                    "additionalProperties": False,
                    "properties": {
                        "generator": {"type": "string"},
                        "commutator": {"type": "string"},
                    },
                },
            ]
        },
    },
}


# -- converters -----------------------------------------------------------------


def module_to_json(m: MatrixModule) -> dict[str, Any]:
    def grid(mat):
        return [[str(v) for v in row] for row in mat]

    return {
        "schema_version": SCHEMA_VERSION,
        "n": m.n,
        "X": grid(m.X),
        "H": grid(m.H),
        "Y": grid(m.Y),
    }


def _field(doc, key: str, what: str):
    """doc[key], with a DescriptorError for a non-object doc or a missing key."""
    if not isinstance(doc, dict):
        raise DescriptorError(f"{what} JSON must be an object")
    if key not in doc:
        raise DescriptorError(f"{what} JSON is missing {key!r}")
    return doc[key]


def _dimension(doc, what: str) -> int:
    n = _field(doc, "n", what)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DescriptorError(f"{what} 'n' must be an integer >= 1, not {n!r}")
    return n


def _scalar(v, backend: str):
    if not isinstance(v, str):
        raise DescriptorError(f"scalar {v!r} must be a string")
    return parse_scalar(v, backend)


def module_from_json(doc: dict[str, Any], backend: str = "exact") -> MatrixModule:
    n = _dimension(doc, "module")

    def grid(key):
        rows = _field(doc, key, "module")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise DescriptorError(f"module {key!r} must be a list of rows, each a list")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise DescriptorError(f"matrix is not {n}x{n}")
        return [[_scalar(v, backend) for v in row] for row in rows]

    return MatrixModule(n=n, X=grid("X"), H=grid("H"), Y=grid("Y"))


def descriptor_to_json(d) -> dict[str, Any]:
    if isinstance(d, NilpotentXDescriptor):
        return {"variant": d.variant, "zdot": str(d.zdot), "n": d.n}
    return {
        "variant": d.variant,
        "orbit": [str(v) for v in d.orbit.values],
        "zdot": str(d.zdot),
        "a": str(d.a),
    }


def descriptor_from_json(doc: dict[str, Any], backend: str = "exact"):
    variant = _field(doc, "variant", "descriptor")
    if variant == NILPOTENT_X:
        zdot = _scalar(_field(doc, "zdot", "descriptor"), backend)
        return NilpotentXDescriptor(zdot=zdot, n=_dimension(doc, "descriptor"))
    orbit = _field(doc, "orbit", "descriptor")
    if not isinstance(orbit, list):
        raise DescriptorError("descriptor 'orbit' must be a list")
    orbit = Orbit(tuple(_scalar(v, backend) for v in orbit))
    zdot = _scalar(_field(doc, "zdot", "descriptor"), backend)
    a = _scalar(_field(doc, "a", "descriptor"), backend)
    if variant == CYCLIC_X:
        return CyclicXDescriptor(orbit=orbit, zdot=zdot, a=a)
    if variant == CYCLIC_Y:
        return CyclicYDescriptor(orbit=orbit, zdot=zdot, a=a)
    raise DescriptorError(f"unknown descriptor variant {variant!r}")


def family_to_json(fam: ModuleFamily) -> dict[str, Any]:
    return {
        "variant": fam.variant,
        "n": fam.n,
        "orbit": None if fam.orbit is None else [str(v) for v in fam.orbit.values],
        "zdot": None if fam.zdot is None else str(fam.zdot),
        "zdot_free": fam.zdot_free,
        "a_free": fam.a_free,
        "excluded_zdot": [str(v) for v in fam.excluded_zdot],
        "continuum_orbit": fam.continuum_orbit,
        "instantiations": [descriptor_to_json(d) for d in fam.instantiations],
        "notes": list(fam.notes),
    }


def families_to_json(f_text: str, n: int, backend: str, fams) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "f": f_text,
        "n": n,
        "backend": backend,
        "count": len(fams),
        "families": [family_to_json(fam) for fam in fams],
    }


def center_to_json(f_text: str, desc: CenterDescription) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "f": f_text,
        "case": desc.case,
        "l": desc.l,
        "c": None if desc.c is None else str(desc.c),
        "generators": [str(g) for g in desc.generators],
    }


def iso_to_json(f1_text: str, f2_text: str, verdict: IsoVerdict) -> dict[str, Any]:
    witness = None
    if verdict.witness is not None:
        witness = {
            "a": str(verdict.witness.a),
            "c": str(verdict.witness.c),
            "swapped": verdict.witness.swapped,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "f1": f1_text,
        "f2": f2_text,
        "isomorphic": verdict.isomorphic,
        "case": verdict.case,
        "witness": witness,
        "numeric_witness": verdict.numeric_witness,
        "detail": verdict.detail,
    }


def verify_to_json(report: RelationReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "ok": report.ok,
        "residuals": dict(report.residuals),
        "failed": list(report.failed),
    }
