"""Generalized Heisenberg algebras H(f).

Exact normal-form arithmetic for the algebra on generators x, h, y with

    h*x = x*f(h),   y*h = f(h)*y,   y*x - x*y = f(h) - h,

its center, the isomorphism problem between two such algebras, and the
finite-dimensional simple modules realized as explicit matrices.

``import gha`` loads the rewriting core only: ``config``, ``scalars``,
``polys``, ``algebra`` and ``parser``, and so does ``gha normalize`` (and
``gha central``).  The simple-module and structure layers (``modules``,
``linalg``, ``structure``; ``schemas`` for the JSON documents) load on
first use: the names this package re-exports from them, such as
``gha.build`` or ``gha.iso_check``, import their submodule when first
read, as does ``gha.modules`` itself.
"""

from importlib import import_module as _import_module

from .algebra import (
    FreeModuleElement,
    GHAElement,
    Presentation,
    PresentationMismatchError,
    commutator,
    free_module_action,
    is_central,
)
from .config import CONFIG, NumericConfig
from .parser import ParseError, parse_element, parse_poly, parse_scalar
from .polys import (
    ContinuumOfOrbitsError,
    DegreeOverflowError,
    Orbit,
    OrbitSet,
    Poly,
    RootFindingError,
    exact_roots,
    iterate,
    orbit_through,
    periodic_points,
    poly_gcd,
    roots,
)
from .scalars import (
    ApproxComplex,
    BackendMismatchError,
    CyclotomicNumber,
    approx,
    as_scalar,
    backend_of,
    exact,
    root_of_unity_order,
    zeta,
)

# the names re-exported from the layers that load on first use, by the
# submodule that defines them
_LAZY_EXPORTS = {
    "modules": (
        "CYCLIC_X",
        "CYCLIC_Y",
        "NILPOTENT_X",
        "ClassifyError",
        "CyclicXDescriptor",
        "CyclicYDescriptor",
        "DescriptorError",
        "MatrixModule",
        "ModuleFamily",
        "NilpotentXDescriptor",
        "RelationReport",
        "build",
        "classify",
        "descriptor_problems",
        "enumerate_simples",
        "is_simple",
        "modules_isomorphic",
        "verify_relations",
    ),
    "structure": (
        "CenterDescription",
        "IsoVerdict",
        "IsoWitness",
        "affine_conjugate",
        "center",
        "compositional_inverse_linear",
        "iso_check",
    ),
}
_OWNER = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}
_LAZY_SUBMODULES = ("linalg", "modules", "structure")


def __getattr__(name: str):
    # Nothing is cached here: every access reads the submodule's current
    # binding, so a name rebound there (by a tracer, say) is seen at once.
    if name in _OWNER:
        return getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    if name in _LAZY_SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_OWNER, *_LAZY_SUBMODULES})


__version__ = "0.1.0"

__all__ = [
    "ApproxComplex",
    "BackendMismatchError",
    "CONFIG",
    "CYCLIC_X",
    "CYCLIC_Y",
    "CenterDescription",
    "ClassifyError",
    "ContinuumOfOrbitsError",
    "CyclicXDescriptor",
    "CyclicYDescriptor",
    "CyclotomicNumber",
    "DegreeOverflowError",
    "DescriptorError",
    "FreeModuleElement",
    "GHAElement",
    "IsoVerdict",
    "IsoWitness",
    "MatrixModule",
    "ModuleFamily",
    "NILPOTENT_X",
    "NilpotentXDescriptor",
    "NumericConfig",
    "Orbit",
    "OrbitSet",
    "ParseError",
    "Poly",
    "Presentation",
    "PresentationMismatchError",
    "RelationReport",
    "RootFindingError",
    "affine_conjugate",
    "approx",
    "as_scalar",
    "backend_of",
    "build",
    "center",
    "classify",
    "commutator",
    "compositional_inverse_linear",
    "descriptor_problems",
    "enumerate_simples",
    "exact",
    "exact_roots",
    "free_module_action",
    "is_central",
    "is_simple",
    "iso_check",
    "iterate",
    "modules_isomorphic",
    "orbit_through",
    "parse_element",
    "parse_poly",
    "parse_scalar",
    "periodic_points",
    "poly_gcd",
    "roots",
    "root_of_unity_order",
    "verify_relations",
    "zeta",
]
