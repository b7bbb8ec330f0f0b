"""The two numeric values a caller may set, shared through ``CONFIG``, and
the version every JSON document carries.

``tol`` is read by ``gha.scalars._close``, the one closeness rule of the
approximate backend, and as a scale by the root finder's stopping target
and the phase tests of ``root_of_unity_order`` (the exact backend never
consults it); ``max_compose_degree`` guards both backends.  The fixed
constants of the numeric routines (root-finder iteration cap, cluster
radius, rank threshold, ...) live as private constants next to their
only reader.
"""

from __future__ import annotations

from dataclasses import dataclass

# "schema_version" of every JSON document; kept here, in a module that
# ``import gha`` loads anyway, so that ``gha normalize --json`` can stamp
# it without loading the schemas and the module layers behind them
SCHEMA_VERSION = 1


@dataclass
class NumericConfig:
    """Settable numeric limits.

    tol: approximate values (scalars, polynomials, matrices, relation
        residuals) are equal when their difference is at most
        tol * max(1, size of the operands) (``--tol`` on the command line).
    max_compose_degree: largest polynomial degree that iterating or
        composing f, or a power p ** k, may reach, and the largest degree
        phi(N) of a cyclotomic field Q(zeta_N); past it a
        DegreeOverflowError is raised before the oversized polynomial, or
        the cyclotomic polynomial Phi_N, is built.
    """

    tol: float = 1e-9
    max_compose_degree: int = 4096


CONFIG = NumericConfig()
