"""Dense matrices over either scalar backend.

Matrices are plain lists of list of scalars (rows), square unless noted.
Nothing here is tuned for size; module dimensions in practice stay small
(tens), so clarity beats asymptotics.  The one structural tool is
``EchelonBasis``, an incremental row-echelon span used for Burnside-style
closure arguments and invariant-subspace checks.
"""

from __future__ import annotations

import operator

from .polys import Poly
from .scalars import Scalar, _close, _power, as_scalar, backend_of, one_like, zero_like

Matrix = list


def zeros(n: int, m: int, backend: str) -> Matrix:
    z = as_scalar(0, backend)
    return [[z for _ in range(m)] for _ in range(n)]


def identity(n: int, backend: str) -> Matrix:
    zero = as_scalar(0, backend)
    one = as_scalar(1, backend)
    return [[one if r == c else zero for c in range(n)] for r in range(n)]


def mat_backend(a: Matrix) -> str:
    return backend_of(a[0][0])


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, s) -> Matrix:
    return [[x * s for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, mid, m = len(a), len(b), len(b[0])
    zero = zero_like(a[0][0])
    out = []
    for r in range(n):
        row_a = a[r]
        row = []
        for c in range(m):
            acc = zero
            for t in range(mid):
                acc = acc + row_a[t] * b[t][c]
            row.append(acc)
        out.append(row)
    return out


def mat_pow(a: Matrix, k: int) -> Matrix:
    if k < 0:
        raise ValueError("negative matrix power")
    return _power(a, k, identity(len(a), mat_backend(a)), mat_mul)


def mat_vec(a: Matrix, v: list) -> list:
    zero = zero_like(a[0][0])
    out = []
    for row in a:
        acc = zero
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return out


def _equals_diagonal(a: Matrix, diag: list[Scalar], size: float | None = None) -> bool:
    """Whether a is the diagonal matrix with entries diag: exactly on the
    exact backend, norm-wise on the approximate one (the largest entry of
    the difference against size, by default the largest entry of a)."""
    cells = [(r == c, x, diag[r]) for r, row in enumerate(a) for c, x in enumerate(row)]
    if mat_backend(a) == "exact":
        return all(x == d if on else x.is_zero() for on, x, d in cells)
    gap = max(abs(x.value - d.value) if on else abs(x.value) for on, x, d in cells)
    return _close(gap, max(abs(x.value) for _, x, _ in cells) if size is None else size)


def is_zero_matrix(a: Matrix, size: float | None = None) -> bool:
    return _equals_diagonal(a, [zero_like(a[0][0])] * len(a), size)


def is_scalar_matrix(a: Matrix, size: float | None = None) -> Scalar | None:
    """The scalar s with a == s*I, or None.  An approximate s is the mean
    of the diagonal, the scalar matrix nearest to a in the Frobenius norm,
    and a is judged against size as ``_equals_diagonal`` says."""
    s = a[0][0] if mat_backend(a) == "exact" else trace(a) / len(a)
    return s if _equals_diagonal(a, [s] * len(a), size) else None


def power_size(a: Matrix, k: int) -> float | None:
    """The largest entry of |a|^k, |a| the matrix of the moduli of a's
    entries: the size the rounding of ``mat_pow(a, k)`` grows with, which
    can be far above the entries of a^k itself.  None on the exact
    backend, where equality is exact."""
    if mat_backend(a) == "exact":
        return None
    out = [[abs(x.value) for x in row] for row in a]
    cols = list(zip(*out))
    for _ in range(k - 1):
        out = [[sum(map(operator.mul, row, col)) for col in cols] for row in out]
    return max(map(max, out)) if k else 1.0


def is_diagonal(a: Matrix) -> bool:
    return _equals_diagonal(a, [a[r][r] for r in range(len(a))])


def trace(a: Matrix) -> Scalar:
    acc = a[0][0]
    for r in range(1, len(a)):
        acc = acc + a[r][r]
    return acc


def poly_at_matrix(g: Poly, a: Matrix) -> Matrix:
    """g evaluated at the square matrix a, by Horner."""
    n = len(a)
    backend = mat_backend(a)
    out = zeros(n, n, backend)
    ident = identity(n, backend)
    for c in reversed(g.coeffs):
        out = mat_add(mat_mul(out, a), mat_scale(ident, c))
    return out


def charpoly(a: Matrix) -> Poly:
    """Monic characteristic polynomial det(t*I - a) via Faddeev-LeVerrier.

    Works over both backends; the only divisions are by the integers
    1..n, which both scalar types support exactly.
    """
    n = len(a)
    backend = mat_backend(a)
    coeffs: list[Scalar] = [as_scalar(1, backend)]  # highest power first
    m = identity(n, backend)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        ck = -(trace(am) / k)
        coeffs.append(ck)
        if k < n:
            m = mat_add(am, mat_scale(identity(n, backend), ck))
    return Poly(list(reversed(coeffs)))


_RANK_TOL = 1e-7  # relative pivot threshold on the approx backend


class EchelonBasis:
    """Incrementally reduced span of vectors of a fixed length.

    ``insert`` reduces a vector against the rows held so far and keeps the
    normalised remainder when it is independent, returning whether the span
    grew.  Exact backend: any nonzero entry can pivot.  Approx backend:
    pivots must clear ``_RANK_TOL`` relative to the vector's own
    scale, so near-dependent vectors are treated as dependent.
    """

    def __init__(self, length: int, backend: str) -> None:
        self.length = length
        self.backend = backend
        self.rows: list[list[Scalar]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: list[Scalar]) -> list[Scalar]:
        vec = list(vec)
        zero = as_scalar(0, self.backend)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if c == zero:
                continue
            vec = [v - c * r for v, r in zip(vec, row)]
        return vec

    def _pivot_index(self, vec: list[Scalar]) -> int | None:
        if self.backend == "exact":
            zero = as_scalar(0, "exact")
            for idx, v in enumerate(vec):
                if v != zero:
                    return idx
            return None
        mags = [abs(v.value) for v in vec]
        best = max(range(len(vec)), key=lambda idx: mags[idx], default=None)
        if best is None:
            return None
        scale = max(1.0, max(mags))
        if mags[best] <= _RANK_TOL * scale:
            return None
        return best

    def insert(self, vec: list[Scalar]) -> bool:
        if len(vec) != self.length:
            raise ValueError("vector length mismatch")
        rem = self._reduce(vec)
        piv = self._pivot_index(rem)
        if piv is None:
            return False
        inv = one_like(rem[piv]) / rem[piv]
        # each row is zero at every earlier pivot, so _reduce, which walks the
        # rows in order, needs no back-substitution into earlier rows
        self.rows.append([v * inv for v in rem])
        self.pivots.append(piv)
        return True


def flatten(a: Matrix) -> list[Scalar]:
    return [x for row in a for x in row]
