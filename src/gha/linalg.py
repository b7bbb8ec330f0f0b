"""Dense matrices over either scalar backend.

Matrices are plain lists of list of scalars (rows), square unless noted.
Nothing here is tuned for size; module dimensions in practice stay small
(tens), so clarity beats asymptotics.  The one structural tool is
``EchelonBasis``, an incremental row-echelon span used for Burnside-style
closure arguments and invariant-subspace checks.
"""

from __future__ import annotations

from .config import CONFIG
from .polys import Poly
from .scalars import Scalar, _power, as_scalar, backend_of, one_like, zero_like

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


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == zero_like(x) for row in a for x in row)


def is_scalar_matrix(a: Matrix) -> Scalar | None:
    """The scalar s with a == s*I, or None."""
    n = len(a)
    s = a[0][0]
    zero = zero_like(s)
    for r in range(n):
        for c in range(n):
            if r == c:
                if a[r][c] != s:
                    return None
            elif a[r][c] != zero:
                return None
    return s


def is_diagonal(a: Matrix) -> bool:
    zero = zero_like(a[0][0])
    return all(a[r][c] == zero for r in range(len(a)) for c in range(len(a)) if r != c)


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


class EchelonBasis:
    """Incrementally reduced span of vectors of a fixed length.

    ``insert`` reduces a vector against the rows held so far and keeps the
    normalised remainder when it is independent, returning whether the span
    grew.  Exact backend: any nonzero entry can pivot.  Approx backend:
    pivots must clear ``CONFIG.rank_tol`` relative to the vector's own
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
        if mags[best] <= CONFIG.rank_tol * scale:
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

    def contains(self, vec: list[Scalar]) -> bool:
        rem = self._reduce(vec)
        return self._pivot_index(rem) is None


def flatten(a: Matrix) -> list[Scalar]:
    return [x for row in a for x in row]
