from gha.linalg import (
    EchelonBasis,
    charpoly,
    flatten,
    identity,
    is_diagonal,
    is_scalar_matrix,
    is_zero_matrix,
    mat_mul,
    mat_pow,
    mat_sub,
    poly_at_matrix,
    power_size,
    trace,
    zeros,
)
from gha.parser import parse_poly
from gha.scalars import approx, as_scalar, exact


def M(rows, backend="exact"):
    return [[as_scalar(v, backend) for v in row] for row in rows]


def test_matrix_basics():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert mat_mul(a, b) == M([[2, 1], [4, 3]])
    assert mat_pow(b, 2) == identity(2, "exact")
    assert mat_pow(a, 0) == identity(2, "exact")
    assert trace(a) == exact(5)
    assert is_zero_matrix(zeros(3, 3, "exact"))


def test_scalar_and_diagonal_detection():
    assert is_scalar_matrix(M([[2, 0], [0, 2]])) == exact(2)
    assert is_scalar_matrix(M([[2, 0], [0, 3]])) is None
    assert is_scalar_matrix(M([[2, 1], [0, 2]])) is None
    assert is_diagonal(M([[1, 0], [0, 5]]))
    assert not is_diagonal(M([[1, 1], [0, 5]]))


def test_approx_detection_is_norm_wise():
    # rounding of the size of the largest entry is allowed, off the diagonal too
    big = M([[1000, 1e-7], [0, 1000 + 1e-7]], "approx")
    assert is_scalar_matrix(big) == approx(1000)
    assert is_diagonal(big) and not is_zero_matrix(big)
    assert is_scalar_matrix(M([[1000, 1e-5], [0, 1000]], "approx")) is None
    assert not is_diagonal(M([[1, 1e-8], [0, 1]], "approx"))
    assert is_zero_matrix(M([[1e-10, 0], [0, 0]], "approx"))


def test_detection_against_a_given_size():
    # a gap of 1e-5 is rounding against a size of 1e5, and the scalar read
    # is the mean of the diagonal
    a = M([[1000, 1e-5], [0, 1000 + 2e-6]], "approx")
    assert is_scalar_matrix(a) is None
    assert abs(is_scalar_matrix(a, 1e5).value - (1000 + 1e-6)) < 1e-12
    assert is_zero_matrix(M([[1e-5, 0], [0, 0]], "approx"), 1e5)
    assert not is_zero_matrix(M([[1e-3, 0], [0, 0]], "approx"), 1e5)


def test_power_size_is_the_largest_entry_of_the_power_of_the_moduli():
    # |a| = [[sqrt(5), 0], [3, 1/2]], |a|^2 = [[5, 0], [3 sqrt(5) + 3/2, 1/4]],
    # while a^2 = [[-3 - 4i, 0], [-3 + 6i - 3/2 i, -1/4]]
    a = [[approx(1 - 2j), approx(0)], [approx(-3), approx(0.5j)]]
    assert power_size(a, 0) == 1.0
    assert power_size(a, 1) == 3.0
    assert abs(power_size(a, 2) - (3 * 5**0.5 + 1.5)) < 1e-12
    assert power_size(M([[2, 1], [0, 2]]), 3) is None


def test_charpoly_shift_matrix():
    # nilpotent shift: charpoly is h^n
    s = M([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert charpoly(s) == parse_poly("h^3")


def test_charpoly_diagonal():
    d = M([[1, 0], [0, 2]])
    assert charpoly(d) == parse_poly("(h - 1)*(h - 2)")


def test_cayley_hamilton():
    a = M([[1, 2], [3, 4]])
    p = charpoly(a)
    assert is_zero_matrix(poly_at_matrix(p, a))


def test_poly_at_matrix():
    a = M([[0, 1], [0, 0]])
    p = parse_poly("h^2 + h + 1")
    got = poly_at_matrix(p, a)
    # a^2 = 0, so p(a) = a + I
    want = M([[1, 1], [0, 1]])
    assert got == want


def test_mat_sub_and_eq():
    a = M([[1, 2], [3, 4]])
    assert is_zero_matrix(mat_sub(a, a))


class TestEchelonBasis:
    def test_exact_rank(self):
        eb = EchelonBasis(3, "exact")
        assert eb.insert([exact(1), exact(0), exact(0)])
        assert eb.insert([exact(1), exact(1), exact(0)])
        assert not eb.insert([exact(2), exact(1), exact(0)])  # dependent
        assert eb.dim == 2

    def test_approx_noise_is_not_new_dimension(self):
        eb = EchelonBasis(2, "approx")
        eb.insert([approx(1.0), approx(0.0)])
        # same line plus tiny noise must not count as independent
        assert not eb.insert([approx(1.0), approx(1e-12)])
        assert eb.dim == 1

    def test_flatten_round_trip_dimension(self):
        a = M([[1, 2], [3, 4]])
        v = flatten(a)
        assert len(v) == 4
        eb = EchelonBasis(4, "exact")
        assert eb.insert(v)
        assert not eb.insert(flatten(M([[2, 4], [6, 8]])))
