from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gha.algebra import Presentation
from gha.parser import ParseError, parse_element, parse_poly, parse_scalar
from gha.polys import Poly
from gha.scalars import approx, exact, zeta

PRES = Presentation(parse_poly("h^2"))


def parse_h2_element(text, backend):
    return parse_element(text, Presentation(parse_poly("h^2", backend)))


class TestGrammar:
    def test_precedence_power_over_product(self):
        assert parse_poly("2*h^3") == Poly([exact(0)] * 3 + [exact(2)])

    def test_precedence_product_over_sum(self):
        assert parse_poly("1 + 2*h") == Poly([exact(1), exact(2)])

    def test_parentheses(self):
        assert parse_poly("(1 + h)^2") == parse_poly("h^2 + 2*h + 1")

    def test_unary_minus(self):
        assert parse_poly("-h^2") == -parse_poly("h^2")
        assert parse_poly("--h") == parse_poly("h")
        assert parse_scalar("-1/2") == exact(Fraction(-1, 2))

    def test_product_order_preserved(self):
        # x*y and y*x differ in H(f); the parser must not commute them
        assert parse_element("x*y", PRES) != parse_element("y*x", PRES)

    def test_rational_literals(self):
        assert parse_scalar("3/4") == exact(Fraction(3, 4))
        assert parse_scalar("1/2 - zeta(3)") == exact(Fraction(1, 2)) - zeta(3)

    def test_zeta_and_i(self):
        assert parse_scalar("zeta(6)") == zeta(6)
        assert parse_scalar("zeta(4)^2") == exact(-1)
        assert parse_scalar("i^2") == exact(-1)
        assert parse_scalar("i", backend="approx") == approx(1j)

    def test_float_literals_approx_only(self):
        assert parse_scalar("2.5e-1", backend="approx") == approx(0.25)
        assert parse_scalar("1e3", backend="approx") == approx(1000.0)
        with pytest.raises(ParseError):
            parse_scalar("0.5")

    def test_whitespace_insensitive(self):
        assert parse_poly(" h ^ 2+ 1 ") == parse_poly("h^2 + 1")

    def test_division_only_by_scalars(self):
        assert parse_poly("h/2") == Poly([exact(0), exact(Fraction(1, 2))])
        with pytest.raises(ParseError):
            parse_poly("1/h")
        with pytest.raises(ParseError):
            parse_element("x/y", PRES)

    def test_division_by_scalar_valued_expression(self):
        e = parse_element("x/(1/2)", PRES)
        assert e == parse_element("2*x", PRES)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "h^-2",
            "h^x",
            "h^1.5",
            "(h + 1",
            "h +",
            "* h",
            "zeta(0)",
            "zeta(h)",
            "h$",
            "",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_poly(text)

    def test_unknown_symbol_in_poly_context(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("h + x")
        assert "unknown symbol" in str(exc.value)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_poly("h + #")
        assert exc.value.line == 1
        assert exc.value.col == 5

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_poly("h h")

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_poly, "h + x", "unknown symbol 'x' in this context (line 1, column 5)"),
            (
                parse_scalar,
                "1 + 0.5",
                "decimal literals need the approx backend (use p/q on exact) (line 1, column 5)",
            ),
            (parse_poly, "h + 1/h", "division is only by scalar values (line 1, column 6)"),
            (parse_scalar, "zeta(0)", "zeta() needs a positive integer order (line 1, column 6)"),
            (parse_poly, "h^-2", "negative exponents are not allowed (line 1, column 3)"),
            (parse_poly, "(h + 1", "expected ')' (line 1, column 7)"),
            (parse_poly, "h h", "unexpected trailing input 'h' (line 1, column 3)"),
            (parse_poly, "h +\n  x", "unknown symbol 'x' in this context (line 2, column 3)"),
            # the syntax of the whole text is checked before any value
            (
                parse_poly,
                "x + (",
                "expected a number, name, or parenthesized expression (line 1, column 6)",
            ),
        ],
    )
    def test_message_and_position(self, parse, text, message):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("backend", ["exact", "approx"])
    @pytest.mark.parametrize(
        "parse, text, col",
        [
            (parse_scalar, "1/0", 2),
            (parse_scalar, "2 + 3/(1/2 - 2/4)", 6),
            (parse_scalar, "zeta(3)/(i - i)", 8),
            (parse_poly, "h/0", 2),
            (parse_poly, "1/(h - h)", 2),
            (parse_h2_element, "x/(1-1)", 2),
            (parse_h2_element, "x/(y-y)", 2),
        ],
    )
    def test_division_by_zero(self, parse, text, col, backend):
        with pytest.raises(ParseError) as exc:
            parse(text, backend)
        assert str(exc.value) == f"division by zero (line 1, column {col})"

    def test_division_by_element_names_the_slash(self):
        with pytest.raises(ParseError) as exc:
            parse_element("x/y", PRES)
        assert str(exc.value) == "division is only by scalar values (line 1, column 2)"

    @pytest.mark.parametrize(
        "parse, text, col", [(parse_poly, "h^\u00b2", 3), (parse_scalar, "zeta(\u00b2)", 6)]
    )
    def test_non_decimal_digit_is_an_unexpected_character(self, parse, text, col):
        # '\u00b2' (superscript two) passes str.isdigit() but int() rejects it
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"unexpected character '\u00b2' (line 1, column {col})"


# Literal edge cases of the tokenizer: an exponent marker needs a digit
# after it (after a sign, if any), a literal takes at most one dot and no
# dot after its exponent, and digits are the Unicode decimal digits.
@pytest.mark.parametrize("backend", ["exact", "approx"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("1e", "unexpected trailing input 'e' (line 1, column 2)"),
        ("2e+", "unexpected trailing input 'e' (line 1, column 2)"),
        ("2e+h", "unexpected trailing input 'e' (line 1, column 2)"),
        ("1e5e", "unexpected trailing input 'e' (line 1, column 4)"),
        ("1.2.3", "unexpected trailing input '.3' (line 1, column 4)"),
        ("1..2", "unexpected trailing input '.2' (line 1, column 3)"),
        ("\u00b2", "unexpected character '\u00b2' (line 1, column 1)"),
        ("1 + h^\u00b3", "unexpected character '\u00b3' (line 1, column 7)"),
        ("h^1e2", "exponent must be a nonnegative integer (line 1, column 3)"),
        ("zeta(1e1)", "zeta() needs a positive integer order (line 1, column 6)"),
    ],
)
def test_literal_syntax_errors(text, message, backend):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, backend)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", [".5e-3", "3e2", "3E-2", "1.", "5.e3"])
def test_decimal_literals(text):
    assert parse_scalar(text, "approx") == approx(float(text))
    with pytest.raises(ParseError) as exc:
        parse_poly(f"h + {text}")
    assert str(exc.value) == (
        "decimal literals need the approx backend (use p/q on exact) (line 1, column 5)"
    )


@pytest.mark.parametrize("backend", ["exact", "approx"])
def test_full_width_digits_are_decimal_digits(backend):
    # U+FF11.. are Unicode decimal digits, so they read like 1, 2, 3
    assert parse_scalar("\uff11\uff12", backend) == parse_scalar("12", backend)
    assert parse_poly("h^\uff12", backend) == parse_poly("h^2", backend)
    assert parse_scalar("zeta(\uff13)", backend) == parse_scalar("zeta(3)", backend)


class TestFixpoint:
    """parse(print(v)) == v on every canonical form."""

    @given(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([1, 3, 4]),
    )
    def test_scalar_fixpoint(self, coeffs, order):
        s = exact(coeffs[0])
        for k, c in enumerate(coeffs[1:], start=1):
            s = s + zeta(order) ** k * exact(c)
        assert parse_scalar(str(s)) == s

    @given(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_poly_fixpoint(self, coeffs):
        p = Poly([exact(c) for c in coeffs])
        assert parse_poly(str(p)) == p

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.integers(-5, 5),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=50)
    def test_element_fixpoint(self, rows):
        e = PRES.scalar(0)
        for i, k, c, d in rows:
            g = Poly([exact(0)] * d + [exact(c)])
            e = e + PRES.monomial(i, g, k)
        assert parse_element(str(e), PRES) == e

    def test_approx_scalar_fixpoint(self):
        for v in (0.5 + 0.25j, -2.0, 1j, -1j, 3.0, 1e-9 + 1e-9j):
            s = approx(v)
            assert parse_scalar(str(s), backend="approx") == s

