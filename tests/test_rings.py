import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rnforms.elements import Element
from rnforms.rings import (InputError, Poly, PolyRing, format_poly,
                           format_rational, parse_poly, parse_rational)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(5)) == "5"
    with pytest.raises(InputError):
        parse_rational("x")
    with pytest.raises(InputError):
        parse_rational("1/0")


def test_parse_rational_reads_exponent_notation(monkeypatch):
    # "1e-07" is how a JSON float prints
    assert parse_rational("2.5e3") == 2500
    assert parse_rational("1e-07") == Fraction(1, 10**7)
    assert parse_rational("-1E+3") == -1000
    # an exponent past the digit limit is refused before 10**exponent is computed
    with pytest.raises(InputError, match=r"^rational number of 100000000 digits, past the"
                                         r" limit of 4300 digits per integer: '1e-99999999'"):
        parse_rational("1e-99999999")
    # a limit of 0 means no limit
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert parse_rational("1e5000") == 10**5000


@given(rationals, rationals)
def test_exact_sum_cross_multiplication(a, b):
    # a/b + c/d reconstructed against the cross-multiplication identity
    total = a + b
    assert total.numerator * a.denominator * b.denominator == (
        a.numerator * b.denominator + b.numerator * a.denominator
    ) * total.denominator


def test_exact_sum_thousand_random_rationals():
    import random
    rng = random.Random(0)
    for _ in range(1000):
        a = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        b = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        total = a + b
        assert total.numerator * a.denominator * b.denominator == (
            a.numerator * b.denominator + b.numerator * a.denominator
        ) * total.denominator
        assert total.denominator > 0


def test_rational_canonical():
    q = parse_rational("-4/8")
    assert (q.numerator, q.denominator) == (-1, 2)
    assert q.denominator > 0


def test_poly_ring_builds_unit_and_zero_once(capsys, monkeypatch):
    ring = PolyRing(("x1", "x2"))
    assert ring.one() is ring.one() and ring.zero() is ring.zero()
    assert ring.one() == 1 and not ring.zero()
    # the shared unit changes no report: validate the shipped poly-tangent-r2
    # with it and with a fresh unit per call
    from rnforms.cli import main
    from rnforms import scenario
    shipped = Path(scenario.__file__).parent / "scenarios" / "poly-tangent-r2.json"
    argv = ["--scenario", str(shipped),
            "--format", "json", "validate"]
    assert main(argv) == 0
    shared = capsys.readouterr().out
    monkeypatch.setattr(PolyRing, "one", lambda self: Poly.const(self.nvars, 1))
    monkeypatch.setattr(PolyRing, "zero", lambda self: Poly(self.nvars))
    assert main(argv) == 0
    assert capsys.readouterr().out == shared


def test_poly_arithmetic():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert not p - p
    assert p * Fraction(0) == 0
    three = Poly.const(2, 3)
    assert three == Fraction(3) and hash(three) == hash(Fraction(3))
    # equal Elements hash equal whatever type their equal coefficients have
    a, b = Element({(0,): three}), Element({(0,): Fraction(3)})
    assert a == b and len({a, b}) == 1
    assert (x + 1) * (x + 1) == x * x + 2 * x + 1


def test_poly_diff():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x * x * y + y
    assert p.diff(0) == 2 * x * y
    assert p.diff(1) == x * x + 1
    assert not Poly.const(2, 5).diff(0)


def test_poly_serialization_round_trip():
    ring = PolyRing(("x1", "x2"))
    p = ring.var(0) * ring.var(0) * Fraction(1, 3) + ring.var(1) + ring.coerce(2)
    data = format_poly(p, ring.names)
    assert data == {"x1^2": "1/3", "x2": "1", "1": "2"}
    assert parse_poly(data, 2, ring.names) == p


def test_parse_poly_rejects_aliased_monomials():
    """Two keys that name one monomial are an input error naming both, as
    for aliased scenario keys; they used to be summed."""
    names = ("x1", "x2")
    for data, first, second in (({"x1 x2": "1", "x2 x1": "1"}, "x1 x2", "x2 x1"),
                                ({"x1^2": "1", "x1 x1": "-1"}, "x1^2", "x1 x1"),
                                ({"1": "2", " x2^0": "1"}, "1", " x2^0")):
        with pytest.raises(InputError) as info:
            parse_poly(data, 2, names)
        assert str(info.value) == f"polynomial keys {first!r} and {second!r} name the same monomial"
    assert parse_poly({"x1 x2": "1", "x2": "1/2"}, 2, names) == Poly(
        2, {(1, 1): 1, (0, 1): Fraction(1, 2)})


def test_poly_mismatched_vars_rejected():
    with pytest.raises(InputError):
        Poly.var(2, 0) + Poly.var(3, 0)
    ring = PolyRing(("x1",))
    with pytest.raises(InputError):
        ring.parse({"z^2": "1"})


def test_constant_ring_rejects_polynomials():
    """PolyRing(()), the ring of a Lie algebra, holds the constants: it
    refuses a polynomial in a coordinate, and a constant equals, hashes
    and prints as its rational."""
    ring = PolyRing(())
    with pytest.raises(InputError):
        ring.coerce(Poly.var(1, 0))
    half = ring.coerce(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert ring.format(half) == "1/2" and ring.format(ring.coerce(-3)) == "-3"
    assert ring.parse("2/4") == ring.coerce(Fraction(1, 2))


# -- arithmetic results against the public constructor ----------------------------

COEFFS = st.sampled_from([Fraction(c) for c in (1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 3)])
SCALARS = st.sampled_from([0, 1, -3, Fraction(0), Fraction(3), Fraction(2, 3), Fraction(-5, 2)])


@st.composite
def poly_pairs(draw):
    """(P, Q) in 2 or 3 variables; Q repeats some of P's terms negated, so
    P + Q cancels terms, and small exponents make P * Q cancel too."""
    nvars = draw(st.sampled_from((2, 3)))
    expos = st.tuples(*[st.integers(0, 2)] * nvars)
    p_terms = draw(st.dictionaries(expos, COEFFS, max_size=5))
    q_terms = draw(st.dictionaries(expos, COEFFS, max_size=4))
    for expo, coeff in p_terms.items():
        if draw(st.booleans()):
            q_terms[expo] = q_terms.get(expo, Fraction(0)) - coeff
    return Poly(nvars, p_terms), Poly(nvars, q_terms)


def _operations(P, Q, k):
    yield "+", P + Q
    yield "-", P - Q
    yield "neg", -P
    yield "*", P * Q
    yield "*k", P * k
    yield "k*", k * P
    yield "+k", P + k
    yield "k-", k - P
    for i in range(P.nvars):
        yield f"d{i}", P.diff(i)


def plain_coefficient(c):
    """A Poly coefficient: a nonzero int, or a Fraction that is not integral."""
    return bool(c) and (type(c) is int or (type(c) is Fraction and c.denominator != 1))


def _assert_clean(result, nvars):
    assert isinstance(result, Poly) and result.nvars == nvars
    checked = Poly(nvars, dict(result.terms()))
    assert result == checked
    assert hash(result) == hash(checked)
    assert result.terms() == checked.terms() == tuple(sorted(result._terms.items()))
    for expo, coeff in result._terms.items():
        assert plain_coefficient(coeff), coeff
        assert type(expo) is tuple and len(expo) == nvars
        assert all(type(e) is int for e in expo)


def _assert_hash_agrees(result):
    """A constant equals the int and the Fraction of its value and hashes as
    them; a nonconstant Poly equals no number."""
    terms = result.terms()
    if len(terms) > 1 or (terms and any(terms[0][0])):
        assert all(result != q for q in (0, 1, -1, Fraction(0), Fraction(1), Fraction(-1)))
        return
    value = Fraction(terms[0][1] if terms else 0)
    assert result == value and hash(result) == hash(value)
    if value.denominator == 1:
        assert result == value.numerator and hash(result) == hash(value.numerator)


@settings(max_examples=200, deadline=None)
@given(poly_pairs(), SCALARS)
def test_poly_arithmetic_results_are_clean(pair, k):
    """Every result holds an int when a coefficient is integral and a
    Fraction only otherwise, its lazily sorted terms, and the hash of the
    number a constant equals."""
    P, Q = pair
    _assert_clean(P, P.nvars)
    for _, result in _operations(P, Q, k):
        _assert_clean(result, P.nvars)
        _assert_hash_agrees(result)
    for constant in (P - P, P * 0, Poly.const(P.nvars, k), Poly(P.nvars, {(0,) * P.nvars: k})):
        _assert_hash_agrees(constant)


@settings(max_examples=60, deadline=None)
@given(poly_pairs(), SCALARS)
def test_poly_arithmetic_against_sympy(pair, k):
    sympy = pytest.importorskip("sympy")
    P, Q = pair
    xs = sympy.symbols(f"x1:{P.nvars + 1}")

    def expr(poly):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(x ** e for x, e in zip(xs, expo)))
                           for expo, c in poly.terms()))

    p, q, kk = expr(P), expr(Q), sympy.Rational(Fraction(k).numerator, Fraction(k).denominator)
    expected = {"+": p + q, "-": p - q, "neg": -p, "*": p * q, "*k": p * kk, "k*": kk * p,
                "+k": p + kk, "k-": kk - p}
    expected.update({f"d{i}": sympy.diff(p, x) for i, x in enumerate(xs)})
    for name, result in _operations(P, Q, k):
        assert sympy.expand(expr(result) - expected[name]) == 0, name


def test_poly_arithmetic_skips_the_checking_constructor(monkeypatch):
    P = Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(-2), (2, 1): Fraction(1, 3)})
    Q = Poly(2, {(1, 0): Fraction(-1), (0, 0): Fraction(5)})
    calls = []
    init = Poly.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", spy)
    for _ in _operations(P, Q, Fraction(2, 3)):
        pass
    for _ in _operations(P, Q, 0):
        pass
    assert calls == []
