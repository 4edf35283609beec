"""Exact coefficient rings: rationals and sparse multivariate polynomials.

Every coefficient in the kernel is either a ``fractions.Fraction`` (Lie
algebra instances) or a :class:`Poly` over Fraction (polynomial algebroid
instances).  Both are immutable, hashable and support ``+ - * ==``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union


class InputError(ValueError):
    """Malformed input (shape, parse or axiom failure).  CLI exit code 2."""


Scalar = Fraction

Coeff = Union[Fraction, "Poly"]


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (q omitted when 1) into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Poly:
    """Immutable sparse polynomial over Fraction in ``nvars`` coordinates.

    Terms map exponent tuples to nonzero Fraction coefficients, e.g.
    ``Poly(2, {(1, 0): Fraction(1)})`` is x1.
    """

    __slots__ = ("nvars", "_terms", "_key")

    def __init__(self, nvars: int, terms: Mapping[tuple, Fraction] | None = None):
        self.nvars = nvars
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise InputError(f"exponent tuple {expo} does not match {nvars} variables")
            coeff = Fraction(coeff)
            if coeff:
                clean[expo] = coeff
        self._terms = clean
        self._key = tuple(sorted(clean.items()))

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def var(cls, nvars: int, index: int) -> "Poly":
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    def terms(self):
        return self._key

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return not self._terms
            return self._terms == {(0,) * self.nvars: q}
        return NotImplemented

    def __hash__(self):
        # a constant hashes as the Fraction it equals (see __eq__)
        key = self._key
        if not key:
            return 0
        if len(key) == 1 and not any(key[0][0]):
            return hash(key[0][1])
        return hash((self.nvars, key))

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        terms = dict(self._terms)
        for expo, coeff in other._terms.items():
            acc = terms.get(expo)
            acc = coeff if acc is None else acc + coeff
            if acc:
                terms[expo] = acc
            else:
                del terms[expo]
        return _clean_poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _clean_poly(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return _clean_poly(self.nvars, {})
            return _clean_poly(self.nvars, {e: c * other for e, c in self._terms.items()})
        other = self._coerce(other)
        terms: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(expo)
                acc = c1 * c2 if acc is None else acc + c1 * c2
                if acc:
                    terms[expo] = acc
                else:
                    del terms[expo]
        return _clean_poly(self.nvars, terms)

    __rmul__ = __mul__

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise InputError("polynomials over different coordinate sets")
            return other
        if isinstance(other, (int, Fraction)):
            value = Fraction(other)
            return _clean_poly(self.nvars, {(0,) * self.nvars: value} if value else {})
        raise TypeError(f"cannot combine Poly with {type(other).__name__}")

    def diff(self, index: int) -> "Poly":
        """Partial derivative with respect to coordinate ``index``."""
        terms = {}
        for expo, coeff in self._terms.items():
            e = expo[index]
            if e:
                new = list(expo)
                new[index] = e - 1
                terms[tuple(new)] = coeff * e
        return _clean_poly(self.nvars, terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def __repr__(self):
        return f"Poly({format_poly(self, tuple(f'x{i+1}' for i in range(self.nvars))) })"


def _clean_poly(nvars: int, terms: dict) -> Poly:
    """A Poly that adopts ``terms`` without the public constructor's checks.

    The caller keeps the invariant those checks establish: every key is a
    tuple of ``nvars`` plain ints, every value a nonzero ``Fraction``, and
    no one else holds ``terms`` (the Poly owns it from here on).  Results
    of Poly arithmetic on clean operands satisfy it by construction.
    """
    out = Poly.__new__(Poly)
    out.nvars = nvars
    out._terms = terms
    out._key = tuple(sorted(terms.items()))
    return out


def monomial_label(expo: Iterable[int], names: tuple) -> str:
    factors = []
    for name, e in zip(names, expo):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return " ".join(factors) if factors else "1"


def format_poly(p: Poly, names: tuple) -> dict:
    """Serialize as an exponent-keyed map {"x1^a x2^b": "p/q"}."""
    return {monomial_label(expo, names): format_rational(coeff) for expo, coeff in p.terms()}


def parse_poly(data, nvars: int, names: tuple) -> Poly:
    """Parse either a rational string or an exponent-keyed map into Poly."""
    if isinstance(data, str):
        return Poly.const(nvars, parse_rational(data))
    if not isinstance(data, Mapping):
        raise InputError(f"not a polynomial: {data!r}")
    index = {name: i for i, name in enumerate(names)}
    terms: dict = {}
    for label, value in data.items():
        expo = [0] * nvars
        label = str(label).strip()
        if label not in ("", "1"):
            for factor in label.split():
                name, caret, power = factor.partition("^")
                if name not in index:
                    raise InputError(f"unknown coordinate {name!r} in monomial {label!r}")
                if caret and not power.isdecimal():
                    raise InputError(f"bad exponent {power!r} in monomial {label!r}")
                expo[index[name]] += int(power) if power else 1
        key = tuple(expo)
        terms[key] = terms.get(key, Fraction(0)) + parse_rational(value)
    return Poly(nvars, terms)


class RationalRing:
    """Coefficient ring of a Lie algebra instance (plain rationals)."""

    kind = "rational"

    def one(self):
        return Fraction(1)

    def zero(self):
        return Fraction(0)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Poly):
            raise InputError("polynomial coefficient in a rational-coefficient instance")
        return Fraction(value)

    def is_zero(self, value) -> bool:
        return not value

    def format(self, value) -> str:
        return format_rational(value)

    def parse(self, data) -> Fraction:
        if isinstance(data, Mapping):
            raise InputError("polynomial coefficient in a rational-coefficient instance")
        return parse_rational(data)

    def key(self, value):
        return (value.numerator, value.denominator)


class PolyRing:
    """Coefficient ring of a polynomial algebroid: Q[x1..xd]."""

    kind = "poly"

    def __init__(self, names: tuple):
        self.names = tuple(names)
        self.nvars = len(self.names)
        self._one = Poly.const(self.nvars, 1)       # Poly is immutable: shared
        self._zero = Poly(self.nvars)

    def one(self):
        return self._one

    def zero(self):
        return self._zero

    def coerce(self, value) -> Poly:
        if isinstance(value, Poly):
            if value.nvars != self.nvars:
                raise InputError("polynomial over a different coordinate set")
            return value
        return Poly.const(self.nvars, Fraction(value))

    def is_zero(self, value) -> bool:
        return not self.coerce(value)

    def format(self, value):
        return format_poly(self.coerce(value), self.names)

    def parse(self, data) -> Poly:
        return parse_poly(data, self.nvars, self.names)

    def key(self, value):
        return self.coerce(value)._key

    def var(self, index: int) -> Poly:
        return Poly.var(self.nvars, index)
