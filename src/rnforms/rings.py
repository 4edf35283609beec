"""Exact coefficient rings: sparse multivariate polynomials over Q.

Every coefficient in the kernel is a :class:`Poly` with rational
coefficients in the instance's coordinates, an element of its
:class:`PolyRing`.  A Lie algebra is the algebroid over a point, whose ring
``PolyRing(())`` has no variables: its coefficients are the constants.  A
Poly is immutable, hashable, supports ``+ - * ==`` and equals the int or
``Fraction`` of a constant.  It holds each coefficient as an ``int`` when
it is integral and as a ``Fraction`` only otherwise (:func:`plain`), the
rule of the form kernel's piece maps, so the common case multiplies and
adds machine integers.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping


class InputError(ValueError):
    """Malformed input (shape, parse or axiom failure).  CLI exit code 2."""


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (q omitted when 1) into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def plain(q):
    """A rational as a Poly or a piece map holds it: an int when integral,
    else the Fraction."""
    return q.numerator if q.denominator == 1 else q


def _settled(terms: dict) -> dict:
    """``terms`` with every integral Fraction value replaced by its int."""
    for expo, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[expo] = c.numerator
    return terms


class Poly:
    """Immutable sparse polynomial with rational coefficients in ``nvars``
    coordinates.

    Terms map exponent tuples to nonzero coefficients, each an ``int`` when
    integral and a ``Fraction`` only otherwise; every arithmetic result keeps
    that rule.  ``Poly(2, {(1, 0): 1})`` is x1.  The sorted term tuple behind
    :meth:`terms` and the hash is built on first use.
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
                clean[expo] = plain(coeff)
        self._terms = clean
        self._key = None

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def var(cls, nvars: int, index: int) -> "Poly":
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): 1})

    def terms(self):
        """The (exponent, coefficient) pairs sorted by exponent."""
        key = self._key
        if key is None:
            key = self._key = tuple(sorted(self._terms.items()))
        return key

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self._terms
            return self._terms == {(0,) * self.nvars: other}
        return NotImplemented

    def __hash__(self):
        # a constant hashes as the int or Fraction it equals (see __eq__)
        terms = self._terms
        if not terms:
            return 0
        if len(terms) == 1:
            ((expo, coeff),) = terms.items()
            if not any(expo):
                return hash(coeff)
        return hash((self.nvars, self.terms()))

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        terms = dict(self._terms)
        for expo, coeff in other._terms.items():
            acc = terms.get(expo)
            if acc is None:
                terms[expo] = coeff
                continue
            acc += coeff
            if acc:
                terms[expo] = acc if type(acc) is int or acc.denominator != 1 else acc.numerator
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
            return _clean_poly(self.nvars,
                               _settled({e: c * other for e, c in self._terms.items()}))
        other = self._coerce(other)
        terms: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                expo = tuple(map(add, e1, e2))
                c = c1 * c2
                acc = terms.get(expo)
                if acc is not None:
                    c += acc
                    if not c:
                        del terms[expo]
                        continue
                terms[expo] = c
        return _clean_poly(self.nvars, _settled(terms))

    __rmul__ = __mul__

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise InputError("polynomials over different coordinate sets")
            return other
        if isinstance(other, (int, Fraction)):
            return _clean_poly(self.nvars, {(0,) * self.nvars: plain(Fraction(other))}
                               if other else {})
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
        return _clean_poly(self.nvars, _settled(terms))

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def __repr__(self):
        return f"Poly({format_poly(self, tuple(f'x{i+1}' for i in range(self.nvars))) })"


def _clean_poly(nvars: int, terms: dict) -> Poly:
    """A Poly that adopts ``terms`` without the public constructor's checks.

    The caller keeps the invariant those checks establish: every key is a
    tuple of ``nvars`` plain ints, every value a nonzero int or a
    non-integral Fraction, and no one else holds ``terms`` (the Poly owns it
    from here on).  Results of Poly arithmetic on clean operands satisfy it
    by construction.
    """
    out = Poly.__new__(Poly)
    out.nvars = nvars
    out._terms = terms
    out._key = None
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
    """Parse either a rational string or an exponent-keyed map into Poly.
    Two keys that name the same monomial ("x1 x2" and "x2 x1", "x1^2" and
    "x1 x1") are an input error naming both."""
    if isinstance(data, str):
        return Poly.const(nvars, parse_rational(data))
    if not isinstance(data, Mapping):
        raise InputError(f"not a polynomial: {data!r}")
    index = {name: i for i, name in enumerate(names)}
    terms: dict = {}
    labels: dict = {}                   # exponent tuple -> the key that named it
    for key, value in data.items():
        expo = [0] * nvars
        label = str(key).strip()
        if label not in ("", "1"):
            for factor in label.split():
                name, caret, power = factor.partition("^")
                if name not in index:
                    raise InputError(f"unknown coordinate {name!r} in monomial {label!r}")
                if caret and not power.isdecimal():
                    raise InputError(f"bad exponent {power!r} in monomial {label!r}")
                expo[index[name]] += int(power) if power else 1
        expo = tuple(expo)
        if expo in labels:
            raise InputError(
                f"polynomial keys {labels[expo]!r} and {key!r} name the same monomial")
        labels[expo] = key
        terms[expo] = parse_rational(value)
    return Poly(nvars, terms)


class PolyRing:
    """Coefficient ring of an instance: Q[x1..xd], or Q itself when there
    are no coordinates (d = 0)."""

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

    def format(self, value) -> str:
        """The terms in exponent order, each coefficient 1 left out:
        "3 + x1^2", "x1 + 1/2*x1 x2"."""
        terms = format_poly(self.coerce(value), self.names)
        return " + ".join(m if q == "1" else q if m == "1" else f"{q}*{m}"
                          for m, q in terms.items())

    def parse(self, data) -> Poly:
        return parse_poly(data, self.nvars, self.names)

    def key(self, value):
        return self.coerce(value).terms()

    def var(self, index: int) -> Poly:
        return Poly.var(self.nvars, index)
