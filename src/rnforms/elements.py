"""Sparse exact elements of the exterior algebra of an instance.

An Element is a finite linear combination of exterior monomials over the
generators, with coefficients in the instance's ring (Poly; constants on
a Lie algebra, the algebroid over a point).
Monomials are strictly increasing tuples of 0-based generator indices; the
empty tuple is the unit function.  Elements are immutable and hashable so
they can key memo tables.  Each caches its wedge degree on first use, the
one cache here that is read more than once per Element; its key and hash
are computed when asked for.
"""

from __future__ import annotations

from .graded import inversion_sign
from .rings import InputError


def sort_monomial(indices) -> tuple:
    """Sort generator indices, returning (sorted_tuple, sign); sign 0 on a
    repeated index (exterior square)."""
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        return (), 0
    return tuple(sorted(indices)), inversion_sign(indices)


def accumulate(total: dict, key, value) -> None:
    """total[key] += value, dropping the key when the sum is 0: the one
    sparse sum of the package (the piece maps of ``forms`` aside)."""
    acc = total.get(key)
    acc = value if acc is None else acc + value
    if acc:
        total[key] = acc
    else:
        total.pop(key, None)


_UNSET = object()        # wedge degree not computed yet (None means zero/mixed)


class Element:
    __slots__ = ("terms", "_degree")

    def __init__(self, terms=None):
        clean = {}
        for mon, coeff in (terms or {}).items():
            if coeff:
                clean[tuple(mon)] = coeff
        self.terms = clean
        self._degree = _UNSET

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def wedge_degree(self):
        """Common wedge degree of all monomials, or None (zero/mixed)."""
        degree = self._degree
        if degree is _UNSET:
            degrees = {len(mon) for mon in self.terms}
            degree = self._degree = degrees.pop() if len(degrees) == 1 else None
        return degree

    def require_homogeneous(self) -> int:
        if self.is_zero():
            raise InputError("zero element has no defined wedge degree")
        deg = self.wedge_degree()
        if deg is None:
            raise InputError(f"element is not homogeneous: {self!r}")
        return deg

    def key(self, ring):
        return tuple(sorted((mon, ring.key(c)) for mon, c in self.terms.items()))

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Element") -> "Element":
        terms = dict(self.terms)
        for mon, coeff in other.terms.items():
            accumulate(terms, mon, coeff)
        return Element(terms)

    def __neg__(self) -> "Element":
        return self.scale(-1)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, factor) -> "Element":
        return Element({mon: factor * coeff for mon, coeff in self.terms.items()})

    def wedge(self, other: "Element") -> "Element":
        """Exterior product; degree-0 factors act as ring scalars."""
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon, sign = sort_monomial(m1 + m2)
                if sign:
                    accumulate(out, mon, c1 * c2 if sign > 0 else -(c1 * c2))
        return Element(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mon, coeff in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0])):
            label = "^".join(f"e{i + 1}" for i in mon) if mon else "1"
            bits.append(f"({coeff})*{label}")
        return " + ".join(bits)

