"""Sparse exact elements of the exterior algebra of an instance.

An Element is a finite linear combination of exterior monomials over the
generators, with coefficients in the instance's ring (Poly; constants on
a Lie algebra, the algebroid over a point).
Monomials are strictly increasing tuples of 0-based generator indices; the
empty tuple is the unit function.  Elements are immutable and hashable so
they can key memo tables; each caches its key, hash and wedge degree on
first use.
"""

from __future__ import annotations

from .rings import InputError


def sort_monomial(indices) -> tuple:
    """Sort generator indices, returning (sorted_tuple, sign); sign 0 on a
    repeated index (exterior square)."""
    indices = tuple(indices)
    n = len(indices)
    if len(set(indices)) != n:
        return (), 0
    sign = 1
    work = list(indices)
    for i in range(n):
        m = min(range(i, n), key=work.__getitem__)
        if m != i:
            work[i], work[m] = work[m], work[i]
            sign = -sign
    return tuple(work), sign


_UNSET = object()        # wedge degree not computed yet (None means zero/mixed)


class Element:
    __slots__ = ("terms", "_key", "_hash", "_degree")

    def __init__(self, terms=None):
        clean = {}
        for mon, coeff in (terms or {}).items():
            if coeff:
                clean[tuple(mon)] = coeff
        self.terms = clean
        self._key = None
        self._hash = None
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
        if self._key is None:
            self._key = tuple(sorted((mon, ring.key(c)) for mon, c in self.terms.items()))
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other: "Element") -> "Element":
        terms = dict(self.terms)
        for mon, coeff in other.terms.items():
            acc = terms.get(mon)
            acc = coeff if acc is None else acc + coeff
            if acc:
                terms[mon] = acc
            else:
                terms.pop(mon, None)
        out = Element.__new__(Element)
        out.terms = terms
        out._key = None
        out._hash = None
        out._degree = _UNSET
        return out

    def __neg__(self) -> "Element":
        return self.scale(-1)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, factor) -> "Element":
        if not factor:
            return Element.zero()
        return Element({mon: factor * coeff for mon, coeff in self.terms.items()})

    def wedge(self, other: "Element") -> "Element":
        """Exterior product; degree-0 factors act as ring scalars."""
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mon, sign = sort_monomial(m1 + m2)
                if sign == 0:
                    continue
                coeff = c1 * c2 if sign > 0 else -(c1 * c2)
                acc = out.get(mon)
                acc = coeff if acc is None else acc + coeff
                if acc:
                    out[mon] = acc
                else:
                    out.pop(mon, None)
        return Element(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mon, coeff in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0])):
            label = "^".join(f"e{i + 1}" for i in mon) if mon else "1"
            bits.append(f"({coeff})*{label}")
        return " + ".join(bits)

