"""Concrete Gerstenhaber-algebra instances.

An instance is the exterior algebra of a polynomial Lie algebroid over
affine space (:class:`PolyAlgebroidData`: polynomial anchor and structure
functions, coefficients in Q[x1..xd]).  A finite-dimensional Lie algebra
over Q is the algebroid over a point (:func:`LieAlgebraData`): no
coordinates, so no anchor and constant coefficients in ``PolyRing(())``.

The Schouten bracket is a sum over pairs of terms of closed formulas, whose
only inputs are the structure constants
(``PolyAlgebroidData.bracket_terms``, read for every ordered generator
pair, never through antisymmetry) and the anchor (``anchor_apply``).  For
terms of wedge degrees p = |I| and q = |J|, and positions counted from 1:

    [f e_I, g e_J] = fg [e_I, e_J] + f [e_I, g] ^ e_J
                     + (-1)^{pq-p+q} g [e_J, f] ^ e_I
    [e_I, e_J] = sum over a, b of (-1)^{a+b} [a_{I_a}, a_{J_b}] ^ e_{I-a} ^ e_{J-b}
    [e_I, g] = sum over k of (-1)^{p-k} rho(a_{I_k}) g e_{I-k}

With no coordinates, and for a constant coefficient, the anchor terms
vanish.
``_sn_memo`` keeps one entry per anchor pair (I, g), a value never
mutated once stored.  Neither a monomial pair (I, J) nor a term pair
(I, f, J, g) is memoized: the form kernel already memoizes each piece pair
it brackets, so the same pair rarely comes back, and [e_I, e_J] is a short
sum over the generator brackets.

``validate`` checks the axioms that the input data can break: Jacobi on
generator triples, then the anchor morphism property rho([a_i, a_j]) =
[rho(a_i), rho(a_j)].  The graded skew-symmetry and Leibniz identities

    [P,Q] = -(-1)^{(p-1)(q-1)} [Q,P]
    [P, Q^R] = [P,Q]^R + (-1)^{(p-1)q} Q^[P,R]

are theorems for every instance that can be built, so ``validate`` does not
check them: ``bracket_terms`` stores [a_i, a_j] for i < j only and returns
[a_j, a_i] as its negative, so the bracket is antisymmetric on generators;
``anchor_apply`` is a sum of partial derivatives, so each rho(a_i) is a
derivation; and the closed formulas above are the biderivation of the
exterior algebra that extends these base cases.  ``tests/test_instances.py``
checks both identities on ``sn_bracket`` over a basis family (the monomial
basis, and its coordinate multiples where there are coordinates) of every
shipped instance and of generated ones, compares ``sn_bracket`` with a
recursive reference bracket, and shows that the check catches a base case
that is not antisymmetric and an anchor that is not a derivation.
"""

from __future__ import annotations

import itertools
from .elements import Element, accumulate, sort_monomial
from .rings import InputError, PolyRing


def _distinct(names, what: str) -> tuple:
    """``names`` as a tuple; InputError naming the first repeated name."""
    names = tuple(names)
    for n, name in enumerate(names):
        if name in names[:n]:
            raise InputError(f"duplicate {what} name {name!r}")
    return names


class PolyAlgebroidData:
    """Polynomial Lie algebroid over Q[x1..xd]: rank-r free module with
    anchor rho (r x d polynomial matrix, rho(a_i) = sum_m anchor[i][m] d/dx_m)
    and structure functions [a_i, a_j] = sum_k f^k_ij(x) a_k, kept in
    ``table`` for i < j only.  With d = 0 it is a Lie algebra, the
    algebroid over a point (:func:`LieAlgebraData`): no coordinates, no
    anchor, and constant coefficients in ``PolyRing(())``."""

    def __init__(self, base_dim: int, rank: int, coordinates=None, generator_names=None,
                 anchor=None, brackets=None):
        self.base_dim = int(base_dim)
        self.rank = int(rank)
        if self.base_dim < 0 or self.rank < 1:
            raise InputError("base dimension must be >= 0 and rank positive")
        if coordinates is None:
            coordinates = (f"x{i + 1}" for i in range(self.base_dim))
        if generator_names is None:
            generator_names = (f"a{i + 1}" for i in range(self.rank))
        self.coordinates = _distinct(coordinates, "coordinate")
        self.generator_names = _distinct(generator_names, "generator")
        if len(self.coordinates) != self.base_dim:
            raise InputError("coordinate name count does not match base dimension")
        if len(self.generator_names) != self.rank:
            raise InputError("generator name count does not match rank")
        self.ring = PolyRing(self.coordinates)
        zero = self.ring.zero()
        anchor = anchor or [[zero] * self.base_dim for _ in range(self.rank)]
        if len(anchor) != self.rank or any(len(row) != self.base_dim for row in anchor):
            raise InputError("anchor must be a rank x base_dim matrix")
        self.anchor = [[self.ring.coerce(v) for v in row] for row in anchor]
        table = {}
        for (i, j), coeffs in (brackets or {}).items():
            if not (0 <= i < j < self.rank):
                raise InputError(f"bracket key ({i},{j}) must have 0 <= i < j < rank")
            row = {int(k): self.ring.coerce(v) for k, v in coeffs.items()}
            row = {k: v for k, v in row.items() if v}
            if any(not 0 <= k < self.rank for k in row):
                raise InputError(f"bracket [{i},{j}] targets an unknown generator")
            if row:
                table[(i, j)] = row
        self.table = table

    def bracket_terms(self, i: int, j: int) -> dict:
        """[a_i, a_j] as {k: f^k_ij}; for i < j the stored row itself."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}


def LieAlgebraData(dim: int, basis_names=None, brackets=None) -> PolyAlgebroidData:
    """The Lie algebra with structure constants [e_i, e_j] = sum_k c^k_ij
    e_k (keys i < j), as the algebroid over a point: no coordinates and
    no anchor."""
    dim = int(dim)
    if dim < 1:
        raise InputError("Lie algebra dimension must be positive")
    if basis_names is None:
        basis_names = (f"e{i + 1}" for i in range(dim))
    basis_names = _distinct(basis_names, "basis")
    if len(basis_names) != dim:
        raise InputError("basis name count does not match dimension")
    return PolyAlgebroidData(0, dim, (), basis_names, None, brackets)


class GradedInstance:
    """A validated instance: basis per wedge degree, exact Schouten bracket
    and anchor action.  Neither the instance nor its forms carry a grading:
    a form's degree is read off its arity and wedge shift
    (graded.GradingConvention.form_degree) where one is checked.

    ``poly_degree_bound``, an int >= 0 (checked on every assignment),
    declares the test family of an instance with coordinates: the monomial
    basis and its multiples by the coordinate monomials of degree <= the
    bound, the only tuples over which ``forms.is_zero`` certifies there.  A
    scenario sets it from ``suite.poly_degree_bound``; an instance with no
    coordinates (a Lie algebra) has no use for it."""

    def __init__(self, data, name="instance", check=True, poly_degree_bound=1):
        self.data = data
        self.name = name
        self.poly_degree_bound = poly_degree_bound
        self.ring = data.ring
        self.rank = data.rank
        self.generator_names = data.generator_names
        self._sn_memo: dict = {}
        self._form_nodes: dict = {}     # hash-consed form nodes (forms.shared_node)
        self._node_count = 0            # creation order of atomic form nodes
        self._ids = None                # the piece id table, built by the first evaluation
        if check:
            self.validate()

    @property
    def poly_degree_bound(self) -> int:
        return self._poly_degree_bound

    @poly_degree_bound.setter
    def poly_degree_bound(self, bound) -> None:
        # a negative bound would declare an empty family, on which every form passes
        if isinstance(bound, bool) or not isinstance(bound, int) or bound < 0:
            raise InputError(f"poly_degree_bound must be an integer >= 0, got {bound!r}")
        self._poly_degree_bound = bound

    # -- element constructors -------------------------------------------------

    def unit(self) -> Element:
        return Element({(): self.ring.one()})

    def scalar(self, value) -> Element:
        c = self.ring.coerce(value)
        return Element({(): c}) if c else Element.zero()

    def generator(self, i: int) -> Element:
        if not 0 <= i < self.rank:
            raise InputError(f"generator index {i} out of range")
        return Element({(i,): self.ring.one()})

    def monomial_key(self, indices, what="monomial") -> tuple:
        """``indices`` as a monomial key; InputError unless they are distinct
        generator indices in increasing order."""
        mon = tuple(indices)
        if any(not 0 <= i < self.rank for i in mon):
            raise InputError(f"{what} {mon} indexes an unknown generator")
        if any(a >= b for a, b in zip(mon, mon[1:])):
            raise InputError(f"{what} {mon} must be strictly increasing")
        return mon

    def monomial(self, indices) -> Element:
        return Element({self.monomial_key(indices): self.ring.one()})

    def element(self, terms: dict) -> Element:
        return Element({self.monomial_key(mon): self.ring.coerce(c)
                        for mon, c in terms.items()})

    # -- basis ----------------------------------------------------------------

    def all_basis(self) -> list[Element]:
        """The canonical monomial basis by wedge degree (unit coefficients;
        the unit function first)."""
        return [self.monomial(mon) for p in range(self.rank + 1)
                for mon in itertools.combinations(range(self.rank), p)]

    def basis_label(self, element: Element, mark: str = "") -> str:
        """The terms by wedge degree, then monomial, each coefficient 1 left
        out; ``mark`` follows each generator name ("*" labels a dual form)."""
        bits = []
        for mon, coeff in sorted(element.terms.items(), key=lambda t: (len(t[0]), t[0])):
            label = "^".join(self.generator_names[i] + mark for i in mon) if mon else "1"
            c = self.ring.format(coeff)
            bits.append(label if c == "1" else f"({c})*{label}")
        return " + ".join(bits) if bits else "0"

    # -- anchor and bracket base cases ----------------------------------------

    def anchor_apply(self, gen_index: int, coeff):
        """rho(a_i) acting on a coefficient (0 with no coordinates, as on a
        Lie algebra)."""
        total = self.ring.zero()
        poly = self.ring.coerce(coeff)
        for m in range(self.data.base_dim):
            d = poly.diff(m)
            if d:
                total = total + self.data.anchor[gen_index][m] * d
        return total

    def anchor_on_function(self, section: Element, coeff):
        """rho(X) f for a wedge-degree-1 element X."""
        total = self.ring.zero()
        for mon, c in section.terms.items():
            if len(mon) != 1:
                raise InputError("anchor action needs a wedge-degree-1 element")
            total = total + c * self.anchor_apply(mon[0], coeff)
        return total

    # -- Schouten bracket ------------------------------------------------------

    def sn_bracket(self, left: Element, right: Element) -> Element:
        """Schouten bracket, additive over terms; wedge degrees satisfy
        deg[P,Q] = p + q - 1 (degree-0 results on two functions vanish)."""
        out: dict = {}
        for m1, c1 in left.terms.items():
            for m2, c2 in right.terms.items():
                for mon, c in self._term_bracket(m1, c1, m2, c2).items():
                    accumulate(out, mon, c)
        return Element(out)

    def _term_bracket(self, I: tuple, f, J: tuple, g) -> dict:
        """[f e_I, g e_J] by the first formula of the module docstring."""
        brackets = self._monomial_bracket(I, J)
        fg = f * g if brackets else None
        value = {mon: fg * c for mon, c in brackets.items()}
        for mon, c in self._anchor_bracket(I, g).items():
            merged, sign = sort_monomial(mon + J)
            if sign:
                accumulate(value, merged, f * c if sign > 0 else -(f * c))
        flip = -1 if (len(I) * len(J) - len(I) + len(J)) % 2 else 1
        for mon, c in self._anchor_bracket(J, f).items():
            merged, sign = sort_monomial(mon + I)
            if sign:
                accumulate(value, merged, g * c if sign * flip > 0 else -(g * c))
        return value

    def _monomial_bracket(self, I: tuple, J: tuple) -> dict:
        """[e_I, e_J] by the second formula of the module docstring."""
        value = {}
        for a, i in enumerate(I):
            rest_i = I[:a] + I[a + 1:]
            for b, j in enumerate(J):
                rest = rest_i + J[:b] + J[b + 1:]
                odd = (a + b) % 2 == 1
                for k, c in self.data.bracket_terms(i, j).items():
                    merged, sign = sort_monomial((k,) + rest)
                    if sign:
                        accumulate(value, merged, -c if (sign < 0) != odd else c)
        return value

    def _anchor_bracket(self, I: tuple, g) -> dict:
        """[e_I, g] by the third formula of the module docstring."""
        # with no coordinates every coefficient is a constant
        if not I or not self.data.base_dim or self.ring.coerce(g).total_degree() == 0:
            return {}
        key = (I, g)
        value = self._sn_memo.get(key)
        if value is None:
            value = {}
            p = len(I)
            for k, i in enumerate(I):
                d = self.anchor_apply(i, g)
                if d:
                    value[I[:k] + I[k + 1:]] = -d if (p - k - 1) % 2 else d
            self._sn_memo[key] = value
        return value

    # -- validation ------------------------------------------------------------

    def jacobiator(self, i: int, j: int, k: int) -> Element:
        ei, ej, ek = self.generator(i), self.generator(j), self.generator(k)
        return (self.sn_bracket(ei, self.sn_bracket(ej, ek))
                + self.sn_bracket(ej, self.sn_bracket(ek, ei))
                + self.sn_bracket(ek, self.sn_bracket(ei, ej)))

    def validate(self) -> None:
        """Jacobi on generator triples, then the anchor morphism property:
        the axioms the input data can break (module docstring).  Raises
        InputError."""
        for i, j, k in itertools.combinations(range(self.rank), 3):
            if not self.jacobiator(i, j, k).is_zero():
                names = self.generator_names
                raise InputError(
                    f"Jacobi identity fails on ({names[i]}, {names[j]}, {names[k]})")
        self._validate_anchor_morphism()

    def _validate_anchor_morphism(self) -> None:
        """rho([a_i,a_j]) = [rho(a_i), rho(a_j)] as polynomial vector fields."""
        d = self.data.base_dim
        for i, j in itertools.combinations(range(self.rank), 2):
            bracket = self.data.bracket_terms(i, j)
            for m in range(d):
                lhs = self.ring.zero()
                for k, f in bracket.items():
                    lhs = lhs + f * self.data.anchor[k][m]
                rhs = self.ring.zero()
                for l in range(d):
                    rhs = rhs + self.data.anchor[i][l] * self.data.anchor[j][m].diff(l)
                    rhs = rhs - self.data.anchor[j][l] * self.data.anchor[i][m].diff(l)
                if lhs != rhs:
                    raise InputError(
                        f"anchor is not a morphism on ({self.generator_names[i]},"
                        f" {self.generator_names[j]})")

