"""Concrete Gerstenhaber-algebra instances.

Two kinds are supported: the exterior algebra of a finite-dimensional Lie
algebra over Q (anchor 0, constant coefficients), and a polynomial Lie
algebroid over affine space (polynomial anchor and structure functions).

The Schouten bracket is computed by recursive graded-Leibniz expansion down
to generator/function base cases, so the only inputs are the structure
constants and the anchor.  The graded skew-symmetry and Leibniz identities
are then verified on the instance rather than assumed:

    [P,Q] = -(-1)^{(p-1)(q-1)} [Q,P]
    [P, Q^R] = [P,Q]^R + (-1)^{(p-1)q} Q^[P,R]
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .elements import Element
from .graded import GradingConvention, sign_pow
from .rings import InputError, PolyRing, RationalRing


class _StructureTable:
    """Structure constants or functions [a_i, a_j] = sum_k f^k_ij a_k, kept
    in ``table`` for i < j only."""

    def bracket_terms(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        return {k: -c for k, c in self.table.get((j, i), {}).items()}


class LieAlgebraData(_StructureTable):
    """Structure constants [e_i, e_j] = sum_k c^k_ij e_k, stored for i < j."""

    def __init__(self, dim: int, basis_names=None, brackets=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise InputError("Lie algebra dimension must be positive")
        self.basis_names = tuple(basis_names or (f"e{i + 1}" for i in range(self.dim)))
        if len(self.basis_names) != self.dim:
            raise InputError("basis name count does not match dimension")
        table = {}
        for (i, j), coeffs in (brackets or {}).items():
            if not (0 <= i < j < self.dim):
                raise InputError(f"bracket key ({i},{j}) must have 0 <= i < j < dim")
            row = {int(k): Fraction(v) for k, v in coeffs.items() if Fraction(v)}
            if any(not 0 <= k < self.dim for k in row):
                raise InputError(f"bracket [{i},{j}] targets an unknown generator")
            if row:
                table[(i, j)] = row
        self.table = table


class PolyAlgebroidData(_StructureTable):
    """Polynomial Lie algebroid over Q[x1..xd]: rank-r free module with
    anchor rho (r x d polynomial matrix, rho(a_i) = sum_m anchor[i][m] d/dx_m)
    and structure functions [a_i, a_j] = sum_k f^k_ij(x) a_k."""

    def __init__(self, base_dim: int, rank: int, coordinates=None, generator_names=None,
                 anchor=None, brackets=None):
        self.base_dim = int(base_dim)
        self.rank = int(rank)
        if self.base_dim < 1 or self.rank < 1:
            raise InputError("base dimension and rank must be positive")
        self.coordinates = tuple(coordinates or (f"x{i + 1}" for i in range(self.base_dim)))
        self.generator_names = tuple(generator_names or (f"a{i + 1}" for i in range(self.rank)))
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


class GradedInstance:
    """A validated instance: basis per wedge degree, exact Schouten bracket,
    anchor action, and the grading convention used for reported degrees."""

    def __init__(self, data, convention=GradingConvention.NEGATED, name="instance", check=True):
        self.data = data
        self.name = name
        self.convention = GradingConvention.parse(convention) if isinstance(convention, str) else convention
        if isinstance(data, LieAlgebraData):
            self.ring = RationalRing()
            self.rank = data.dim
            self.generator_names = data.basis_names
        elif isinstance(data, PolyAlgebroidData):
            self.ring = data.ring
            self.rank = data.rank
            self.generator_names = data.generator_names
        else:
            raise InputError(f"unsupported instance data {type(data).__name__}")
        self._basis_cache: dict = {}
        self._sn_memo: dict = {}
        self._form_nodes: dict = {}     # hash-consed form nodes (forms.shared_node)
        self._node_count = 0            # creation order of atomic form nodes
        self._ids = None                # the piece id table, built by the first evaluation
        if check:
            self.validate()

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

    def monomial(self, indices) -> Element:
        return Element({tuple(indices): self.ring.one()})

    def element(self, terms: dict) -> Element:
        return Element({tuple(mon): self.ring.coerce(c) for mon, c in terms.items()})

    def section(self, coeffs) -> Element:
        return Element({(i,): self.ring.coerce(c) for i, c in enumerate(coeffs)})

    # -- basis ----------------------------------------------------------------

    def basis(self, wedge_degree: int) -> list[Element]:
        """Canonical monomial basis of the wedge-degree-p component
        (unit coefficients; p = 0 gives the unit function)."""
        if wedge_degree < 0 or wedge_degree > self.rank:
            return []
        if wedge_degree not in self._basis_cache:
            self._basis_cache[wedge_degree] = [
                self.monomial(mon)
                for mon in itertools.combinations(range(self.rank), wedge_degree)
            ]
        return self._basis_cache[wedge_degree]

    def all_basis(self) -> list[Element]:
        out = []
        for p in range(self.rank + 1):
            out.extend(self.basis(p))
        return out

    def basis_label(self, element: Element) -> str:
        bits = []
        for mon, coeff in sorted(element.terms.items(), key=lambda t: (len(t[0]), t[0])):
            label = "^".join(self.generator_names[i] for i in mon) if mon else "1"
            c = self.ring.format(coeff)
            if isinstance(c, dict):         # a polynomial, {monomial: rational}
                c = " + ".join(m if q == "1" else q if m == "1" else f"{q}*{m}" for m, q in c.items())
            bits.append(label if c == "1" else f"({c})*{label}")
        return " + ".join(bits) if bits else "0"

    # -- anchor and bracket base cases ----------------------------------------

    def anchor_apply(self, gen_index: int, coeff):
        """rho(a_i) acting on a coefficient (0 on a Lie algebra over a point)."""
        if isinstance(self.data, LieAlgebraData):
            return self.ring.zero()
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

    def _gen_bracket(self, i: int, j: int) -> Element:
        return Element({(k,): c for k, c in self.data.bracket_terms(i, j).items()})

    # -- Schouten bracket ------------------------------------------------------

    def sn_bracket(self, left: Element, right: Element) -> Element:
        """Schouten bracket, additive over terms; wedge degrees satisfy
        deg[P,Q] = p + q - 1 (degree-0 results on two functions vanish)."""
        out = Element.zero()
        for m1, c1 in left.terms.items():
            for m2, c2 in right.terms.items():
                out = out + self._sn_term(c1, m1, c2, m2)
        return out

    def _sn_term(self, c1, m1, c2, m2) -> Element:
        constant1 = self._constant_part(c1)
        constant2 = self._constant_part(c2)
        f1 = list(m1) if constant1 is not None else [("c", c1)] + list(m1)
        f2 = list(m2) if constant2 is not None else [("c", c2)] + list(m2)
        f1 = [("g", f) if isinstance(f, int) else f for f in f1]
        f2 = [("g", f) if isinstance(f, int) else f for f in f2]
        result = self._sn_factors(tuple(f1), tuple(f2))
        if constant1 is not None:
            result = result.scale(constant1)
        if constant2 is not None:
            result = result.scale(constant2)
        return result

    def _constant_part(self, coeff):
        """The coefficient itself when it is killed by the anchor (constants,
        or anything over a point), else None."""
        if isinstance(self.data, LieAlgebraData):
            return coeff
        poly = self.ring.coerce(coeff)
        return poly if poly.total_degree() == 0 else None

    def _factor_degree(self, factors) -> int:
        return sum(1 for kind, _ in factors if kind == "g")

    def _factor_element(self, factors) -> Element:
        out = self.unit()
        for kind, value in factors:
            if kind == "g":
                out = out.wedge(Element({(value,): self.ring.one()}))
            else:
                out = out.scale(value)
        return out

    def _sn_factors(self, left: tuple, right: tuple) -> Element:
        if not left or not right:
            return Element.zero()
        key = (left, right)
        cached = self._sn_memo.get(key)
        if cached is not None:
            return cached
        if len(left) > 1:
            # [f ^ F', G] = f ^ [F', G] + (-1)^{(g-1) q} [f, G] ^ F'
            head, tail = left[0], left[1:]
            q = self._factor_degree(tail)
            g = self._factor_degree(right)
            first = self._wedge_factor(head, self._sn_factors(tail, right))
            second = self._sn_factors((head,), right).wedge(self._factor_element(tail))
            if (g - 1) * q % 2:
                second = -second
            result = first + second
        elif len(right) > 1:
            # [f, g0 ^ G'] = [f, g0] ^ G' + (-1)^{(p-1) q0} g0 ^ [f, G']
            head, tail = right[0], right[1:]
            p = self._factor_degree(left)
            q0 = self._factor_degree((head,))
            first = self._sn_factors(left, (head,)).wedge(self._factor_element(tail))
            second = self._wedge_factor(head, self._sn_factors(left, tail))
            if (p - 1) * q0 % 2:
                second = -second
            result = first + second
        else:
            result = self._sn_base(left[0], right[0])
        self._sn_memo[key] = result
        return result

    def _wedge_factor(self, factor, element: Element) -> Element:
        kind, value = factor
        if kind == "g":
            return Element({(value,): self.ring.one()}).wedge(element)
        return element.scale(value)

    def _sn_base(self, f1, f2) -> Element:
        kind1, v1 = f1
        kind2, v2 = f2
        if kind1 == "g" and kind2 == "g":
            return self._gen_bracket(v1, v2)
        if kind1 == "g":
            return self.scalar(self.anchor_apply(v1, v2))
        if kind2 == "g":
            return self.scalar(-self.anchor_apply(v2, v1))
        return Element.zero()

    # -- validation ------------------------------------------------------------

    def jacobiator(self, i: int, j: int, k: int) -> Element:
        ei, ej, ek = self.generator(i), self.generator(j), self.generator(k)
        return (self.sn_bracket(ei, self.sn_bracket(ej, ek))
                + self.sn_bracket(ej, self.sn_bracket(ek, ei))
                + self.sn_bracket(ek, self.sn_bracket(ei, ej)))

    def validate(self) -> None:
        """Jacobi on generator triples, anchor morphism property, and the
        Gerstenhaber identities on a basis family.  Raises InputError."""
        for i, j, k in itertools.combinations(range(self.rank), 3):
            if not self.jacobiator(i, j, k).is_zero():
                names = self.generator_names
                raise InputError(
                    f"Jacobi identity fails on ({names[i]}, {names[j]}, {names[k]})")
        if isinstance(self.data, PolyAlgebroidData):
            self._validate_anchor_morphism()
        self._validate_gerstenhaber()

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

    def _gerstenhaber_family(self) -> list[Element]:
        family = list(self.all_basis())
        if isinstance(self.data, PolyAlgebroidData):
            for m in range(self.data.base_dim):
                x = self.ring.var(m)
                family.extend(el.scale(x) for el in self.all_basis())
        return family

    def _validate_gerstenhaber(self) -> None:
        """Graded skew-symmetry on every ordered pair (P, Q) and the graded
        Leibniz rule on every triple (P, Q, R) of ``_gerstenhaber_family``:

            [P,Q] = -(-1)^{(p-1)(q-1)} [Q,P]
            [P, Q^R] = [P,Q]^R + (-1)^{(p-1)q} Q^[P,R]

        The family is the monomial basis, and on a polynomial algebroid also
        the basis scaled by each coordinate.  Pairs and triples are checked
        in nested family order and the first failure raises InputError.
        Each distinct bracket is computed once: [P,Q] over the family goes
        into a table, each Q^R is formed once, and [P, Q^R] is memoized per
        P, keyed by the element Q^R (sn_bracket depends only on its
        arguments' terms)."""
        family = self._gerstenhaber_family()
        degrees = [P.require_homogeneous() for P in family]
        table = [[self.sn_bracket(P, Q) for Q in family] for P in family]
        for a, p in enumerate(degrees):
            for b, q in enumerate(degrees):
                skew = table[a][b] + table[b][a].scale(sign_pow((p - 1) * (q - 1)))
                if not skew.is_zero():
                    raise InputError(
                        f"graded skew-symmetry fails on {self.basis_label(family[a])},"
                        f" {self.basis_label(family[b])}")
        wedges = [[Q.wedge(R) for R in family] for Q in family]
        for a, P in enumerate(family):
            p = degrees[a]
            row = table[a]
            on_p = dict(zip(family, row))       # [P, X] keyed by X
            for b, Q in enumerate(family):
                sign = sign_pow((p - 1) * degrees[b])
                for c, R in enumerate(family):
                    QR = wedges[b][c]
                    lhs = on_p.get(QR)
                    if lhs is None:
                        lhs = on_p[QR] = self.sn_bracket(P, QR)
                    rhs = row[b].wedge(R) + Q.wedge(row[c]).scale(sign)
                    if not (lhs - rhs).is_zero():
                        raise InputError(
                            f"graded Leibniz rule fails on {self.basis_label(P)},"
                            f" {self.basis_label(Q)}, {self.basis_label(R)}")


# -- standard instances --------------------------------------------------------

def aff1(convention=GradingConvention.NEGATED, check=True) -> GradedInstance:
    """2-dim solvable algebra of the affine line: [e1, e2] = e2."""
    data = LieAlgebraData(2, brackets={(0, 1): {1: 1}})
    return GradedInstance(data, convention, name="aff1", check=check)


def heisenberg3(convention=GradingConvention.NEGATED, check=True) -> GradedInstance:
    """3-dim Heisenberg algebra: [e1, e2] = e3."""
    data = LieAlgebraData(3, brackets={(0, 1): {2: 1}})
    return GradedInstance(data, convention, name="heisenberg3", check=check)


def so3(convention=GradingConvention.NEGATED, check=True) -> GradedInstance:
    """so(3): [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2."""
    data = LieAlgebraData(3, brackets={(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    return GradedInstance(data, convention, name="so3", check=check)


def abelian2(convention=GradingConvention.NEGATED, check=True) -> GradedInstance:
    data = LieAlgebraData(2)
    return GradedInstance(data, convention, name="abelian2", check=check)


def broken_jacobi3(convention=GradingConvention.NEGATED) -> GradedInstance:
    """Negative control: a 3-dim antisymmetric bracket violating Jacobi
    ([e1,e2]=e3, [e1,e3]=e1; the Jacobiator on (e1,e2,e3) equals e3).
    2-dim tables cannot violate Jacobi, so the control is 3-dimensional."""
    data = LieAlgebraData(3, brackets={(0, 1): {2: 1}, (0, 2): {0: 1}})
    return GradedInstance(data, convention, name="broken-jacobi3", check=False)


def poly_tangent_r2(convention=GradingConvention.SHIFTED2, check=True) -> GradedInstance:
    """Tangent algebroid of the affine plane with polynomial coefficients:
    rank 2, identity anchor, zero structure functions."""
    ring = PolyRing(("x1", "x2"))
    one, zero = ring.one(), ring.zero()
    data = PolyAlgebroidData(
        base_dim=2, rank=2,
        coordinates=("x1", "x2"), generator_names=("a1", "a2"),
        anchor=[[one, zero], [zero, one]],
        brackets={},
    )
    return GradedInstance(data, convention, name="poly-tangent-r2", check=check)


STANDARD_INSTANCES = {
    "aff1": aff1,
    "heisenberg3": heisenberg3,
    "so3": so3,
    "abelian2": abelian2,
    "poly-tangent-r2": poly_tangent_r2,
}
