"""Antisymmetric k-forms on the dual, and the Cartan calculus on them.

A DualForm stores its values on strictly increasing generator tuples; all
other values follow by antisymmetry and multilinearity over the coefficient
ring.  Every computed form is built by ``tabulate`` from its defining
formula on generator arguments.  The determinant convention, which fixes
every contraction sign in the kernel, is stated once, at ``pi_sharp``; its
permutation-determinant reference, ``element_on_duals``, lives in
``tests/dualforms_reference.py``.  The differential is the Cartan formula
(anchor terms plus bracket terms); over a point it reduces to
d k(X, Y) = -k([X, Y]).
"""

from __future__ import annotations

import itertools

from .elements import Element, sort_monomial
from .instances import GradedInstance
from .rings import InputError


class DualForm:
    """k-form with entries in the instance's coefficient ring."""

    def __init__(self, instance: GradedInstance, k: int, table=None):
        if k < 0:
            raise InputError("form degree must be nonnegative")
        if k > instance.rank and table:
            raise InputError(f"a nonzero {k}-form cannot exist on rank {instance.rank}")
        self.instance = instance
        self.k = k
        ring = instance.ring
        clean = {}
        for mon, coeff in (table or {}).items():
            mon = tuple(mon)
            if len(mon) != k:
                raise InputError(f"table key {mon} does not have length {k}")
            mon = instance.monomial_key(mon, "table key")
            coeff = ring.coerce(coeff)
            if coeff:
                clean[mon] = coeff
        self.table = clean

    @classmethod
    def zero(cls, instance, k) -> "DualForm":
        return cls(instance, k, {})

    def is_zero(self) -> bool:
        return not self.table

    def __add__(self, other: "DualForm") -> "DualForm":
        self._check(other)
        table = dict(self.table)
        for mon, coeff in other.table.items():
            acc = table.get(mon, self.instance.ring.zero()) + coeff
            if acc:
                table[mon] = acc
            else:
                table.pop(mon, None)
        return DualForm(self.instance, self.k, table)

    def __sub__(self, other: "DualForm") -> "DualForm":
        return self + other.scale(-1)

    def scale(self, factor) -> "DualForm":
        return DualForm(self.instance, self.k,
                        {mon: factor * c for mon, c in self.table.items()})

    def __eq__(self, other):
        if not isinstance(other, DualForm):
            return NotImplemented
        return self.instance is other.instance and self.k == other.k and self.table == other.table

    def __hash__(self):
        return hash((self.k, tuple(sorted(self.table))))

    def _check(self, other: "DualForm"):
        if self.instance is not other.instance or self.k != other.k:
            raise InputError("dual forms of different instances or degrees")

    def entry(self, indices) -> object:
        """Value on a generator tuple in any order (sign by antisymmetry)."""
        order, sign = sort_monomial(indices)
        value = self.table.get(order) if sign else None
        if value is None:
            return self.instance.ring.zero()
        return value if sign > 0 else -value

    def apply(self, sections) -> object:
        """Multilinear evaluation on wedge-degree-1 elements."""
        sections = tuple(sections)
        if len(sections) != self.k:
            raise InputError(f"a {self.k}-form takes {self.k} sections")
        total = self.instance.ring.zero()
        for picks in itertools.product(*(s.terms.items() for s in sections)):
            coeff = self.instance.ring.one()
            indices = []
            for mon, c in picks:
                if len(mon) != 1:
                    raise InputError("dual form applied to a non-section")
                coeff = coeff * c
                indices.append(mon[0])
            total = total + coeff * self.entry(indices)
        return total

    def label(self) -> str:
        inst = self.instance
        bits = []
        for mon, coeff in sorted(self.table.items()):
            name = "^".join(f"{inst.generator_names[i]}*" for i in mon) if mon else "1"
            c = inst.ring.format(coeff)
            bits.append(f"({c})*{name}" if c != "1" else name)
        return " + ".join(bits) if bits else "0"


def tabulate(inst: GradedInstance, k: int, value) -> DualForm:
    """The k-form whose entry on each increasing generator tuple
    (a_i1, ..., a_ik) is ``value(a_i1, ..., a_ik)``, a function of k
    wedge-degree-1 Elements."""
    gens = [inst.generator(i) for i in range(inst.rank)]
    return DualForm(inst, k, {mon: value(*(gens[i] for i in mon))
                              for mon in itertools.combinations(range(inst.rank), k)})


def differential(kappa: DualForm) -> DualForm:
    """Cartan differential: (d k)(X_0..X_k) = sum_i (-1)^i rho(X_i) k(..^i..)
    + sum_{i<j} (-1)^{i+j} k([X_i, X_j], ..^i..^j..); d0 = 0 at once."""
    inst = kappa.instance
    if kappa.is_zero():
        return DualForm.zero(inst, kappa.k + 1)

    def value(*xs):
        total = inst.ring.zero()
        for i, X in enumerate(xs):
            term = inst.anchor_on_function(X, kappa.apply(xs[:i] + xs[i + 1:]))
            total = total + (-term if i % 2 else term)
        for (i, X), (j, Y) in itertools.combinations(enumerate(xs), 2):
            rest = xs[:i] + xs[i + 1:j] + xs[j + 1:]
            term = kappa.apply((inst.sn_bracket(X, Y),) + rest)
            total = total + (-term if (i + j) % 2 else term)
        return total

    return tabulate(inst, kappa.k + 1, value)


def iota_element(X: Element, kappa: DualForm) -> DualForm:
    """Contraction with a wedge-degree-1 element in the first slot."""
    if kappa.k == 0:
        raise InputError("cannot contract a 0-form")
    if any(len(mon) != 1 for mon in X.terms):
        raise InputError("contraction needs a wedge-degree-1 element")
    return tabulate(kappa.instance, kappa.k - 1, lambda *rest: kappa.apply((X,) + rest))


def lie_derivative(X: Element, kappa: DualForm) -> DualForm:
    """Cartan formula L_X = i_X d + d i_X; on 0-forms, rho(X) f."""
    inst = kappa.instance
    if kappa.k == 0:
        f = kappa.table.get((), inst.ring.zero())
        return DualForm(inst, 0, {(): inst.anchor_on_function(X, f)})
    first = iota_element(X, differential(kappa))
    second = differential(iota_element(X, kappa))
    return first + second


def d_function(inst: GradedInstance, f) -> DualForm:
    return differential(DualForm(inst, 0, {(): f}))


def pairing(alpha: DualForm, X: Element):
    """<alpha, X> for a 1-form and a section."""
    if alpha.k != 1:
        raise InputError("pairing needs a 1-form")
    return alpha.apply((X,))


def pi_sharp(pi: Element, alpha: DualForm) -> Element:
    """pi#(alpha), defined by <beta, pi#(alpha)> = pi(alpha, beta) under the
    determinant convention

        (P_1 ^ ... ^ P_p)(a_1, ..., a_p) = det <a_i, P_j>,

    so (e_i ^ e_j)(alpha, beta) = alpha_i beta_j - alpha_j beta_i."""
    inst = alpha.instance
    if alpha.k != 1:
        raise InputError("pi# needs a 1-form")
    if not pi.is_zero() and pi.require_homogeneous() != 2:
        raise InputError("pi must have wedge degree 2")
    terms: dict = {}
    for (i, j), coeff in pi.terms.items():
        ai = alpha.entry((i,))
        aj = alpha.entry((j,))
        # (e_i ^ e_j)# alpha = <alpha, e_i> e_j - <alpha, e_j> e_i
        if ai:
            terms[(j,)] = terms.get((j,), inst.ring.zero()) + coeff * ai
        if aj:
            terms[(i,)] = terms.get((i,), inst.ring.zero()) - coeff * aj
    return Element({mon: c for mon, c in terms.items() if c})


def unit_duals(inst: GradedInstance) -> list:
    """The dual generators e1*, ..., en* as 1-forms."""
    return [DualForm(inst, 1, {(i,): inst.ring.one()}) for i in range(inst.rank)]


def n_star(inst: GradedInstance, N, alpha: DualForm) -> DualForm:
    """Transpose action: <N* alpha, X> = <alpha, N X>."""
    if alpha.k != 1:
        raise InputError("N* acts on 1-forms")
    return tabulate(inst, 1, lambda X: pairing(alpha, apply_matrix(inst, N, X)))


def apply_matrix(inst: GradedInstance, N, X: Element) -> Element:
    """N X for a wedge-degree-1 element."""
    check_matrix(inst, N)
    terms: dict = {}
    for mon, coeff in X.terms.items():
        if len(mon) != 1:
            raise InputError("bundle map applied to a non-section")
        for j in range(inst.rank):
            entry = N[j][mon[0]]
            if entry:
                acc = terms.get((j,), inst.ring.zero()) + coeff * entry
                terms[(j,)] = acc
    return Element({mon: c for mon, c in terms.items() if c})


def matrix_mul(inst: GradedInstance, A, B):
    n = inst.rank
    return [[sum((A[i][k] * B[k][j] for k in range(n)), inst.ring.zero())
             for j in range(n)] for i in range(n)]


def check_matrix(inst: GradedInstance, N) -> None:
    """InputError unless the bundle map ``N`` is a rank x rank matrix."""
    n = inst.rank
    if len(N) != n or any(len(row) != n for row in N):
        raise InputError(f"bundle map must be a {n}x{n} matrix")


def compat_n_pi(inst: GradedInstance, N, pi: Element) -> bool:
    """N o pi# = pi# o N*, compared on the dual generators."""
    check_matrix(inst, N)
    return all(apply_matrix(inst, N, pi_sharp(pi, a)) == pi_sharp(pi, n_star(inst, N, a))
               for a in unit_duals(inst))


def compat_omega_n(inst: GradedInstance, omega: DualForm, N) -> bool:
    """omega_flat o N = N* o omega_flat, i.e. omega(N X, Y) = omega(X, N Y)."""
    check_matrix(inst, N)
    for i in range(inst.rank):
        for j in range(inst.rank):
            lhs = omega.apply((apply_matrix(inst, N, inst.generator(i)), inst.generator(j)))
            rhs = omega.apply((inst.generator(i), apply_matrix(inst, N, inst.generator(j))))
            if lhs != rhs:
                return False
    return True


def omega_n(omega: DualForm, N) -> DualForm:
    """omega_N(X, Y) = omega(N X, Y) = omega(X, N Y); requires compatibility."""
    inst = omega.instance
    if not compat_omega_n(inst, omega, N):
        raise InputError("omega_flat o N != N* o omega_flat; omega_N is not defined")
    return tabulate(inst, 2, lambda X, Y: omega.apply((apply_matrix(inst, N, X), Y)))


def iota_n(theta: DualForm, N) -> DualForm:
    """(i_N theta)(X,Y,Z) = theta(NX,Y,Z) + theta(X,NY,Z) + theta(X,Y,NZ)."""
    inst = theta.instance
    if theta.k != 3:
        raise InputError("i_N here acts on 3-forms")

    def value(*xs):
        return sum((theta.apply(xs[:slot] + (apply_matrix(inst, N, xs[slot]),) + xs[slot + 1:])
                    for slot in range(3)), inst.ring.zero())

    return tabulate(inst, 3, value)


def background_script(H: DualForm, N) -> DualForm:
    """Cyclic background combination: (X,Y,Z) -> H(NX,NY,Z) + cycl."""
    inst = H.instance
    if H.k != 3:
        raise InputError("the background combination needs a 3-form")

    def value(X, Y, Z):
        NX, NY, NZ = (apply_matrix(inst, N, W) for W in (X, Y, Z))
        return H.apply((NX, NY, Z)) + H.apply((NY, NZ, X)) + H.apply((NZ, NX, Y))

    return tabulate(inst, 3, value)
