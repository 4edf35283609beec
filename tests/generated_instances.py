"""Instances beyond the shipped ones, fixed and generated (Hypothesis
strategies), with random elements on them, and the negative control
``broken_jacobi3``."""

from fractions import Fraction

from hypothesis import strategies as st

from rnforms.elements import Element
from rnforms.instances import GradedInstance, LieAlgebraData, PolyAlgebroidData
from rnforms.rings import Poly, PolyRing

NON_INTEGRAL = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-5, 2))


@st.composite
def two_step_nilpotent(draw, max_dim=5):
    """A 2-step nilpotent Lie algebra of dimension 4 to ``max_dim``: brackets
    of the first generators land in the centre (the last one or two), so
    Jacobi holds by construction; [e1, e2] always has a non-integral
    constant."""
    dim = draw(st.integers(4, max_dim))
    centre = range(dim - draw(st.integers(1, 2)), dim)
    constants = st.sampled_from((0, 0, 1, -1, 2) + NON_INTEGRAL)
    brackets = {(i, j): {k: draw(constants) for k in centre}
                for i in range(centre.start) for j in range(i + 1, centre.start)}
    brackets[(0, 1)][centre.stop - 1] = draw(st.sampled_from(NON_INTEGRAL))
    return GradedInstance(LieAlgebraData(dim, brackets=brackets), name=f"nilpotent{dim}")


@st.composite
def semidirect(draw, max_n=3):
    """R ⋉ R^n for n = 2 to ``max_n``: e1 acts on the abelian ideal spanned
    by e2..e(n+1) through a random integer matrix A, [e1, e(i+1)] = sum_j
    A[j][i] e(j+1), and the ideal's brackets vanish, so Jacobi holds for
    every A (checked at construction all the same)."""
    n = draw(st.integers(2, max_n))
    A = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    brackets = {(0, i + 1): {j + 1: A[j][i] for j in range(n)} for i in range(n)}
    return GradedInstance(LieAlgebraData(n + 1, brackets=brackets), name=f"semidirect{n}")


def broken_jacobi3() -> GradedInstance:
    """Negative control: a 3-dim antisymmetric bracket violating Jacobi
    ([e1,e2]=e3, [e1,e3]=e1; the Jacobiator on (e1,e2,e3) equals e3).
    2-dim tables cannot violate Jacobi, so the control is 3-dimensional."""
    data = LieAlgebraData(3, brackets={(0, 1): {2: 1}, (0, 2): {0: 1}})
    return GradedInstance(data, name="broken-jacobi3", check=False)


def heisenberg(m: int) -> GradedInstance:
    """The Heisenberg algebra of dimension 2m + 1: [e(i), e(m+i)] = e(2m+1)
    for i = 1..m, all other brackets zero."""
    dim = 2 * m + 1
    brackets = {(i, m + i): {dim - 1: 1} for i in range(m)}
    return GradedInstance(LieAlgebraData(dim, brackets=brackets), name=f"h{dim}")


def affine_x_algebroid() -> GradedInstance:
    """Rank 2 over the line: rho(a1) = d/dx, rho(a2) = x d/dx, [a1, a2] = a1."""
    ring = PolyRing(("x1",))
    data = PolyAlgebroidData(1, 2, ("x1",), ("a1", "a2"), anchor=[[ring.one()], [ring.var(0)]],
                             brackets={(0, 1): {0: ring.one()}})
    return GradedInstance(data, name="affine-x")


def rank3_algebroid(anchor=None, a3_of_12=None, a3_of_13=None) -> GradedInstance:
    """Rank 3 over the line: rho(a1) = anchor(x1) d/dx1, rho(a2) = rho(a3) = 0,
    [a1, a2] = a3_of_12(x1) a3, [a1, a3] = a3_of_13(x1) a3, [a2, a3] = 0.
    Jacobi and the anchor morphism hold for every choice of the three
    polynomials; the defaults (1, x1, 0) give the algebroid with
    [a1, a2] = x1 a3."""
    ring = PolyRing(("x1",))
    anchor = ring.one() if anchor is None else anchor
    a3_of_12 = ring.var(0) if a3_of_12 is None else a3_of_12
    brackets = {(0, 1): {2: a3_of_12}}
    if a3_of_13:
        brackets[(0, 2)] = {2: a3_of_13}
    data = PolyAlgebroidData(1, 3, coordinates=("x1",), anchor=[[anchor], [ring.zero()],
                                                                 [ring.zero()]],
                             brackets=brackets)
    return GradedInstance(data, name="rank3")


def polynomials(nvars: int, max_degree=2):
    """Polynomials with up to three terms and small rational coefficients."""
    exponents = st.tuples(*[st.integers(0, max_degree)] * nvars)
    coefficients = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
    return st.dictionaries(exponents, coefficients, max_size=3).map(
        lambda terms: Poly(nvars, terms))


@st.composite
def poly_rank3(draw):
    """A generated ``rank3_algebroid``: polynomial anchor and structure
    functions of degree <= 2."""
    anchor = draw(polynomials(1).filter(bool))
    return rank3_algebroid(anchor, draw(polynomials(1)), draw(polynomials(1)))


@st.composite
def elements(draw, inst):
    """A random element: up to four terms of any wedge degrees with Fraction
    coefficients, and on a polynomial algebroid also Poly ones."""
    monomials = st.sets(st.integers(0, inst.rank - 1)).map(lambda s: tuple(sorted(s)))
    if inst.ring.kind == "poly":
        coefficients = polynomials(inst.ring.nvars) | st.sampled_from(NON_INTEGRAL + (1, -2))
    else:
        coefficients = st.sampled_from((1, -1, 2, -3) + NON_INTEGRAL)
    terms = draw(st.dictionaries(monomials, coefficients, min_size=1, max_size=4))
    return Element({mon: c if isinstance(c, Poly) else Fraction(c) for mon, c in terms.items()})
