"""Graded-symmetric vector-valued forms as evaluable objects.

A VForm of arity k maps k-tuples of homogeneous elements to elements,
multilinearly and graded-symmetrically.  A form is either an atomic node
(a primitive rule or an insertion), which owns a memo, or a rational linear
combination of atomic nodes.  A shared combination (the representative that
:func:`insert` reduces a combination operand to) owns a memo too, so an
insertion reads each of its operands' values once per key; a combination
built on the fly by scaling, sums or brackets owns none, and sums its
nodes' values on every lookup.  Forms carry no names.  Every atomic node
and every shared combination is hash-consed on its instance by
:func:`shared_node`: a primitive (a catalog form) is keyed by its
defining data, an insertion by the shared representatives
of both sides, so [aK, bL] reuses the node of [K, L] and the same values
are never computed twice under different nodes.  Scaling, sums and brackets only merge coefficient maps.
Values are only computed by evaluation and by :func:`is_zero`.

The kernel runs on integer piece ids.  One id table per instance
(:class:`_Ids`, empty until the first evaluation or certificate) numbers
each Q-basis piece (a coordinate monomial times a wedge monomial: the
wedge monomial alone when there are no coordinates) when it first meets
it, through :meth:`_Ids.piece`, and keeps each piece's Element, parity and
sort key.  Ids carry no order: every sort and bisect orders
them by sort key.  **A memo key is a tuple of ids in canonical order** (by
sort key, no repeated odd id) and **a memo value is a piece map** {id:
nonzero int or Fraction}, never mutated once stored: an integral
coefficient is an int (:func:`rings.plain`, the rule of :class:`rings.Poly`
too), so the common case runs on C integer arithmetic.  Only :meth:`VForm.evaluate` sorts,
at the entry; Elements appear only there and in the failing tuple and
counterexample of :func:`is_zero`.  A catalog rule's value is
split into pieces once per memo miss.  An insertion bisects each piece of
K(first slice of its key) into the sorted rest, with the Koszul sign of the
odd ids it passes.

Degree bookkeeping is carried by the wedge shift c (output wedge degree
minus the sum of the input wedge degrees), and a form carries no grading.
A grading's degree is -c (negated) or c + 2(k-1) (shifted by 2,
graded.GradingConvention.form_degree); both have the parity of c, so every
sign in the bracket calculus is grading independent.  Only the callers that
check a degree pick a grading: ``linfty.nijenhuis_forms`` and the form
expressions of ``cli``.

**The wedge-degree window.**  A form of shift c maps a tuple whose wedge
degrees sum to s into the exterior power of degree s + c, which is 0 unless
0 <= s + c <= rank.  So a key outside that window has the value 0 by
grading, a proof in the same sense as multilinearity: :meth:`VForm._lookup`
returns the shared empty map for it and stores no memo entry (on an atomic
node or a shared combination alike), and
:func:`is_zero` evaluates only the canonical tuples inside the window while
its count covers all of them.  The argument rests on one invariant, checked
where it is not exact by construction: on a memo miss, every piece of a
catalog rule's value must have wedge degree s + c, or the lookup raises
RuntimeError.  An insertion's shift is K.shift + L.shift and a
combination's parts share its shift, so both are exact.

**The order family.**  Wedge monomials times coordinate monomials x^a
are the products of generators (basis sections, odd; coordinates, even)
of a graded-commutative algebra A.  ``VForm.order``
bounds a form's order in each argument, the others fixed anywhere, in
Grothendieck's sense: D has order <= r when every (r+1)-fold graded
commutator [...[D, c_0], ..., c_r] with left multiplications vanishes
(None: no bound).  Such a form vanishes if it vanishes on all tuples of
products of <= r generators (1 included: the order family).  Proof:
expanding the commutator at x = c_{r+1}...c_{m-1} writes D(c_0...c_{m-1})
through D on shorter products, so by induction on m, D vanishes on all
products, which span A; then take the next argument.  So on an instance
with no coordinates (a Lie algebra) :func:`is_zero` walks only the order
family, built from its definition (the whole basis when r is None), and
its first nonzero value is the counterexample, by the lemma below.  With
coordinates it walks the order family first when the declared family
holds all of it and more, and the whole family only after a nonzero value
there (same counterexample).  The count is always the full one.  A
primitive declares its order; an insertion has r_K + r_L (a composition);
sums and scaling keep the largest bound; None stays None.  The bracket :func:`rn_vform`
records max(r_K + r_L - 1, r_K, r_L) on its combination, not on its nodes:
for each split (B, C) of the other arguments, L(K(a, B), C) and
K(L(a, C), B) form a graded commutator of operators in a of orders r_K and
r_L, so of order r_K + r_L - 1 ([[D, E], c] = [[D, c], E] +- [D, [E, c]],
by induction; order 0 is a multiplication); in the other terms a sits in L
or K directly.  A shared node keeps the tightest bound any construction
proves.

**Lemma.**  On an instance with no coordinates, the first nonzero
canonical tuple of a form of order <= r, in the walk's lexicographic
order, lies in the order family O.  Proof: sort keys order ids by wedge
degree first and there is no coordinate, so O (the wedge monomials of
degree <= r) is an initial segment of the basis.
Suppose the first nonzero canonical tuple T* = (t_1..t_k) had an entry of
degree > r, the first one t_i.  The residual f(t_1..t_{i-1}, .) has order
<= r in each argument and is nonzero (at (t_i..t_k)), so by the proof
above it is nonzero on some O-tuple Q.  Then S = sort(t_1..t_{i-1}, Q) is
canonical, since f(S) = +-f(t_1..t_{i-1}, Q) is nonzero.  S replaces each
of t_i..t_k by a strictly smaller entry, so it precedes T* entry by entry
(sorting is monotone) and is smaller in its last: S comes strictly before
T*, against the choice of T*.  Tuples outside the window are zero, so the
window changes nothing.  With a coordinate, O is not an initial segment
of the declared family's key order (for r >= 1, x_1^(r+1), of wedge
degree 0 and outside O, sorts before every generator e_j), so both passes
stay there.

**The declared family.**  An instance with coordinates certifies on the
pieces x^a times a wedge monomial with |a| <= ``poly_degree_bound``,
built from that definition as piece ids by the enumerator of the order
family (where |a| + wedge degree <= r), so its pieces are distinct.  It holds all of
the order family of r, and more, exactly when r <= the bound: only then
is x_1^r in it, and a_1 x_1^bound is never in that order family.  Every
count is the closed sum over b of C(O, b) C(E + a - b - 1, a - b) over
the family's E even and O odd ids.  With no coordinates the family is the
basis, with E = O = 2^(rank-1); it is listed, and numbered, only for a
component with no order bound, or one of at least rank.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import comb
from operator import itemgetter
from types import MappingProxyType

from .elements import Element
from .graded import koszul_sign, sign_pow, unshuffles
from .instances import GradedInstance
from .rings import InputError, Poly, plain

_ONE = Fraction(1)
_EMPTY = MappingProxyType({})       # the memo of an unshared combination, every out-of-window value


class _Ids:
    """The piece id table of an instance, empty until a piece is met.
    ``index`` maps a (wedge monomial, exponent) pair or a non-piece argument
    to its id, the next free one when first met; ``keys[i]`` is its sort
    key."""

    def __init__(self, instance: GradedInstance):
        self.ring = instance.ring
        self.rank = instance.rank
        self.elements, self.odd, self.keys, self.index = [], [], [], {}

    def _add(self, el: Element, lookup) -> int:
        i = self.index[lookup] = len(self.elements)
        self.elements.append(el)
        self.odd.append(el.wedge_degree() & 1)
        self.keys.append((el.wedge_degree(), el.key(self.ring)))
        return i

    def piece(self, mon, expo) -> int:
        """The id of the piece x^expo * mon."""
        lookup = (mon, expo)
        i = self.index.get(lookup)
        if i is None:
            i = self._add(Element({mon: Poly(self.ring.nvars, {expo: 1})}), lookup)
        return i

    def id_of(self, el: Element) -> int:
        """The id of a nonzero homogeneous element: its piece's when it is
        one piece with coefficient 1."""
        ((i, c), *more) = self.split(el).items()
        if c == 1 and not more:
            return i
        i = self.index.get(el)
        return self._add(el, el) if i is None else i

    def split(self, value: Element) -> dict:
        """An Element as a piece map."""
        piece = self.piece
        return {piece(mon, expo): c for mon, poly in value.terms.items()
                for expo, c in self.ring.coerce(poly).terms()}

    def element(self, value: dict) -> Element:
        """A piece map as an Element."""
        terms: dict = {}
        for i, c in value.items():
            ((mon, unit),) = self.elements[i].terms.items()
            terms[mon] = terms[mon] + unit * c if mon in terms else unit * c
        return Element(terms)


class VForm:
    """A single graded-symmetric vector-valued form of one arity.

    ``terms`` is None for an atomic node, whose rule ``fn`` runs on memo
    misses: a catalog rule maps a canonical tuple of Elements to an Element,
    an insertion rule (``on_ids``) maps a key to a piece map.  Otherwise
    ``terms`` maps atomic nodes to nonzero Fraction coefficients (read by
    lookups as :func:`rings.plain` gives them), there is no rule, and only a
    ``shared`` combination has a memo.  ``order`` is the order bound (see
    the module docstring), by default that of the nodes."""

    def __init__(self, instance: GradedInstance, arity: int, shift: int, fn,
                 terms=None, on_ids=False, shared=False, order=None):
        if arity < 0:
            raise InputError("form arity must be nonnegative")
        self.instance = instance
        self.arity = arity
        self.shift = shift
        self.fn = fn
        self.on_ids = on_ids
        self.terms = terms
        self.order = order
        if terms is None:
            self._memo: dict = {}
            self._order = instance._node_count = instance._node_count + 1
        else:
            self._memo = {} if shared else _EMPTY
            self._coeffs = tuple([(node, plain(c)) for node, c in terms.items()])
            if order is None:
                self.order = _max_order([node.order for node in terms])

    @classmethod
    def combination(cls, instance, arity, shift, terms, shared=False, order=None) -> "VForm":
        """The linear combination sum c * node over ``terms`` (node -> c);
        ``shared`` gives it a memo."""
        return cls(instance, arity, shift, None, terms=terms, shared=shared, order=order)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, args) -> Element:
        key, sign = self._canonical(args)
        if not sign:
            return Element.zero()
        value = self.instance._ids.element(self._lookup(key))
        return value if sign > 0 else -value

    __call__ = evaluate

    def _lookup(self, key) -> dict:
        """The piece map on a key: an atomic node runs its rule, a
        combination sums its nodes' lookups, and both fill the memo when they
        own one.  A key outside the wedge-degree window is zero by grading:
        the empty map, and no memo entry."""
        memo = self._memo
        value = memo.get(key)
        if value is not None:
            return value
        ids = self.instance._ids
        keys = ids.keys
        degree = self.shift
        for i in key:
            degree += keys[i][0]
        if not 0 <= degree <= self.instance.rank:
            return _EMPTY
        if self.terms is not None:
            value = {}
            for node, coeff in self._coeffs:
                part = node._memo.get(key)      # the memo hit path of node._lookup, inlined
                _add_into(value, coeff, node._lookup(key) if part is None else part)
            if memo is _EMPTY:
                return value
        elif self.on_ids:
            value = self.fn(key)
        else:
            value = ids.split(self.fn(tuple([ids.elements[i] for i in key])))
            if any(keys[i][0] != degree for i in value):
                raise RuntimeError(
                    f"a rule of arity {self.arity} and wedge shift {self.shift} gave"
                    f" a value outside wedge degree {degree} on wedge degrees"
                    f" {[keys[i][0] for i in key]}")
        memo[key] = value
        return value

    def _canonical(self, args):
        """(key, sign) of checked arguments: their ids sorted by sort key,
        and the int Koszul sign of the sorting permutation
        (graded.koszul_sign, unvalidated); sign 0 when an argument is zero
        or an odd argument repeats."""
        args = tuple(args)
        if len(args) != self.arity:
            raise InputError(f"a form of arity {self.arity} got {len(args)} arguments")
        for arg in args:
            if not arg.terms:
                return (), 0
            if arg.wedge_degree() is None:
                raise InputError(
                    f"a form of arity {self.arity} got the inhomogeneous argument {arg!r}")
        table = self.instance._ids = self.instance._ids or _Ids(self.instance)
        ids = [table.id_of(arg) for arg in args]
        order = sorted(range(len(ids)), key=lambda j: table.keys[ids[j]])
        key = tuple([ids[i] for i in order])
        if any(a == b and table.odd[a] for a, b in zip(key, key[1:])):
            return (), 0
        odd = [i for i in order if table.odd[ids[i]]]     # original positions, sorted order
        swaps = sum(a > b for a, b in itertools.combinations(odd, 2))
        return key, -1 if swaps & 1 else 1

    # -- linear structure -------------------------------------------------------

    def linear_terms(self) -> dict:
        """The form as a map atomic node -> coefficient."""
        return {self: _ONE} if self.terms is None else self.terms

    def _compatible(self, other: "VForm") -> None:
        if self.instance is not other.instance:
            raise InputError("forms live on different instances")
        if self.arity != other.arity or self.shift != other.shift:
            raise InputError(
                f"cannot add forms of arity/shift ({self.arity},{self.shift}) and"
                f" ({other.arity},{other.shift})")

    def _plus(self, other: "VForm", factor) -> "VForm":
        self._compatible(other)
        terms = dict(self.linear_terms())
        for node, coeff in other.linear_terms().items():
            acc = terms.get(node, 0) + factor * coeff
            if acc:
                terms[node] = acc
            else:
                del terms[node]
        return VForm.combination(self.instance, self.arity, self.shift, terms,
                                 order=_max_order((self.order, other.order)))

    def __add__(self, other: "VForm") -> "VForm":
        return self._plus(other, 1)

    def __sub__(self, other: "VForm") -> "VForm":
        return self._plus(other, -1)

    def scale(self, factor) -> "VForm":
        factor = Fraction(factor)
        terms = ({node: factor * coeff for node, coeff in self.linear_terms().items()}
                 if factor else {})
        return VForm.combination(self.instance, self.arity, self.shift, terms,
                                 order=self.order)

    def __neg__(self) -> "VForm":
        return self.scale(-1)

    @classmethod
    def zero(cls, instance, arity, shift) -> "VForm":
        return cls.combination(instance, arity, shift, {})


def _add_into(total: dict, coeff, value: dict) -> None:
    """total += coeff * value on piece maps (coefficients as
    :func:`rings.plain` gives them), dropping zeros."""
    plain, negate = coeff == 1, coeff == -1
    for piece, c in value.items():
        if not plain:
            c = -c if negate else coeff * c
        acc = total.get(piece)
        if acc is not None:
            c += acc
            if not c:
                del total[piece]
                continue
        total[piece] = c if type(c) is int or c.denominator != 1 else c.numerator


def _max_order(orders):
    """The largest of some order bounds (0 for none); None if one is None."""
    top = 0
    for order in orders:
        if order is None:
            return None
        top = max(top, order)
    return top


def _tighten(node: VForm, order) -> None:
    """Give ``node`` the bound ``order`` when it is tighter than its own."""
    if order is not None and (node.order is None or order < node.order):
        node.order = order


def shared_node(instance: GradedInstance, key, build) -> VForm:
    """The one node of ``instance`` for ``key``, built by ``build()`` on the
    first request (hash-consing).  A key names the node's defining data."""
    nodes = instance._form_nodes
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = build()
    return node


def _representative(form: VForm):
    """(shared representative, factor) with form = factor * representative,
    or (None, 0) for the zero form.  The representative is an atomic node,
    or a shared combination, with a memo, whose first coefficient (in node
    creation order) is 1."""
    if form.terms is None:
        return form, _ONE
    if not form.terms:
        return None, 0
    items = sorted(form.terms.items(), key=lambda item: item[0]._order)
    rep, factor = items[0]
    if len(items) > 1:
        normalized = tuple([(n, c / factor) for n, c in items])
        rep = shared_node(form.instance, ("combination", normalized),
                          lambda: VForm.combination(form.instance, form.arity, form.shift,
                                                    dict(normalized), shared=True))
    _tighten(rep, form.order)
    return rep, factor


def element_form(instance: GradedInstance, element: Element, wedge_degree=None) -> VForm:
    """A homogeneous element as a vector-valued 0-form, one node per
    (element, wedge degree)."""
    if element.is_zero():
        if wedge_degree is None:
            raise InputError("zero 0-form needs an explicit wedge degree")
        deg = wedge_degree
    else:
        deg = element.require_homogeneous()
    return shared_node(instance, ("element", element, deg),
                       lambda: VForm(instance, 0, deg, lambda args: element, order=0))


def insert(K: VForm, L: VForm) -> VForm:
    """Insertion of K into every argument slot of L over (k, l-1)-unshuffles
    with Koszul signs.  Inserting into a 0-form gives the zero form;
    inserting a 0-form X into L is the partial application L(X, ...).

    Both sides are first reduced to (shared representative, factor); the
    insertion of the two representatives is one atomic node per instance,
    and the result is that node times the product of the factors."""
    if K.instance is not L.instance:
        raise InputError("forms live on different instances")
    arity = K.arity + L.arity - 1
    if L.arity == 0 and arity < 0:
        raise InputError("insertion of a 0-form into a 0-form is undefined")
    K_rep, a = _representative(K)
    L_rep, b = _representative(L)
    if L.arity == 0 or K_rep is None or L_rep is None:
        return VForm.zero(K.instance, arity, K.shift + L.shift)
    node = shared_node(K.instance, ("insert", K_rep, L_rep),
                       lambda: _insertion_node(K_rep, L_rep))
    if K_rep.order is not None and L_rep.order is not None:
        _tighten(node, K_rep.order + L_rep.order)
    return node if a * b == 1 else node.scale(a * b)


def _insertion_node(K: VForm, L: VForm) -> VForm:
    """The rule sum over (k, l-1)-unshuffles s of eps(s) L(K(first), rest) on
    keys: each piece of K(first) is bisected into the sorted rest."""
    instance = K.instance
    k = K.arity
    shuffles = [(perm, _getter(perm[:k]), _getter(perm[k:]))
                for perm in unshuffles(k, L.arity - 1)]
    tables: dict = {}       # parity pattern -> ((sign, first k getter, rest getter), ...)

    def fn(args):
        ids = instance._ids
        odd, keys = ids.odd, ids.keys
        parities = tuple([odd[i] for i in args])
        table = tables.get(parities)
        if table is None:
            table = tables[parities] = tuple(
                (koszul_sign(perm, parities), first, rest) for perm, first, rest in shuffles)
        K_get, K_lookup, L_get, L_lookup = K._memo.get, K._lookup, L._memo.get, L._lookup
        total: dict = {}
        for sign, take_first, take_rest in table:
            first = take_first(args)
            inner = K_get(first)        # the memo hit paths of K._lookup and L._lookup, inlined
            if inner is None:
                inner = K_lookup(first)
            if not inner:
                continue
            rest = take_rest(args)
            for piece, coeff in inner.items():
                pos = bisect_left(rest, keys[piece], key=keys.__getitem__)
                moved = sign
                if odd[piece]:
                    if pos < len(rest) and rest[pos] == piece:
                        continue
                    for passed in rest[:pos]:
                        if odd[passed]:
                            moved = -moved
                key = rest[:pos] + (piece,) + rest[pos:]
                value = L_get(key)
                _add_into(total, coeff if moved > 0 else -coeff,
                          L_lookup(key) if value is None else value)
        return total

    return VForm(instance, k + L.arity - 1, K.shift + L.shift, fn, on_ids=True)


def _getter(slots):
    """The sub-tuple at the increasing positions ``slots``, as a C getter."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0))


def rn_vform(K: VForm, L: VForm) -> VForm:
    """Single-component bracket i_K L - (-1)^{deg K deg L} i_L K, of order
    max(r_K + r_L - 1, r_K, r_L) (see the module docstring)."""
    left = insert(K, L)
    right = insert(L, K)
    form = left - right if sign_pow(K.shift * L.shift) > 0 else left + right
    if K.order is not None and L.order is not None:
        _tighten(form, max(K.order + L.order - 1, K.order, L.order))
    return form


class PolyForm:
    """Finite sum of VForms of distinct arities."""

    def __init__(self, instance: GradedInstance, components):
        self.instance = instance
        comps = {}
        for form in components:
            if form.instance is not instance:
                raise InputError("component lives on a different instance")
            if form.arity in comps:
                comps[form.arity] = comps[form.arity] + form
            else:
                comps[form.arity] = form
        self.components = dict(sorted(comps.items()))

    def component(self, arity: int) -> VForm | None:
        return self.components.get(arity)

    def __add__(self, other: "PolyForm") -> "PolyForm":
        other = as_polyform(other)
        return PolyForm(self.instance,
                        list(self.components.values()) + list(other.components.values()))

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        other = as_polyform(other)
        return self + other.scale(-1)

    def scale(self, factor) -> "PolyForm":
        return PolyForm(self.instance,
                        [f.scale(factor) for f in self.components.values()])


def as_polyform(form) -> PolyForm:
    if isinstance(form, PolyForm):
        return form
    if isinstance(form, VForm):
        return PolyForm(form.instance, [form])
    raise InputError(f"not a form: {form!r}")


def rn_bracket(K, L) -> PolyForm:
    """Richardson-Nijenhuis bracket, extended bilinearly over components."""
    K = as_polyform(K)
    L = as_polyform(L)
    if K.instance is not L.instance:
        raise InputError("forms live on different instances")
    parts = []
    for k, Kk in K.components.items():
        for l, Ll in L.components.items():
            if k == 0 and l == 0:
                continue
            parts.append(rn_vform(Kk, Ll))
    return PolyForm(K.instance, parts)


# -- exhaustive zero checking ----------------------------------------------------


class ZeroCertificate:
    """Verdict of an exhaustive (or, on an instance with coordinates,
    declared-family) vanishing check."""

    def __init__(self, count, complete, counterexample, family_note, failing=None):
        self.count = count                      # the number of covered canonical tuples
        self.complete = complete
        self.counterexample = counterexample    # (tuple label, value label) or None
        self.family_note = family_note
        self.failing = failing                  # the canonical tuple labelled there

    # read-only for bench/tracer.py, which takes its len(): that fails past 2^63 - 1
    checked = property(lambda self: range(self.count))

    @property
    def is_zero(self) -> bool:
        return self.counterexample is None

    def __repr__(self):
        status = "zero" if self.is_zero else f"nonzero at {self.counterexample[0]}"
        return f"ZeroCertificate({status}, complete={self.complete})"


def _order_family(table: _Ids, order: int, bound=None) -> list:
    """The ids of the products of at most ``order`` generators (1 included),
    sorted by key: wedge monomials of degree j <= order, times x^a with
    |a| <= order - j, or with |a| <= ``bound`` when it is given (the
    declared family, for ``order`` the rank).  With no coordinates x^a is
    1 alone."""
    nvars = table.ring.nvars
    ids = []
    for j in range(min(order, table.rank) + 1):
        top = order - j if bound is None else bound
        expos = [tuple(combo.count(v) for v in range(nvars)) for total in range(top + 1)
                 for combo in itertools.combinations_with_replacement(range(nvars), total)]
        for mon in itertools.combinations(range(table.rank), j):
            ids.extend([table.piece(mon, expo) for expo in expos])
    return sorted(ids, key=table.keys.__getitem__)


def _tuple_count(even: int, odd: int, arity: int) -> int:
    """The number of canonical tuples of ``arity`` over ``even`` even and
    ``odd`` odd distinct elements: b distinct odd ones and a multiset of
    arity - b even ones."""
    return sum(comb(odd, b) * (comb(even + arity - b - 1, arity - b) if arity > b else 1)
               for b in range(min(arity, odd) + 1))


def _window_keys(order, keys, odd, arity: int, low: int, high: int):
    """The non-decreasing ``arity``-tuples over the distinct ids ``order``,
    sorted by key, with no repeated odd id and wedge degree sum in [low,
    high], in lexicographic order of positions: the pick after position j
    starts at j + 1 after an odd id, at j after an even one.  Branches that
    cannot reach the window are cut: least[r][j] and most[r][j] are the
    smallest and largest degree sums of r picks from positions j on."""
    n = len(order)
    degree = [keys[i][0] for i in order]
    step = [odd[i] for i in order]
    far = float("inf")
    least, most = [[0] * (n + 1)], [[0] * (n + 1)]
    for _ in range(arity):
        fewer_least, fewer_most = least[-1], most[-1]
        row_least, row_most = [far] * (n + 1), [-far] * (n + 1)
        for j in range(n - 1, -1, -1):
            row_least[j] = min(row_least[j + 1], degree[j] + fewer_least[j + step[j]])
            row_most[j] = max(row_most[j + 1], degree[j] + fewer_most[j + step[j]])
        least.append(row_least)
        most.append(row_most)

    def walk(start, r, total, prefix):
        fewer_least, fewer_most = least[r - 1], most[r - 1]
        for j in range(start, n):
            if total + least[r][j] > high or total + most[r][j] < low:
                break
            s = total + degree[j]
            rest = j + step[j]
            if s + fewer_least[rest] > high or s + fewer_most[rest] < low:
                continue
            key = prefix + (order[j],)
            if r == 1:
                yield key
            else:
                yield from walk(rest, r - 1, s, key)

    if not arity:
        if low <= 0 <= high:
            yield ()
    else:
        yield from walk(0, arity, 0, ())


def is_zero(form) -> ZeroCertificate:
    """Exhaustive vanishing verdict, over the form's own instance: on all
    canonical basis tuples of an instance with no coordinates, such as a
    Lie algebra (a complete proof by multilinearity, graded symmetry and
    grading), on the declared family of one with coordinates
    (``poly_degree_bound``; a verification, flagged as incomplete).  Only
    the tuples inside each component's wedge-degree window are evaluated,
    up to the first nonzero value, the counterexample.  With no
    coordinates a component walks its order family alone, whose first
    nonzero value is the counterexample; a declared family walks it first
    when it holds all of it and more (see the module docstring).  The
    certificate counts every canonical tuple."""
    form = as_polyform(form)
    instance = form.instance
    table = instance._ids = instance._ids or _Ids(instance)
    keys, odd = table.keys, table.odd
    complete = not instance.data.base_dim
    if complete:
        note = "all canonical basis tuples"
        evens, odds = (2 ** table.rank + 1) // 2, 2 ** table.rank // 2
    else:
        bound = instance.poly_degree_bound
        family = _order_family(table, table.rank, bound)
        note = f"declared family of {len(family)} elements"
        odds = sum([odd[i] for i in family])
        evens = len(family) - odds
    covered = 0
    counterexample = failing = None
    for arity, component in form.components.items():
        covered += _tuple_count(evens, odds, arity)
        if failing is not None:
            continue
        lookup, order = component._lookup, component.order
        low, high = -component.shift, instance.rank - component.shift
        if complete:        # the first nonzero tuple lies in the order family (module docstring)
            family = _order_family(table, table.rank if order is None else order)
        elif order is not None and order <= bound:     # the family holds it and more
            short = _order_family(table, order)
            if not any(map(lookup, _window_keys(short, keys, odd, arity, low, high))):
                continue
        for key in _window_keys(family, keys, odd, arity, low, high):
            value = lookup(key)
            if value:
                failing = tuple([table.elements[i] for i in key])
                label = ", ".join(instance.basis_label(el) for el in failing)
                counterexample = (f"arity {arity}: ({label})",
                                  instance.basis_label(table.element(value)))
                break
    return ZeroCertificate(covered, complete, counterexample, note, failing)
