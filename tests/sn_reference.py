"""Reference Schouten bracket: the recursive graded-Leibniz expansion down to
generator and function base cases.

A term c e_I becomes a tuple of factors, ("c", c) for a non-constant
coefficient followed by ("g", i) per generator, and the bracket of two
factor tuples peels one factor at a time:

    [f ^ F', G] = f ^ [F', G] + (-1)^{(g-1) q} [f, G] ^ F'
    [f, g0 ^ G'] = [f, g0] ^ G' + (-1)^{(p-1) q0} g0 ^ [f, G']

with [a_i, a_j] = ``data.bracket_terms(i, j)``, [a_i, f] = ``anchor_apply(i, f)``,
[f, a_i] = -``anchor_apply(i, f)`` and [f, g] = 0.  It reads the base cases
through the instance, so a test that patches them patches this reference
too.  Slow, and independent of the closed formulas of ``sn_bracket``.
"""

from __future__ import annotations

from rnforms.elements import Element


def reference_sn_bracket(inst, left: Element, right: Element, memo=None) -> Element:
    """[left, right] by recursive expansion; ``memo`` (a dict) may be shared
    between calls on the same instance."""
    memo = {} if memo is None else memo
    out = Element.zero()
    for m1, c1 in left.terms.items():
        for m2, c2 in right.terms.items():
            out = out + _term(inst, memo, c1, m1, c2, m2)
    return out


def _term(inst, memo, c1, m1, c2, m2) -> Element:
    constant1 = _constant_part(inst, c1)
    constant2 = _constant_part(inst, c2)
    f1 = [("g", i) for i in m1] if constant1 is not None else [("c", c1)] + [("g", i) for i in m1]
    f2 = [("g", i) for i in m2] if constant2 is not None else [("c", c2)] + [("g", i) for i in m2]
    result = _factors(inst, memo, tuple(f1), tuple(f2))
    if constant1 is not None:
        result = result.scale(constant1)
    if constant2 is not None:
        result = result.scale(constant2)
    return result


def _constant_part(inst, coeff):
    """The coefficient itself when the anchor kills it (constants, or
    anything over a point), else None."""
    if not inst.data.base_dim:
        return coeff
    poly = inst.ring.coerce(coeff)
    return poly if poly.total_degree() == 0 else None


def _degree(factors) -> int:
    return sum(1 for kind, _ in factors if kind == "g")


def _element(inst, factors) -> Element:
    out = inst.unit()
    for kind, value in factors:
        out = out.wedge(inst.generator(value)) if kind == "g" else out.scale(value)
    return out


def _wedge_factor(inst, factor, element: Element) -> Element:
    kind, value = factor
    return inst.generator(value).wedge(element) if kind == "g" else element.scale(value)


def _factors(inst, memo, left: tuple, right: tuple) -> Element:
    if not left or not right:
        return Element.zero()
    key = (left, right)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(left) > 1:
        head, tail = left[0], left[1:]
        first = _wedge_factor(inst, head, _factors(inst, memo, tail, right))
        second = _factors(inst, memo, (head,), right).wedge(_element(inst, tail))
        if (_degree(right) - 1) * _degree(tail) % 2:
            second = -second
        result = first + second
    elif len(right) > 1:
        head, tail = right[0], right[1:]
        first = _factors(inst, memo, left, (head,)).wedge(_element(inst, tail))
        second = _wedge_factor(inst, head, _factors(inst, memo, left, tail))
        if (_degree(left) - 1) * _degree((head,)) % 2:
            second = -second
        result = first + second
    else:
        result = _base(inst, left[0], right[0])
    memo[key] = result
    return result


def _base(inst, f1, f2) -> Element:
    (kind1, v1), (kind2, v2) = f1, f2
    if kind1 == "g" and kind2 == "g":
        return Element({(k,): c for k, c in inst.data.bracket_terms(v1, v2).items()})
    if kind1 == "g":
        return inst.scalar(inst.anchor_apply(v1, v2))
    if kind2 == "g":
        return inst.scalar(-inst.anchor_apply(v2, v1))
    return Element.zero()
