"""Order bounds and the order family of is_zero: the declared order of each
catalog primitive against the graded-commutator identity, negative controls
for unsound bounds, and the reduced certificates against the same
certificates with every bound forced to None."""

import itertools
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnforms import cli, forms, linfty, pqn
from rnforms.catalog import extend_bundle_map, extend_kform, l2_form, lk_form, wedge_form
from rnforms.dualforms import DualForm
from rnforms.elements import Element
from rnforms.forms import PolyForm, VForm, insert, is_zero, rn_bracket
from rnforms.instances import GradedInstance, PolyAlgebroidData
from rnforms.scenario import load_shipped

from forms_reference import declared_family, default_poly_family
from generated_instances import (heisenberg, poly_rank3, semidirect, two_step_nilpotent,
                                 with_bound)
from linfty_reference import l2_deformed
from test_forms_reference import generator_products, unbounded

SCENARIOS_DIR = Path(forms.__file__).with_name("scenarios")
SHIPPED = ("aff1", "heisenberg3", "so3", "abelian2", "poly-tangent-r2")
COMMANDS = (("bracket", "--left", "N2", "--right", "N2"),
            ("bracket", "--left", "N1", "--right", "l2"),
            ("check", "linfty"),
            ("check", "nijenhuis", "--kind", "weak"),
            ("check", "nijenhuis", "--kind", "coboundary"),
            ("check", "nijenhuis", "--kind", "full"),
            ("check", "pqn"),
            ("suite", "lemma"), ("suite", "witt"), ("suite", "main-theorem"),
            ("suite", "stienon-xu"))


def summary(certificate):
    return (certificate.is_zero, len(certificate.checked), certificate.failing,
            certificate.counterexample, certificate.complete, certificate.family_note)


def family_ids(instance):
    """The distinct piece ids of the instance's family (the basis of a Lie
    algebra, the declared family of a polynomial instance, from the
    Element-level reference), sorted by key: the family that is_zero walks
    in full."""
    table = instance._ids = instance._ids or forms._Ids(instance)
    return sorted({table.id_of(el) for el in declared_family(instance)},
                  key=table.keys.__getitem__)


def reduced_components(form, instance):
    """The orders of the components that is_zero walks on their order
    family first: the instance's family holds all of it and more."""
    form = forms.as_polyform(form)
    ids = set(family_ids(instance))
    return [component.order for component in form.components.values()
            if component.order is not None
            and ids > set(forms._order_family(instance._ids, component.order))]


# -- the graded-commutator identity ------------------------------------------------------


def commutator(form, others, gens, x):
    """[...[[D, c_0], c_1], ..., c_t](x) for D = form(others..., -) and left
    multiplication by the generators c_i: D_t(x) = D_{t-1}(c x) -
    (-1)^{|D_{t-1}| |c|} c D_{t-1}(x), |D| the parity of the wedge shift."""
    if not gens:
        return form.evaluate(others + (x,))
    *inner, c = gens
    inner = tuple(inner)
    parity = form.shift + sum(el.wedge_degree() for el in others + inner)
    first = commutator(form, others, inner, c.wedge(x))
    second = c.wedge(commutator(form, others, inner, x))
    return first + second if parity * c.wedge_degree() % 2 else first - second


def generators(inst):
    """The odd basis sections and, on a polynomial algebroid, the even
    coordinates."""
    gens = [inst.generator(i) for i in range(inst.rank)]
    if inst.data.base_dim:
        gens += [inst.unit().scale(inst.ring.var(j)) for j in range(inst.ring.nvars)]
    return gens


def integer_matrix(inst, rng):
    return [[rng.choice((0, 1, -1, 2)) for _ in range(inst.rank)] for _ in range(inst.rank)]


def declared_forms(inst, rng):
    """(label, form, order): the primitives with their declared order, an
    insertion (r_K + r_L) and brackets (max(r_K + r_L - 1, r_K, r_L))."""
    N = integer_matrix(inst, rng)
    un = extend_bundle_map(inst, N)
    two = DualForm(inst, 2, {(i, i + 1): (-2) ** i for i in range(inst.rank - 1)})
    one = DualForm(inst, 1, {(0,): 1, (inst.rank - 1,): 3})
    l2, n2 = l2_form(inst), wedge_form(inst, 2)
    return [("N1", wedge_form(inst, 1), 0), ("N2", n2, 0),
            ("N3", wedge_form(inst, 3), 0),
            ("l2", l2, 1), ("uN", un, 1), ("u(2-form)", extend_kform(two), 1),
            ("u(1-form)", extend_kform(one), 1), ("l3", lk_form(inst, 3), 1),
            ("l2^N", l2_deformed(inst, N), 1),
            ("insert(uN, uN)", insert(un, un), 2),
            ("[uN, l2]", rn_bracket(un, l2).component(2), 1),
            ("[N2, l2] - 2 l3", (rn_bracket(n2, l2) - PolyForm(inst, [lk_form(inst, 3)])
                                 .scale(2)).component(3), 1)]


def check_declared_orders(inst, rng, samples=12):
    """For each form of :func:`declared_forms`: its order bound is the one
    declared, and the (r+1)-fold commutator vanishes on sampled arguments
    (products of up to 3 generators).  Returns the labels whose r-fold
    commutator was nonzero somewhere (the bound is attained)."""
    gens = generators(inst)
    pieces = generator_products(inst, 3)
    others_pool = generator_products(inst, 2)
    sharp = set()
    for label, form, order in declared_forms(inst, rng):
        assert form.order == order, label
        for _ in range(samples):
            others = tuple(rng.choice(others_pool) for _ in range(form.arity - 1))
            x = rng.choice(pieces)
            chosen = [rng.choice(gens) for _ in range(order + 1)]
            assert commutator(form, others, chosen, x).is_zero(), (label, others, chosen, x)
            if not commutator(form, others, chosen[:order], x).is_zero():
                sharp.add(label)
    return sharp


def test_declared_orders_satisfy_the_commutator_identity():
    """On h3, so3 and poly-tangent-r2 every declared bound satisfies the
    identity, and every bound is attained on one of them: the identity
    is not vacuous."""
    rng = random.Random(7)
    sharp = set()
    for name in ("heisenberg3", "so3", "poly-tangent-r2"):
        sharp |= check_declared_orders(load_shipped(name).instance, rng, samples=24)
    h3 = load_shipped("heisenberg3").instance
    assert sharp == {label for label, _, _ in declared_forms(h3, rng)}


@settings(max_examples=3, deadline=None)
@given(st.one_of(two_step_nilpotent(max_dim=4), poly_rank3()), st.integers(0, 10 ** 6))
def test_declared_orders_on_generated_instances(inst, seed):
    check_declared_orders(inst, random.Random(seed))


# -- a Lie algebra against its constants over a line ------------------------------------


def over_a_line(inst):
    """The Lie algebra ``inst`` with the same constants over one coordinate
    x1 and zero anchor, declaring coordinate degree 0: its declared family
    is the basis of ``inst``, walked in full as on any instance with
    coordinates."""
    data = inst.data
    table = {key: {k: c.terms()[0][1] for k, c in row.items()}
             for key, row in data.table.items()}
    line = PolyAlgebroidData(1, data.rank, ("x1",), data.generator_names, None, table)
    return GradedInstance(line, name=inst.name, poly_degree_bound=0)


def check_the_point_and_the_line_agree(inst, seed):
    """For each form of :func:`declared_forms`, and for [l2, l2] (zero by
    Jacobi), is_zero on the Lie algebra (the order family alone, by the
    Lemma of ``forms``) and on its constants over a line (the whole family)
    give the same verdict, count and counterexample labels; only
    ``complete`` and the note differ."""
    line = over_a_line(inst)

    def forms_of(instance):
        jacobi = ("[l2, l2]", rn_bracket(l2_form(instance), l2_form(instance)), None)
        return declared_forms(instance, random.Random(seed)) + [jacobi]

    for (label, form, _), (_, twin, _) in zip(forms_of(inst), forms_of(line)):
        point, full = is_zero(form), is_zero(twin)
        assert (point.is_zero, point.count, point.counterexample) == \
            (full.is_zero, full.count, full.counterexample), label
        assert (point.complete, point.family_note) == (True, "all canonical basis tuples")
        assert (full.complete, full.family_note) == \
            (False, f"declared family of {2 ** inst.rank} elements")


@pytest.mark.parametrize("name", [name for name in SHIPPED if name != "poly-tangent-r2"])
def test_shipped_lie_algebra_agrees_with_its_constants_over_a_line(name):
    check_the_point_and_the_line_agree(load_shipped(name).instance, 7)


@settings(max_examples=8, deadline=None)
@given(st.one_of(two_step_nilpotent(max_dim=4), semidirect(),
                 st.builds(heisenberg, st.just(2))),
       st.integers(0, 10 ** 6))
def test_generated_lie_algebra_agrees_with_its_constants_over_a_line(inst, seed):
    check_the_point_and_the_line_agree(inst, seed)


# -- negative controls ----------------------------------------------------------------------


def test_bracket_rule_without_the_unpaired_terms_is_unsound():
    """[N2, l2] - 2 l3 = -l3 on h3 is nonzero at (1, e1, e2).  Its insertion
    nodes have order 0 + 1; a bound of r_K + r_L - 1 = 0 (on the nodes, so
    on l3 = i_{l2} N2 too) would walk only the tuple (1, 1, 1), where it
    vanishes, and pass it.  The bracket's bound is 1, and so is that of
    [N2, l2] = l3 alone, whose unpaired terms have the order of l2."""
    inst = load_shipped("heisenberg3").instance
    n2, l2 = wedge_form(inst, 2), l2_form(inst)
    l3 = lk_form(inst, 3)
    form = (rn_bracket(n2, l2) - PolyForm(inst, [l3]).scale(2)).component(3)
    assert l3.order == insert(n2, l2).order == 1
    assert form.order == 1
    one, e1, e2 = inst.unit(), inst.generator(0), inst.generator(1)
    assert form.evaluate((one, one, one)).is_zero()
    assert not form.evaluate((one, e1, e2)).is_zero()
    certificate = is_zero(form)
    assert not certificate.is_zero
    assert certificate.counterexample[0] == "arity 3: (1, e1, e2)"
    bracket = rn_bracket(n2, l2)
    assert bracket.component(3).order == 1
    assert is_zero(bracket).counterexample[0] == "arity 3: (1, e1, e2)"


def test_insertion_raises_the_order():
    """insert(uN, uN) - u(N^2) = 2 uN(e1) ^ uN(e2) on e1^e2, and zero on
    1 and on every generator: a bound of 1 would pass it.  Its bound is 2."""
    inst = load_shipped("heisenberg3").instance
    N = [[1, 2, 0], [0, 1, 0], [0, 0, 3]]
    square = [[sum(N[i][k] * N[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    un = extend_bundle_map(inst, N)
    form = insert(un, un) - extend_bundle_map(inst, square)
    assert form.order == 2
    assert all(form.evaluate((el,)).is_zero() for el in generator_products(inst, 1))
    certificate = is_zero(form)
    assert not certificate.is_zero
    assert certificate.failing == (inst.monomial((0, 1)),)


def test_rule_without_a_declared_order_walks_the_whole_window(monkeypatch):
    """A rule with no declared order has bound None, and so has every form
    built from it: is_zero looks up every in-window tuple."""
    inst = load_shipped("heisenberg3").instance
    l2 = l2_form(inst)
    plain = VForm(inst, 2, -1, l2.fn)          # the rule of l2, no declared order
    form = rn_bracket(plain, plain).component(3)
    assert plain.order is None and form.order is None
    assert rn_bracket(l2, l2).component(3).order == 1
    ids = family_ids(inst)
    table = inst._ids
    window = list(forms._window_keys(ids, table.keys, table.odd, 3,
                                     -form.shift, inst.rank - form.shift))
    top = []
    lookup = VForm._lookup

    def spy(node, key):
        if node is form:
            top.append(key)
        return lookup(node, key)

    monkeypatch.setattr(VForm, "_lookup", spy)
    assert is_zero(form).is_zero
    assert top == window and len(window) > 50


def test_is_zero_resolves_its_family_once(monkeypatch):
    """On a failing form of two components, each walked on its order family
    first, is_zero maps no Element through the id table: a polynomial
    algebroid's declared family is built once per call as piece ids, to
    place the counterexample, and the basis of a Lie algebra is not listed.
    A passing certificate on poly-tangent-r2 ([l2, l2], order 1) lists no
    declared family: its id table numbers the 5 pieces of its order family
    (1, x1, x2, a1, a2) and none of the 12 of the declared one."""
    calls, built = [], []
    id_of, order_family = forms._Ids.id_of, forms._order_family
    monkeypatch.setattr(forms._Ids, "id_of",
                        lambda table, el: calls.append(el) or id_of(table, el))
    monkeypatch.setattr(forms, "_order_family",
                        lambda table, order, bound=None: built.append(bound is not None)
                        or order_family(table, order, bound))
    poly = load_shipped("poly-tangent-r2").instance
    h3 = load_shipped("heisenberg3").instance
    for inst in (h3, poly):
        n = PolyForm(inst, [wedge_form(inst, 1), wedge_form(inst, 2)])
        form = rn_bracket(n, PolyForm(inst, [l2_form(inst)]))
        assert len(form.components) == 2
        assert len(reduced_components(form, inst)) == 2
        calls.clear()
        built.clear()
        is_zero(form)
        assert calls == []
        assert built.count(True) == (inst is poly)
    fresh = load_shipped("poly-tangent-r2").instance
    l2 = PolyForm(fresh, [l2_form(fresh)])
    built.clear()
    certificate = is_zero(rn_bracket(l2, l2))
    assert certificate.is_zero and certificate.family_note == "declared family of 12 elements"
    assert built == [False]
    table = fresh._ids
    assert len(table.elements) == 5
    # listing the order family numbers no new piece
    assert sorted(order_family(table, 1)) == list(range(5)) and len(table.elements) == 5


def test_passing_certificates_number_only_their_order_family(tmp_path, monkeypatch, capsys):
    """On abelian 12 (identity N, N = N1 + N2 for the weak check, suite
    bounds (2, 2, 2)) every certificate passes on its order family and the
    basis is never listed: the id table numbers the wedge monomials of
    degree <= d, sum_{j <= d} C(12, j) pieces, with d = 2, 1 and 3 (299
    pieces at most), not the 4,096 basis monomials."""
    n = 12
    raw = {"name": "abelian12",
           "instance": {"lie_algebra": {"dim": n, "basis": [f"e{i + 1}" for i in range(n)],
                                        "brackets": {}}},
           "data": {"N": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
                    "a": ["0", "1"], "b": ["1", "1"], "n": 2},
           "suite": {"i_max": 2, "m_max": 2, "n_max": 2}}
    path = tmp_path / "abelian12.json"
    path.write_text(json.dumps(raw))
    tables = []
    init = forms._Ids.__init__
    monkeypatch.setattr(forms._Ids, "__init__",
                        lambda table, inst: tables.append(table) or init(table, inst))
    for command, top in ((("suite", "lemma"), 2), (("check", "linfty"), 1),
                         (("check", "nijenhuis", "--kind", "weak"), 3)):
        tables.clear()
        assert cli.main(["--scenario", str(path), "--format", "json", *command]) == 0, command
        capsys.readouterr()
        (table,) = tables
        assert max(degree for degree, _ in table.keys) == top, command
        assert len(table.elements) == sum(comb(n, j) for j in range(top + 1)), command
    assert len(table.elements) == 299


# -- reduced against forced-None certificates ------------------------------------------------


@pytest.fixture
def both_ways(monkeypatch):
    """Every certificate the checkers and the CLI build is computed with the
    order bounds and again with every bound forced to None; the two must
    agree on verdict, count, failing tuple and counterexample.  Returns the
    (form, instance, certificate) records."""
    records = []

    def twice(form):
        reduced = forms.is_zero(form)
        with monkeypatch.context() as patch:
            unbounded(patch)
            full = forms.is_zero(form)
        assert summary(reduced) == summary(full)
        records.append((form, form.instance, reduced))
        return reduced

    for module in (linfty, pqn, cli):
        monkeypatch.setattr(module, "is_zero", twice)
    return records


def run_commands(scenario_path, capsys):
    for command in COMMANDS:
        code = cli.main(["--scenario", str(scenario_path), "--format", "json", *command])
        capsys.readouterr()
        assert code in (0, 1, 2), command


@pytest.mark.parametrize("name", SHIPPED)
def test_reduced_certificates_match_forced_none(name, both_ways, capsys):
    run_commands(SCENARIOS_DIR / f"{name}.json", capsys)
    assert len(both_ways) > 20
    reduced = [orders for form, inst, _ in both_ways
               if (orders := reduced_components(form, inst))]
    assert len(reduced) > len(both_ways) // 2, (len(reduced), len(both_ways))


def nested_pool(inst, rng):
    """Degree-0 and degree-1 forms of arity <= 2 and order <= 2 with small
    coefficients."""
    def coeff():
        return Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2)))

    n = PolyForm(inst, [wedge_form(inst, 1).scale(coeff()),
                        wedge_form(inst, 2).scale(coeff())])
    un = extend_bundle_map(inst, integer_matrix(inst, rng))
    mu = PolyForm(inst, [l2_form(inst).scale(coeff())])
    return [n, PolyForm(inst, [un]), mu, n + PolyForm(inst, [un]),
            PolyForm(inst, [insert(un, un).scale(coeff())])]


@settings(max_examples=6, deadline=None)
@given(st.one_of(two_step_nilpotent(max_dim=4), semidirect(), poly_rank3()),
       st.integers(0, 10 ** 6))
def test_nested_brackets_on_generated_instances(inst, seed):
    """[Y, Z], [X, [Y, Z]] and [X, [Y, Z]] - 2 [[X, Y], Z] over a pool of
    degree-0 and degree-1 forms: the reduced certificate equals the walk
    with every bound forced to None.  A polynomial algebroid declares
    coordinate degree 2, so its family contains the order-2 family too."""
    rng = random.Random(seed)
    if inst.data.base_dim:
        inst = with_bound(inst, 2)
    pool = nested_pool(inst, rng)
    x, y, z = (rng.choice(pool) for _ in range(3))
    inner = rn_bracket(y, z)
    nested = rn_bracket(x, inner)
    for form in (inner, nested, nested - rn_bracket(rn_bracket(x, y), z).scale(2)):
        reduced = is_zero(form)
        with pytest.MonkeyPatch.context() as patch:
            unbounded(patch)
            full = is_zero(form)
        assert summary(reduced) == summary(full)


@pytest.mark.parametrize(("m", "arity"), [(2, 3), (2, 4), (3, 3)])
def test_deep_counterexample_on_a_lie_algebra_is_found_in_its_order_family(m, arity,
                                                                         monkeypatch):
    """On h5 and h7 with a fixed-seed integer N, the arity-3 component of
    [[uN, l2], [uN, l2]] and the arity-4 component of [[uN, l2], l3] (order
    1) fail.  The walk with every bound forced to None looks up every
    in-window tuple before the counterexample, high-degree entries
    included; the certificate equals it, yet lists only the order family
    of order 1.  So the id table holds no piece of degree <= 1 beyond the
    n + 1 of that family, and the basis is never listed."""
    def probe(inst):
        un = extend_bundle_map(inst, integer_matrix(inst, random.Random(7)))
        deformed = rn_bracket(un, l2_form(inst))
        other = deformed if arity == 3 else PolyForm(inst, [lk_form(inst, 3)])
        return rn_bracket(deformed, other).component(arity)

    inst = heisenberg(m)
    form = probe(inst)
    assert form.order == 1
    listed = []
    order_family = forms._order_family
    monkeypatch.setattr(forms, "_order_family",
                        lambda table, order, bound=None: listed.append(order)
                        or order_family(table, order, bound))
    certificate = is_zero(form)
    assert listed == [1]
    n = inst.rank
    degrees = [degree for degree, _ in inst._ids.keys]
    assert sum(degree <= 1 for degree in degrees) == n + 1
    assert len(degrees) < 2 ** n
    if arity == 3:
        assert len(degrees) == n + 1
    with monkeypatch.context() as patch:
        unbounded(patch)
        full = is_zero(probe(heisenberg(m)))
    assert not full.is_zero
    assert summary(certificate) == summary(full)


# -- polynomial families ------------------------------------------------------------------------


def poly_scenario(tmp_path, degree_bound):
    raw = json.loads((SCENARIOS_DIR / "poly-tangent-r2.json").read_text())
    raw.setdefault("suite", {})["poly_degree_bound"] = degree_bound
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(raw))
    return path


def test_default_poly_family_contains_the_order_one_family(tmp_path, both_ways, capsys):
    """The default family (coordinate degree 1) contains 1, x_i and a_j, and
    more, so every order-1 verdict of the poly-tangent-r2 commands is a
    proof: each such certificate also vanishes on the coordinate-degree-2
    family, walked in full.  A declared family holds the order family of r
    and more exactly when r is at most its coordinate degree."""
    inst = load_shipped("poly-tangent-r2").instance
    table = inst._ids = forms._Ids(inst)
    products = generator_products(inst, 1)
    assert {table.elements[i] for i in forms._order_family(table, 1)} == set(products)
    x1 = inst.unit().scale(inst.ring.var(0))
    assert x1 in products and x1 in declared_family(inst)
    for bound in range(4):
        flat = with_bound(inst, bound)
        ids = set(family_ids(flat))
        for order in range(5):
            short = set(forms._order_family(flat._ids, order))
            assert (ids > short) == (order <= bound), (bound, order)
    run_commands(poly_scenario(tmp_path, 1), capsys)
    proofs = 0
    for form, inst, certificate in both_ways:
        if not certificate.is_zero or reduced_components(form, inst) != [1] * len(
                forms.as_polyform(form).components):
            continue
        if max(forms.as_polyform(form).components) > 3:
            continue
        with pytest.MonkeyPatch.context() as patch:
            unbounded(patch)
            patch.setattr(inst, "poly_degree_bound", 2)
            assert is_zero(form).is_zero
        proofs += 1
    assert proofs >= 3


def test_family_without_coordinates_is_not_reduced(tmp_path, monkeypatch, capsys):
    """With poly_degree_bound 0 the family lacks x_i: no component of order
    >= 1 is reduced, each walks its own order family in the family's place,
    and every verdict equals the one at a bound of the largest order, where
    the family holds every order family and more."""
    records = []

    def twice(form):
        certificate = forms.is_zero(form)
        orders = [component.order for component in forms.as_polyform(form).components.values()]
        with monkeypatch.context() as patch:
            patch.setattr(form.instance, "poly_degree_bound", max(orders, default=0))
            high = forms.is_zero(form)
        records.append((form, form.instance, orders, certificate.is_zero, high.is_zero))
        return certificate

    for module in (linfty, pqn, cli):
        monkeypatch.setattr(module, "is_zero", twice)
    run_commands(poly_scenario(tmp_path, 0), capsys)
    assert len(records) > 5
    assert sum(max(orders, default=0) > 0 for _, _, orders, _, _ in records) > 5
    assert {verdict for *_, verdict, _ in records} == {True, False}
    for form, inst, orders, verdict, high in records:
        assert None not in orders and verdict == high
        assert all(order == 0 for order in reduced_components(form, inst))


def test_order_family_is_walked_where_the_declared_family_lacks_part_of_it(monkeypatch):
    """A family that lacks part of the order family (at coordinate degree 0,
    every coordinate) is not walked: each component walks its own order
    family alone, on a passing and on a failing certificate, so every
    lookup is a tuple of order-family pieces, and x_i, outside the family,
    is reached."""
    inst = with_bound(load_shipped("poly-tangent-r2").instance, 0)
    l2 = l2_form(inst)
    cases = (rn_bracket(l2, l2), PolyForm(inst, [extend_bundle_map(inst, [[0, 0], [0, 1]])]))
    top, keys = set(), []
    lookup = VForm._lookup

    def spy(node, key):
        if node in top:
            keys.append(key)
        return lookup(node, key)

    monkeypatch.setattr(VForm, "_lookup", spy)
    verdicts = []
    for form in cases:
        top.update(form.components.values())
        assert reduced_components(form, inst) == []
        verdicts.append(is_zero(form).is_zero)
    assert verdicts == [True, False] and keys
    order_family = set(forms._order_family(inst._ids, 1))
    assert all(i in order_family for key in keys for i in key)
    assert {i for key in keys for i in key} - set(family_ids(inst))


def order_two_form(inst):
    """D(f P) = (d^2 f / dx1 dx2) P, of order 2."""
    def fn(args):
        (P,) = args
        return Element({mon: poly.diff(0).diff(1) for mon, poly in P.terms.items()})

    return VForm(inst, 1, 0, fn, order=2)


def test_order_two_form_is_caught_with_bound_two():
    """D(f P) = (d^2 f / dx1 dx2) P has order 2 and vanishes on every
    product of at most one generator.  Declaring coordinate degree 2, it is
    walked on the order-2 family and found nonzero at x1 x2.  The default
    family lacks x1 x2 and D vanishes on all of it, so it is not walked:
    D walks its order-2 family in its place, and fails there too."""
    default = load_shipped("poly-tangent-r2").instance
    inst = with_bound(default, 2)
    form = order_two_form(inst)
    assert all(form.evaluate((el,)).is_zero() for el in generator_products(inst, 1))
    x1x2 = inst.unit().scale(inst.ring.var(0) * inst.ring.var(1))
    assert form.evaluate((x1x2,)) == inst.unit()
    assert reduced_components(form, inst) == [2]
    certificate = is_zero(form)
    assert not certificate.is_zero
    assert certificate.failing == (x1x2,)
    form = order_two_form(default)
    assert default.poly_degree_bound == 1 and reduced_components(form, default) == []
    assert all(form.evaluate((el,)).is_zero() for el in declared_family(default))
    certificate = is_zero(form)
    assert not certificate.is_zero and not certificate.complete
    assert certificate.failing == (x1x2,)


def reference_count(even, odd, arity):
    """The coefficient of t^arity in (1 + t)^odd / (1 - t)^even: the
    canonical tuples over ``even`` even and ``odd`` odd distinct elements,
    by series products (``forms._tuple_count`` sums binomials)."""
    series = [1] + [0] * arity
    for _ in range(odd):
        series = [c + (series[i - 1] if i else 0) for i, c in enumerate(series)]
    for _ in range(even):
        series = list(itertools.accumulate(series))
    return series[arity]


@settings(max_examples=20, deadline=None)
@given(two_step_nilpotent(max_dim=4) | poly_rank3()
       | st.builds(lambda: load_shipped("poly-tangent-r2").instance), st.integers(0, 4))
def test_closed_count_is_that_of_the_reference_family(inst, bound):
    """is_zero counts and names the instance's family in closed form, with
    nothing listed: its note and count are those of the Element-level
    ``declared_family`` (the basis of a Lie algebra), from its length and
    its split into odd and even elements, at every arity 0-4."""
    inst = with_bound(inst, bound)
    family = set(declared_family(inst))
    odd = sum(el.wedge_degree() % 2 for el in family)
    note = (f"declared family of {len(family)} elements" if inst.data.base_dim
            else "all canonical basis tuples")
    for arity in range(5):
        certificate = is_zero(VForm.zero(inst, arity, 0))
        assert certificate.family_note == note
        assert certificate.count == reference_count(len(family) - odd, odd, arity), arity
        assert certificate.complete == (not inst.data.base_dim)


def check_declared_family(inst):
    """The declared family that is_zero builds as piece ids is the set of
    distinct pieces of the Element-level reference, and its note counts
    2^rank C(nvars + d, d) elements at coordinate degree d."""
    bound = inst.poly_degree_bound
    size = 2 ** inst.rank * comb(inst.ring.nvars + bound, bound)
    certificate = is_zero(VForm.zero(inst, 1, 0))
    assert certificate.family_note == f"declared family of {size} elements"
    assert certificate.count == size
    table = inst._ids
    ids = forms._order_family(table, inst.rank, bound)
    reference = default_poly_family(inst, bound)
    assert len(set(ids)) == len(ids) == len(set(reference)) == size
    assert set(ids) == {table.id_of(el) for el in reference}
    assert {table.elements[i] for i in ids} == set(reference)


@pytest.mark.parametrize("bound", range(4))
def test_declared_family_is_the_reference_family(bound):
    check_declared_family(with_bound(load_shipped("poly-tangent-r2").instance, bound))


@settings(max_examples=4, deadline=None)
@given(poly_rank3())
def test_declared_family_is_the_reference_family_on_generated_algebroids(inst):
    for bound in range(4):
        check_declared_family(with_bound(inst, bound))


def forms_of_known_order(inst, seed):
    """:func:`declared_forms` and two that vanish on every algebroid, with
    their order bounds: [l2, l2] (Jacobi) and [N2, l2] - l3."""
    l2, n2 = l2_form(inst), wedge_form(inst, 2)
    vanishing = [("[l2, l2]", rn_bracket(l2, l2).component(3), 1),
                 ("[N2, l2] - l3", (rn_bracket(n2, l2) - PolyForm(inst, [lk_form(inst, 3)]))
                  .component(3), 1)]
    return declared_forms(inst, random.Random(seed)) + vanishing


@settings(max_examples=8, deadline=None)
@given(poly_rank3(), st.integers(0, 10 ** 6))
def test_verdict_does_not_depend_on_the_bound(inst, seed):
    """A form of order r that vanishes on its order family vanishes on every
    section (the order-family lemma), and is_zero walks that family at every
    poly_degree_bound: alone below r, before the declared family from r on.
    So each form of order r <= 2 gets one verdict at every bound 0-4, and
    one with a nonzero value on its order family fails at every bound.  Both
    verdicts occur."""
    verdicts = {}
    for bound in range(5):
        for label, form, order in forms_of_known_order(with_bound(inst, bound), seed):
            assert form.order == order <= 2, label
            verdicts.setdefault(label, set()).add(is_zero(form).is_zero)
    assert all(len(seen) == 1 for seen in verdicts.values()), verdicts
    assert set().union(*verdicts.values()) == {True, False}
