"""The declared test family of a polynomial algebroid built from Elements:
monomial multivectors scaled by coordinate monomials, the reference that
``forms._order_family`` is compared against where it builds the family as
piece ids."""

import itertools


def coordinate_monomials(ring, max_degree: int):
    """Nonconstant coordinate monomials of total degree <= max_degree."""
    out = []
    for total in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(range(ring.nvars), total):
            poly = ring.one()
            for idx in combo:
                poly = poly * ring.var(idx)
            out.append(poly)
    return out


def default_poly_family(instance, coefficient_degree: int = 1):
    """Monomial multivectors scaled by coordinate monomials of bounded degree."""
    ring = instance.ring
    family = list(instance.all_basis())
    if coefficient_degree >= 1:
        monos = coordinate_monomials(ring, coefficient_degree)
        for poly in monos:
            family.extend(el.scale(poly) for el in instance.all_basis())
    return family


def declared_family(instance):
    """The family that ``is_zero`` covers, as Elements: the basis of a Lie
    algebra, the declared family of a polynomial algebroid."""
    if not instance.data.base_dim:
        return instance.all_basis()
    return default_poly_family(instance, instance.poly_degree_bound)
