"""Exact kernel for graded-symmetric vector-valued forms on Lie algebroids.

Everything is computed over exact rationals (or polynomials over the
rationals); identity checks are exhaustive on finite-dimensional instances
and run over declared test families on polynomial ones.
"""

from .rings import InputError, Poly, PolyRing, RationalRing, format_rational, parse_rational
from .graded import (GradingConvention, koszul_sign, koszul_sign_by_transpositions,
                     sign_pow, unshuffles)
from .elements import Element, wedge
from .instances import (GradedInstance, LieAlgebraData, PolyAlgebroidData,
                        STANDARD_INSTANCES, abelian2, aff1, broken_jacobi3,
                        heisenberg3, poly_tangent_r2, so3)
from .dualforms import (DualForm, differential, iota_element, iota_n,
                        lie_derivative, n_star, omega_flat, omega_n, pairing,
                        pi_sharp)
from .forms import (PolyForm, VForm, ZeroCertificate, as_polyform, element_form,
                    insert, is_zero, iterated_eval_identity, rn_bracket)
from .catalog import (bivector_form, extend_bundle_map, extend_kform,
                      identity_matrix, l2_form, lk_form, matrix_square,
                      wedge_form)
from .linfty import (coefficient_suite, deformed_bracket, deformed_instance,
                     deformed_l2_certificate, l2_deformed,
                     nijenhuis_deformation_theorem_check, nijenhuis_forms,
                     pairwise_compatibility, pencil, report_nijenhuis, square_of_sum,
                     sum_of_wedges, torsion, torsion_alternate, torsion_formulas_agree,
                     torsion_is_zero, witt_action_check)
from .pqn import (PQNQuadruple, PQNVerdict, check_pqn, concomitant,
                  dual_pairing_identity, koszul_bracket, main_theorem_harness,
                  mu_with_background, section3_lemma_suite, stienon_xu_harness)
from .report import CheckEntry, Report
from .scenario import Scenario, build_scenario, load_scenario, load_shipped

__all__ = [
    "InputError", "Poly", "PolyRing", "RationalRing",
    "format_rational", "parse_rational",
    "GradingConvention", "koszul_sign",
    "koszul_sign_by_transpositions", "sign_pow", "unshuffles",
    "Element", "wedge",
    "GradedInstance", "LieAlgebraData", "PolyAlgebroidData",
    "STANDARD_INSTANCES", "abelian2", "aff1", "broken_jacobi3",
    "heisenberg3", "poly_tangent_r2", "so3",
    "DualForm", "differential", "iota_element", "iota_n", "lie_derivative",
    "n_star", "omega_flat", "omega_n", "pairing", "pi_sharp",
    "PolyForm", "VForm", "ZeroCertificate", "as_polyform", "element_form",
    "insert", "is_zero", "iterated_eval_identity", "rn_bracket",
    "bivector_form", "extend_bundle_map", "extend_kform", "identity_matrix",
    "l2_form", "lk_form", "matrix_square", "wedge_form",
    "coefficient_suite", "deformed_bracket", "deformed_instance",
    "deformed_l2_certificate", "l2_deformed",
    "nijenhuis_deformation_theorem_check", "nijenhuis_forms",
    "pairwise_compatibility", "pencil", "report_nijenhuis", "square_of_sum", "sum_of_wedges", "torsion", "torsion_alternate",
    "torsion_formulas_agree", "torsion_is_zero", "witt_action_check",
    "PQNQuadruple", "PQNVerdict", "check_pqn", "concomitant",
    "dual_pairing_identity", "koszul_bracket",
    "main_theorem_harness", "mu_with_background", "section3_lemma_suite",
    "stienon_xu_harness",
    "CheckEntry", "Report",
    "Scenario", "build_scenario", "load_scenario", "load_shipped",
]
