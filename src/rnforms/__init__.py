"""Exact kernel for graded-symmetric vector-valued forms on Lie algebroids.

Everything is computed over exact rationals (or polynomials over the
rationals); identity checks are exhaustive on finite-dimensional instances
and run over declared test families on polynomial ones.
"""

from .rings import InputError, Poly, PolyRing, RationalRing, format_rational, parse_rational
from .graded import GradingConvention, koszul_sign, sign_pow, unshuffles
from .instances import GradedInstance, LieAlgebraData, PolyAlgebroidData
from .dualforms import (DualForm, differential, iota_element, iota_n,
                        lie_derivative, n_star, omega_n, pairing, pi_sharp)
from .forms import (PolyForm, VForm, ZeroCertificate, as_polyform, element_form,
                    insert, is_zero, rn_bracket)
from .catalog import (bivector_form, extend_bundle_map, extend_kform, l2_form, lk_form,
                      matrix_square, wedge_form)
from .linfty import (coefficient_suite, deformed_bracket, deformed_instance,
                     nijenhuis_deformation_theorem_check, nijenhuis_forms,
                     pairwise_compatibility, pencil, report_nijenhuis, square_of_sum,
                     sum_of_wedges, torsion, torsion_is_zero, witt_action_check)
from .pqn import (check_pqn, concomitant, koszul_bracket, main_theorem_harness,
                  mu_with_background, stienon_xu_harness)
from .report import CheckEntry, Report
from .scenario import Scenario, build_scenario, load_scenario, load_shipped

__all__ = [
    "InputError", "Poly", "PolyRing", "RationalRing",
    "format_rational", "parse_rational",
    "GradingConvention", "koszul_sign", "sign_pow", "unshuffles",
    "GradedInstance", "LieAlgebraData", "PolyAlgebroidData",
    "DualForm", "differential", "iota_element", "iota_n", "lie_derivative",
    "n_star", "omega_n", "pairing", "pi_sharp",
    "PolyForm", "VForm", "ZeroCertificate", "as_polyform", "element_form",
    "insert", "is_zero", "rn_bracket",
    "bivector_form", "extend_bundle_map", "extend_kform",
    "l2_form", "lk_form", "matrix_square", "wedge_form",
    "coefficient_suite", "deformed_bracket", "deformed_instance",
    "nijenhuis_deformation_theorem_check", "nijenhuis_forms",
    "pairwise_compatibility", "pencil", "report_nijenhuis", "square_of_sum",
    "sum_of_wedges", "torsion", "torsion_is_zero", "witt_action_check",
    "check_pqn", "concomitant", "koszul_bracket",
    "main_theorem_harness", "mu_with_background", "stienon_xu_harness",
    "CheckEntry", "Report",
    "Scenario", "build_scenario", "load_scenario", "load_shipped",
]
