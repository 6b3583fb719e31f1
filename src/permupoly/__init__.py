"""permupoly: permutation-polynomial toolkit over small finite fields."""

from .field import (FieldCtx, ReducibleModulusError, build_field,
                    canonical_modulus, field_from_descriptor, is_irreducible,
                    parse_field_descriptor)
from .poly import (CompositePoly, PolyParseError, SparsePoly, evaluate,
                   evaluate_all, load_poly_file, parse_poly, reduce_mod_field,
                   to_text)
from .perm import (Lemma1Report, PermReport, is_complete_permutation,
                   is_permutation, lemma1_check, lemma1_polynomial,
                   monomial_pp_check, mu_d_roots)
from .circle import (CircleDecomposition, decompose, half_trace,
                     solve_quadratic, sqrt_char2, unit_circle)
from .families import (FAMILY_IDS, ChecklistEntry, FamilyParams,
                       HypothesisChecklist, NECESSITY_CLAUSE, enumerate_params,
                       field_for_family, iter_family, kernel_is_trivial,
                       make_family, proof_identity_check)
from .scan import ScanReport, scan_necessity, scan_sufficiency, write_report

__version__ = "0.1.0"

__all__ = [
    "FieldCtx", "ReducibleModulusError", "build_field", "canonical_modulus",
    "field_from_descriptor", "is_irreducible", "parse_field_descriptor",
    "CompositePoly", "PolyParseError", "SparsePoly", "evaluate",
    "evaluate_all", "load_poly_file", "parse_poly", "reduce_mod_field",
    "to_text",
    "Lemma1Report", "PermReport", "is_complete_permutation", "is_permutation",
    "lemma1_check", "lemma1_polynomial", "monomial_pp_check", "mu_d_roots",
    "CircleDecomposition", "decompose", "half_trace", "solve_quadratic",
    "sqrt_char2", "unit_circle",
    "FAMILY_IDS", "ChecklistEntry", "FamilyParams", "HypothesisChecklist",
    "NECESSITY_CLAUSE", "enumerate_params", "field_for_family", "iter_family",
    "kernel_is_trivial", "make_family", "proof_identity_check",
    "ScanReport", "scan_necessity", "scan_sufficiency", "write_report",
    "__version__",
]
