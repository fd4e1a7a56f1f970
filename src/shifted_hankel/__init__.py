"""Exact shifted Hankel determinants of Catalan-like moment sequences.

Everything here is exact: scalars are rationals, polynomials have rational
coefficients, and every determinant identity is verified by computing both
sides independently. No floating point enters any computation.
"""

import sys

from . import hankel_identities, ortho_moments
from .exact_core import (
    B,
    Poly,
    PowerSeries,
    X,
    binom_poly,
    det_exact,
    det_poly,
    series_mul,
    series_reciprocal,
)
from .hankel_identities import (
    INDETERMINATE_RATIO,
    HankelTable,
    PolyFamily,
    V_poly,
    condensation_check,
    condensation_reconstruct,
    det_poly_Hb,
    first_hankels_from_jacobi,
    h_poly,
    hankel_det,
    hankel_row,
    normalized_shifted,
    product_poly_H,
    product_poly_H2,
    theorem10_check,
    verify_theorem,
)
from .ortho_moments import (
    JacobiSpec,
    MomentSequence,
    ParamSeq,
    TriangleSpec,
    expansion_coeffs,
    f_spec,
    fibonacci_spec,
    g_spec,
    gf_coeffs,
    lemma8_spec,
    lucas_spec,
    moment,
    named_poly,
    ortho_poly,
    P_spec,
    param_seq,
    sequence_term,
    triangle_entry,
    verify_basis_expansion,
)
from .report import VerificationReport
from .staircase_combinatorics import (
    LatticePath,
    PathFamily,
    PlanePartition,
    count_nonintersecting_brute,
    count_pp,
    count_pp_vs_formulas,
    dyck_endpoints,
    dyck_to_pp,
    enumerate_pp,
    hv_endpoints,
    hv_to_pp,
    lgv_count,
    partition_from_text,
    partition_to_text,
    path_from_text,
    path_to_text,
    pp_to_dyck,
    pp_to_hv,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo the package keeps: the lru_cache of each loaded
    module, the Hankel tables, and the record of which recurrence rows are
    filled. Later calls recompute what they need, and each cache_info()
    counts from zero again."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    hankel_identities._TABLES.clear()
    ortho_moments._FILLED.clear()


__all__ = [
    "B",
    "HankelTable",
    "INDETERMINATE_RATIO",
    "JacobiSpec",
    "LatticePath",
    "MomentSequence",
    "ParamSeq",
    "PathFamily",
    "PlanePartition",
    "Poly",
    "PolyFamily",
    "PowerSeries",
    "TriangleSpec",
    "V_poly",
    "VerificationReport",
    "X",
    "binom_poly",
    "clear_caches",
    "condensation_check",
    "condensation_reconstruct",
    "count_nonintersecting_brute",
    "count_pp",
    "count_pp_vs_formulas",
    "det_exact",
    "det_poly",
    "det_poly_Hb",
    "dyck_endpoints",
    "dyck_to_pp",
    "enumerate_pp",
    "expansion_coeffs",
    "f_spec",
    "fibonacci_spec",
    "first_hankels_from_jacobi",
    "g_spec",
    "gf_coeffs",
    "h_poly",
    "hankel_det",
    "hankel_row",
    "hv_endpoints",
    "hv_to_pp",
    "lemma8_spec",
    "lgv_count",
    "lucas_spec",
    "moment",
    "named_poly",
    "normalized_shifted",
    "ortho_poly",
    "P_spec",
    "param_seq",
    "partition_from_text",
    "partition_to_text",
    "path_from_text",
    "path_to_text",
    "pp_to_dyck",
    "pp_to_hv",
    "product_poly_H",
    "product_poly_H2",
    "sequence_term",
    "series_mul",
    "series_reciprocal",
    "theorem10_check",
    "triangle_entry",
    "verify_basis_expansion",
    "verify_theorem",
]
