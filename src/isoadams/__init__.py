"""Computational algebra for the mod-2 generalized and isotropic
Steenrod algebras: Milnor-basis arithmetic, admissible-word rewriting,
minimal free resolutions, Ext charts, and Massey products over GF(2).
"""

from .milnor import (
    Bidegree,
    Element,
    P,
    Q,
    multiply,
    multiply_via_duality,
    parse_element,
    prqe_to_qepr,
    qepr_to_prqe,
)
from .homological import (
    ChartClass,
    FreeResolution,
    algebra_for,
    ext_chart_coefficients,
    ext_chart_field,
    massey_triple,
    resolve,
    yoneda_product,
)
from .charts import ExtChart, compare_doubling, compare_equality, vanishing_check
from .cobar import cobar_ext, dual_coalgebra
from .isotropic import IsotropicWindow, q_action, solve_action_table, sq_action

__all__ = [
    "Bidegree",
    "ChartClass",
    "Element",
    "ExtChart",
    "FreeResolution",
    "IsotropicWindow",
    "P",
    "Q",
    "algebra_for",
    "cobar_ext",
    "compare_doubling",
    "compare_equality",
    "dual_coalgebra",
    "ext_chart_coefficients",
    "ext_chart_field",
    "massey_triple",
    "multiply",
    "multiply_via_duality",
    "parse_element",
    "prqe_to_qepr",
    "q_action",
    "qepr_to_prqe",
    "resolve",
    "solve_action_table",
    "sq_action",
    "vanishing_check",
    "yoneda_product",
]
