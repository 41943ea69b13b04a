"""Exact computations in a meromorphic open-string vertex algebra.

The algebra lives on the free tensor algebra of creation modes over a
rational vector space with a bilinear form; its vertex operators are
normal-ordered products of derivative fields.  Matrix coefficients of
products and iterates of vertex operators are exact multivariate rational
functions with poles only at z_i = 0 and z_i = z_j, computed both in closed
form (contraction patterns) and by direct series evaluation, and an
executable suite verifies every axiom at desk scale.
"""

from .halgebra import (
    CENTRAL,
    FreeElem,
    HSpace,
    NegWord,
    basis_words,
    basis_words_up_to,
    free_add,
    free_mul,
    free_scale,
    graded_dimension,
    mode,
    pbw_normal_form,
    render_free_elem,
    render_pbw_elem,
    vacuum_elem,
    validate_hspace,
    weight,
    word_elem,
)
from .laurent import LaurentPoly
from .ratfun import (
    RatFun,
    expand_in_region,
    pole_diff,
    ratfun_eq,
)
from .modules import (
    DualFunctional,
    ModulePresentation,
    WElem,
    apply_D,
    apply_d,
    apply_mode,
    dual_term,
    pairing,
    state,
    vacuum_state,
    validate_module,
)
from .fields import (
    field_coefficient,
    product_series_bruteforce,
    series_lower_bound,
    vertex_series,
)
from .wick import (
    ContractionTerm,
    commutator_pm,
    matrix_coeff_iterate,
    matrix_coeff_product,
    reduce_blocks,
)
from .checks import (
    CheckReport,
    SuiteConfig,
    noncommutativity_witness,
    project_to_sym,
    run_suite,
)

# importing a submodule binds its name here too; scalars is imported only by
# the other modules, and is reached as mosva.scalars, not re-exported
__all__ = [name for name in dir() if not name.startswith("_") and name != "scalars"]
__version__ = "0.1.0"
