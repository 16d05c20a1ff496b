"""Numerical verification laboratory for quantum logics with unique
conditional probabilities: Cayley-Dickson scalar algebras, Hermitian
matrix Jordan algebras, compression maps, higher-order interference
terms, and exact finite-logic checkers.
"""

__version__ = "0.1.0"

from .finite import (
    CheckReport,
    FiniteEvent,
    FiniteLogic,
    SumUndefinedError,
    check_os_axioms,
    check_uc1,
    check_uc2,
    conditional_table,
)
from .interference import (
    I2_scalar,
    I3_scalar,
    a1_check,
    corridor_sample,
    corridor_samples,
    eq10_check,
    finite_I3_scan,
    i3_basis_norm_max,
    lemma_suite,
    saturating_configuration,
    symmetry_battery,
    t_structure_battery,
)
from .jordan import (
    AlgebraDescriptor,
    AlgebraElement,
    SpectralForm,
    eigenvalues,
    hermitian_basis,
    identity,
    inner,
    jordan_product,
    order_unit_norm,
    property_battery,
    quadratic_map_U,
    random_element,
    random_projection,
    random_state_density,
    spectral_decompose,
    trace,
)
from .model import (
    ConditioningOnNullError,
    State,
    complement,
    conditional_probability,
    conditional_state,
    evaluate,
    orthogonal,
)
from .scalars import cd_conj, cd_mul, cd_norm, multiplication_table
from .search import SearchConfig, classify, enumerate_logics, run_search
