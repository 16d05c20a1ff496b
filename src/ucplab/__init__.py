"""Numerical verification laboratory for quantum logics with unique
conditional probabilities: Cayley-Dickson scalar algebras, Hermitian
matrix Jordan algebras, compression maps, higher-order interference
terms, and exact finite-logic checkers.

The exact layer (`finite`, `search`) needs only the standard library and is
imported with the package.  The dense layer (`scalars`, `jordan`, `model`,
`interference`) imports numpy, so its names and modules are resolved on
first access through the module `__getattr__` (PEP 562).
"""

import importlib

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
    finite_I3_scan,
)
from .search import SearchConfig, classify, enumerate_logics, run_search

# dense module -> the names the package exports from it
_DENSE = {
    "interference": (
        "I2_scalar",
        "I3_scalar",
        "a1_check",
        "corridor_sample",
        "corridor_samples",
        "eq10_check",
        "i3_basis_norm_max",
        "lemma_suite",
        "saturating_configuration",
        "symmetry_battery",
        "t_structure_battery",
    ),
    "jordan": (
        "AlgebraDescriptor",
        "AlgebraElement",
        "SpectralForm",
        "eigenvalues",
        "hermitian_basis",
        "identity",
        "inner",
        "jordan_product",
        "order_unit_norm",
        "property_battery",
        "quadratic_map_U",
        "random_element",
        "random_projection",
        "random_state_density",
        "spectral_decompose",
        "trace",
    ),
    "model": (
        "ConditioningOnNullError",
        "State",
        "complement",
        "conditional_probability",
        "conditional_state",
        "evaluate",
        "orthogonal",
    ),
    "scalars": ("cd_conj", "cd_mul", "cd_norm", "multiplication_table"),
}
_DENSE_OWNER = {name: module for module, names in _DENSE.items() for name in names}


def __getattr__(name):
    """Import a dense module, or the one owning a dense name, on first access."""
    if name in _DENSE:
        return importlib.import_module(f".{name}", __name__)
    module = _DENSE_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
