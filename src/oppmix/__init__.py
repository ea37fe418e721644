"""Exact spectra and expander-mixing density bounds for the bipartite graph
of complementary subspaces over finite classical spaces.

The names in __all__ resolve on first access (PEP 562), so importing the
package, or only its command line, loads no module it does not use.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "bounds": "THEOREM alpha_orthogonal alpha_symplectic alpha_unitary bound_orthogonal "
    "bound_symplectic bound_unitary corollary_bound mixing_lower_bound",
    "exactnum": "Surd bq compare count_nondegenerate gaussian_binomial group_order_go "
    "group_order_gu group_order_sp lambda_factor omega prime_power surd",
    "forms": "standard_form",
    "oracle": "annihilator_check build_biadjacency build_ysets count_complementary "
    "count_complementary_transitive mixing_check",
    "spectrum": "eigen_exponents eigen_exponents_via_characters",
    "sweep": "verify_theorem",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
