"""Exact spectra and expander-mixing density bounds for the bipartite graph
of complementary subspaces over finite classical spaces."""

from .bounds import (
    THEOREM,
    Surd,
    alpha_orthogonal,
    alpha_symplectic,
    alpha_unitary,
    bound_orthogonal,
    bound_symplectic,
    bound_unitary,
    corollary_bound,
    compare,
    mixing_lower_bound,
    surd,
)
from .exactnum import (
    bq,
    count_nondegenerate,
    gaussian_binomial,
    group_order_go,
    group_order_gu,
    group_order_sp,
    lambda_factor,
    omega,
    prime_power,
)
from .forms import standard_form
from .oracle import (
    annihilator_check,
    build_biadjacency,
    build_yset,
    count_complementary,
    count_complementary_transitive,
    mixing_check,
)
from .spectrum import eigen_exponents, eigen_exponents_via_characters
from .sweep import verify_theorem

__version__ = "0.1.0"

__all__ = [
    "Surd",
    "THEOREM",
    "alpha_orthogonal",
    "alpha_symplectic",
    "alpha_unitary",
    "annihilator_check",
    "bound_orthogonal",
    "bound_symplectic",
    "bound_unitary",
    "bq",
    "build_biadjacency",
    "compare",
    "build_yset",
    "corollary_bound",
    "count_complementary",
    "count_complementary_transitive",
    "count_nondegenerate",
    "eigen_exponents",
    "eigen_exponents_via_characters",
    "gaussian_binomial",
    "group_order_go",
    "group_order_gu",
    "group_order_sp",
    "lambda_factor",
    "mixing_check",
    "mixing_lower_bound",
    "omega",
    "prime_power",
    "standard_form",
    "surd",
    "verify_theorem",
]
