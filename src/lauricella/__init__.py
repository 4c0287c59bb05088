"""Multivariate hypergeometric evaluation and a verified identity database.

Evaluates Gauss 2F1, Appell F1 and Lauricella FD functions (including their
analytic continuations), complete and incomplete elliptic integrals and the
Gamma function, and uses them to machine-check a catalog of closed-form
identities and hyperelliptic-integral reductions.

``import lauricella`` loads only the evaluation stack (core, quadrature,
hyperfun, elliptic).  The catalog modules (identities, reductions, catalog)
load on first use of one of their names, so a single evaluation does not pay
for importing them.
"""

from .core import (
    BranchSide,
    DEFAULT_SIDE,
    DomainError,
    GammaPoleError,
    gamma,
    pochhammer,
    principal_pow,
    roots_of_unity,
    unit_partition_roots,
)
from .elliptic import complete_e, complete_k, incomplete_f
from .hyperfun import (
    HyperSpec,
    appell_f1,
    eulerian_a,
    eulerian_b,
    fd_order_reduce,
    hyp2f1,
    hyp2f1_series,
    lauricella_fd,
    pfaff_f1,
)
from .quadrature import (
    IntegrandSpec,
    QuadratureError,
    QuadratureResult,
    integrate,
    integrate_semi_infinite,
)

__version__ = "0.1.0"

# public names of the catalog modules, resolved on first access
_LAZY = {
    "EvalReport": "identities",
    "IdentityRecord": "identities",
    "registry": "identities",
    "verify": "identities",
    "verify_all": "identities",
    "ReductionRecord": "reductions",
    "check_reduction": "reductions",
    "reduction_registry": "reductions",
    "representation_formulas_check": "reductions",
}

__all__ = [
    "BranchSide",
    "DEFAULT_SIDE",
    "DomainError",
    "EvalReport",
    "GammaPoleError",
    "HyperSpec",
    "IdentityRecord",
    "IntegrandSpec",
    "QuadratureError",
    "QuadratureResult",
    "ReductionRecord",
    "appell_f1",
    "check_reduction",
    "complete_e",
    "complete_k",
    "eulerian_a",
    "eulerian_b",
    "fd_order_reduce",
    "gamma",
    "hyp2f1",
    "hyp2f1_series",
    "incomplete_f",
    "integrate",
    "integrate_semi_infinite",
    "lauricella_fd",
    "pfaff_f1",
    "pochhammer",
    "principal_pow",
    "reduction_registry",
    "registry",
    "representation_formulas_check",
    "roots_of_unity",
    "unit_partition_roots",
    "verify",
    "verify_all",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        # an AttributeError lets `from lauricella import <submodule>` fall back
        # to importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
