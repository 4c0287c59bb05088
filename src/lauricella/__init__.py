"""Multivariate hypergeometric evaluation and a verified identity database.

Evaluates Gauss 2F1, Appell F1 and Lauricella FD functions (including their
analytic continuations), complete and incomplete elliptic integrals and the
Gamma function, and uses them to machine-check a catalog of closed-form
identities and hyperelliptic-integral reductions.

``import lauricella`` loads only core (Gamma, powers, the library's
exceptions) and hyperfun (the series, connection formulas and Euler
integrands).  Everything else loads on first use of one of its names:
quadrature, and with it ``dataclasses``, on the first evaluation that
integrates or the first use of a quadrature name; elliptic on the first use
of one of its functions; the catalog modules (identities, reductions,
catalog) when a check runs.  So a single evaluation on the series or
connection-formula paths imports only what it runs.
"""

from .core import (
    BranchSide,
    DEFAULT_SIDE,
    DomainError,
    GammaPoleError,
    QuadratureError,
    gamma,
    pochhammer,
    principal_pow,
    roots_of_unity,
    unit_partition_roots,
)
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

__version__ = "0.1.0"

# public names of the modules loaded on first use, resolved on first access
_LAZY = {
    "IntegrandSpec": "quadrature",
    "QuadratureResult": "quadrature",
    "integrate": "quadrature",
    "integrate_semi_infinite": "quadrature",
    "complete_e": "elliptic",
    "complete_k": "elliptic",
    "incomplete_f": "elliptic",
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
