"""Exact eta-quotient arithmetic on Gamma0(N) and the modular equations of
the order-six continued fraction's hauptmodul w(tau) = X(tau) X(3*tau)."""

from .arith import psi_index
from .cusps import Cusp, INFINITY, ZERO, are_equivalent, canonical, cusp_set, width
from .eta import (
    EtaQuotient,
    divisor,
    named_j,
    named_w,
    named_x,
    pole_zero_class,
    total_pole_degree,
)
from .modeq import (
    BivarPoly,
    CoeffPattern,
    ModEqResult,
    check_kronecker,
    check_pattern,
    check_symmetry,
    predict_coefficient_pattern,
    predict_degrees,
    solve_modular_equation,
)
from .series import QSeries, euler_product

__version__ = "0.1.0"

# The subsets verify.run_checks accepts.  They live here so the command
# line parser can offer them without importing verify, which only the
# verify command needs.
SUBSETS = ("all", "tables", "identities", "cusps")


def __getattr__(name):
    """Load verify on first use of CheckReport or run_checks (PEP 562)."""
    if name in ("CheckReport", "run_checks"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "QSeries",
    "euler_product",
    "Cusp",
    "INFINITY",
    "ZERO",
    "are_equivalent",
    "canonical",
    "cusp_set",
    "width",
    "EtaQuotient",
    "divisor",
    "total_pole_degree",
    "pole_zero_class",
    "named_w",
    "named_x",
    "named_j",
    "BivarPoly",
    "ModEqResult",
    "CoeffPattern",
    "predict_degrees",
    "solve_modular_equation",
    "predict_coefficient_pattern",
    "check_pattern",
    "check_kronecker",
    "check_symmetry",
    "psi_index",
    "CheckReport",
    "run_checks",
    "__version__",
]
