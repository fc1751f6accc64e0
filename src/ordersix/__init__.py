"""Exact eta-quotient arithmetic on Gamma0(N) and the modular equations of
the order-six continued fraction's hauptmodul w(tau) = X(tau) X(3*tau)."""

import os

# One OpenBLAS thread unless the caller chose otherwise.  The kernel's
# products are thin 32-row blocks (linalg), and the worker OpenBLAS starts
# per extra vCPU on import only busy-waits around them.  On 2 vCPUs the
# median CPU time of `modeq 7`, `modeq 13` and `modeq 19 --no-cache` fell
# from 0.38, 0.47 and 1.37 s to 0.27, 0.36 and 0.82 s, and that of
# `modeq 25` from 4.9 to 2.9 s, with wall time no worse.  OpenBLAS reads
# the variable once, when numpy is first imported, so this must run before
# any submodule imports numpy and has no effect in a process that imported
# numpy before ordersix.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
from .verify import CheckReport, run_checks

__version__ = "0.1.0"

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
