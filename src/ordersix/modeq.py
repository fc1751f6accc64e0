"""Modular equations F_n(w(tau), w(n*tau)) = 0 for the hauptmodul w.

The solver predicts the bidegree from total pole degrees on Gamma0(18n)
and computes the one-dimensional kernel of the coefficient matrix of the
monomials W^i V^j with the multimodular CRT solver.  That matrix never
exists over Z: MonomialMatrix keeps the exact expansion of w and builds
the matrix modulo each prime in int64 numpy arrays.  Exactly one check
over Z accepts the lifted vector: the Horner-rule residual
F_n(w, w(n*tau)) vanishing below q^precision_used.  The kernel is then a
certified primitive integer vector, and a deterministic rule fixes its
sign.  Structural checks cover the forced zero/nonzero coefficient
pattern, X<->Y symmetry for levels coprime to 6, and the Kronecker
congruence at prime levels.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd
from types import MappingProxyType

import numpy as np

from .arith import is_prime
from .eta import divisor, named_w
# nullspace_exact is unused here; bench/tracing.py hooks it in this namespace
from .linalg import kernel_int_crt, kernel_primes, nullspace_exact  # noqa: F401
from .series import QSeries

_BASE_MARGIN = 32
_LIMB_BITS = 15
_LIMB_MASK = (1 << _LIMB_BITS) - 1


class NullspaceEmptyError(Exception):
    """No relation found at the predicted bidegree; indicates a bug."""


class NullspaceAmbiguousError(Exception):
    """Kernel dimension stayed above one after the precision retry."""


class NotPrimeLevelError(ValueError):
    """Kronecker congruence is only defined for prime levels >= 5."""


class LevelNotCoprimeTo6Error(ValueError):
    """Coefficient symmetry is only claimed for levels coprime to 6."""


@dataclass(frozen=True)
class BivarPoly:
    """Bivariate integer polynomial as a sparse (i, j) -> coefficient map."""

    coeffs: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {ij: int(c) for ij, c in self.coeffs.items() if c}
        object.__setattr__(self, "coeffs", cleaned)

    @property
    def degx(self) -> int:
        return max((i for i, _ in self.coeffs), default=0)

    @property
    def degy(self) -> int:
        return max((j for _, j in self.coeffs), default=0)

    def coeff(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    def content(self) -> int:
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, abs(c))
        return g

    def normalized(self) -> tuple[BivarPoly, bool]:
        """Primitive form with the sign rule: the coefficient of
        X^degx Y^j0 is positive, j0 the least j present at i = degx.
        Returns (polynomial, sign_flipped)."""
        if not self.coeffs:
            return self, False
        g = self.content()
        dx = self.degx
        j0 = min(j for i, j in self.coeffs if i == dx)
        flip = self.coeffs[(dx, j0)] < 0
        s = -1 if flip else 1
        return BivarPoly({ij: c * s // g for ij, c in self.coeffs.items()}), flip

    def evaluate(self, xs: QSeries, ys: QSeries) -> QSeries:
        """Substitute series for X and Y; grouped so only degx + degy
        series products are needed."""
        ypow = [ys ** 0]
        for _ in range(self.degy):
            ypow.append(ypow[-1] * ys)
        total = None
        xpow = xs ** 0
        for i in range(self.degx + 1):
            inner = None
            for j in range(self.degy + 1):
                c = self.coeff(i, j)
                if not c:
                    continue
                term = ypow[j] * c
                inner = term if inner is None else inner + term
            if inner is not None:
                contrib = xpow * inner
                total = contrib if total is None else total + contrib
            if i < self.degx:
                xpow = xpow * xs
        return total if total is not None else QSeries.zero(xs.prec)

    def reduced_mod(self, p: int) -> dict[tuple[int, int], int]:
        return {ij: c % p for ij, c in self.coeffs.items() if c % p}

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.coeffs == other.coeffs


@dataclass(frozen=True)
class ModEqResult:
    level: int
    d1: int
    d2: int
    poly: BivarPoly
    precision_used: int
    nullspace_dim: int
    normalization: str
    method: str  # always "crt"; bench/gate.py still passes method="crt"


@dataclass(frozen=True)
class CoeffPattern:
    level: int
    forced_zero: frozenset[tuple[int, int]]
    forced_nonzero: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.forced_zero & self.forced_nonzero:
            raise AssertionError("forced zero and nonzero positions overlap")


@lru_cache(maxsize=None)
def _cusp_orders(n: int) -> tuple[MappingProxyType, MappingProxyType]:
    """Read-only {cusp: order} maps of w and w(n*tau) on Gamma0(18n)."""
    w = named_w()
    return tuple(
        MappingProxyType({co.cusp: co.order for co in divisor(f)})
        for f in (w.lift(18 * n), w.rescale(n))
    )


def _pole_degree(orders) -> int:
    return -sum(o for o in orders.values() if o < 0)


def predict_degrees(n: int) -> tuple[int, int]:
    """(d1, d2) = total pole degrees of w and w(n*tau) on Gamma0(18n)."""
    if n < 2:
        raise ValueError("level must be at least 2")
    ord1, ord2 = _cusp_orders(n)
    return _pole_degree(ord1), _pole_degree(ord2)


def _row_count(n: int, d1: int, d2: int, margin: int) -> int:
    """Rows of the monomial matrix: exponents q^0 .. q^(count - 1).

    The count is d2 + n*d1 + #unknowns + margin - 1; the "- 1" keeps
    precision_used, which the output documents carry, at its established
    value.
    """
    return d2 + n * d1 + (d1 + 1) * (d2 + 1) + margin - 1


def _check_int64_bound(terms: int, p: int) -> None:
    """Raise unless limb sums mod p fit in int64.

    A sum of ``terms`` products of a residue mod p with a 15-bit limb, plus
    one residue shifted left by 15 bits, is at most
    (terms + 1) * (p - 1) * 2^15, which must stay below 2^63.
    """
    if (terms + 1) * (p - 1) << _LIMB_BITS >= 1 << 63:
        raise OverflowError(f"{terms} limb products mod {p} overflow int64")


def _limbs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return a & _LIMB_MASK, a >> _LIMB_BITS


class MonomialMatrix(Sequence):
    """Coefficient matrix of the monomials W^i V^j, W = w and V = w(n*tau).

    Row e holds the coefficients of q^e for e < height; columns are ordered
    by (i, j) lexicographic, 0 <= i <= d2, 0 <= j <= d1.  Only the exact
    expansion of w below q^height is stored: ``mod(p)`` builds the matrix
    reduced mod p in int64 numpy arrays, which is exactly the integer
    matrix reduced mod p, and ``annihilates`` is the one exact check.  As a
    sequence, its rows are the residues mod the kernel's first prime, as
    Python ints (bench/tracing.py reads the kernel's matrix as rows).
    """

    def __init__(self, n: int, d1: int, d2: int, height: int):
        self.level, self.d1, self.d2, self.height = n, d1, d2, height
        self.order = [(i, j) for i in range(d2 + 1) for j in range(d1 + 1)]
        ws = named_w().expand(height)
        if ws.h != 1 or ws.val < 0:
            raise AssertionError("w must expand in integer powers of q")
        self._w = [0] * ws.val + list(ws.coeffs)
        self._w += [0] * (height - len(self._w))

    def mod(self, p: int) -> np.ndarray:
        """The matrix mod p, shape (height, #unknowns), entries in [0, p).

        The powers W^k mod p come from truncated convolutions with w split
        into 15-bit limbs.  V^j = w^j(q^n) is nonzero only at multiples of
        n, so column (i, j) is a sum of about height/n shifted copies of
        W^i scaled by coefficients of w^j, accumulated per limb as well.
        """
        h, n, d1, d2 = self.height, self.level, self.d1, self.d2
        _check_int64_bound(h, p)
        w_lo, w_hi = _limbs(np.array([c % p for c in self._w], dtype=np.int64))
        powers = np.zeros((max(d1, d2) + 1, h), dtype=np.int64)
        powers[0, 0] = 1
        for k in range(1, len(powers)):
            lo = np.convolve(powers[k - 1], w_lo)[:h]
            hi = np.convolve(powers[k - 1], w_hi)[:h] % p
            powers[k] = (lo + (hi << _LIMB_BITS)) % p
        wblock = powers[: d2 + 1]
        out = np.empty((h, len(self.order)), dtype=np.int64)
        for j in range(d1 + 1):
            acc_lo = np.zeros_like(wblock)
            acc_hi = np.zeros_like(wblock)
            vj = powers[j, : -(-h // n)]
            for t in np.nonzero(vj)[0]:
                s = n * int(t)
                c_lo, c_hi = _limbs(vj[t])
                acc_lo[:, s:] += c_lo * wblock[:, : h - s]
                acc_hi[:, s:] += c_hi * wblock[:, : h - s]
            out[:, j :: d1 + 1] = ((acc_lo + (acc_hi % p << _LIMB_BITS)) % p).T
        return out

    def annihilates(self, vec: list[int]) -> bool:
        """Exact check: sum of vec[k] * W^i V^j, (i, j) = order[k], vanishes
        below q^height."""
        if not any(vec):
            return False
        candidate = ModEqResult(
            level=self.level,
            d1=self.d1,
            d2=self.d2,
            poly=BivarPoly(dict(zip(self.order, vec))),
            precision_used=self.height,
            nullspace_dim=1,
            normalization="",
            method="crt",
        )
        return residual_series(candidate).is_zero

    @cached_property
    def _first_residues(self) -> np.ndarray:
        return self.mod(next(kernel_primes()))

    def __len__(self) -> int:
        return self.height

    def __getitem__(self, e: int) -> list[int]:
        return self._first_residues[e].tolist()


def solve_modular_equation(n: int) -> ModEqResult:
    """Derive, verify, and normalize the level-n modular equation for w.

    The matrix has d2 + n*d1 + #unknowns + 31 rows; if the kernel is not
    one-dimensional the margin is doubled once before giving up.  The
    kernel comes from kernel_int_crt, which accepts it only after the exact
    residual check, so it is already a certified primitive integer vector
    and only the sign rule remains to apply.
    """
    d1, d2 = predict_degrees(n)
    margin = _BASE_MARGIN
    for _attempt in range(2):
        matrix = MonomialMatrix(n, d1, d2, _row_count(n, d1, d2, margin))
        kernel = kernel_int_crt(matrix)
        if kernel.dimension == 0:
            raise NullspaceEmptyError(
                f"level {n}: no kernel at bidegree ({d2}, {d1}), precision {matrix.height}"
            )
        if kernel.dimension == 1:
            break
        margin *= 2
    else:
        raise NullspaceAmbiguousError(
            f"level {n}: kernel dimension {kernel.dimension} persists at "
            f"precision {matrix.height}"
        )
    poly = BivarPoly(dict(zip(matrix.order, kernel.vector)))
    g = poly.content()
    poly, flipped = poly.normalized()
    if poly.degx != d2 or poly.degy != d1:
        raise NullspaceEmptyError(
            f"level {n}: kernel polynomial has bidegree ({poly.degx}, {poly.degy}), "
            f"expected ({d2}, {d1})"
        )
    # the "denominators cleared" clause stays so output documents are
    # byte-stable across versions
    norm_note = (
        f"denominators cleared by 1, content {g} removed"
        f"{', sign flipped' if flipped else ''}"
    )
    return ModEqResult(
        level=n,
        d1=d1,
        d2=d2,
        poly=poly,
        precision_used=matrix.height,
        nullspace_dim=1,
        normalization=norm_note,
        method="crt",
    )


def residual_series(result: ModEqResult) -> QSeries:
    """F_n(w, w(n*tau)) below q^precision_used, by Horner's rule in W.

    With P_i(Y) = sum_j c_ij Y^j, F = (...(P_d2(V) W + P_(d2-1)(V)) W + ...)
    + P_0(V).  P_i(V) is P_i(w) with q -> q^n, so the inner sums need w
    only below q^(precision/n); just the d2 multiplications by W run at
    full length.
    """
    n, prec = result.level, result.precision_used
    w = named_w()
    ws = w.expand(prec)
    short = -(-prec // n)
    w_short = ws.truncate(short)
    ypow = [QSeries.one(short)]
    for _ in range(result.poly.degy):
        ypow.append(ypow[-1] * w_short)
    total = QSeries.zero(prec)
    for i in range(result.poly.degx, -1, -1):
        inner = QSeries.zero(short)
        for j, y in enumerate(ypow):
            c = result.poly.coeff(i, j)
            if c:
                inner = inner + y * c
        total = total * ws + inner.rescale(n)
    return total.truncate(prec)


def certificate_failure(result: ModEqResult) -> str | None:
    """Why ``result`` is not the certified level-n equation, or None.

    The bidegree must equal predict_degrees, the polynomial must be in
    normal form with a one-dimensional kernel recorded, precision_used must
    be a row count the solver uses (base or doubled margin), and the exact
    residual must vanish below q^precision_used.
    """
    n = result.level
    d1, d2 = predict_degrees(n)
    poly = result.poly
    if (result.d1, result.d2, poly.degy, poly.degx) != (d1, d2, d1, d2):
        return (
            f"bidegree ({poly.degx}, {poly.degy}) differs from the predicted ({d2}, {d1})"
        )
    if poly.normalized()[0] != poly or result.nullspace_dim != 1:
        return "not a primitive, sign-normalized kernel vector of dimension one"
    lo = _row_count(n, d1, d2, _BASE_MARGIN)
    hi = _row_count(n, d1, d2, 2 * _BASE_MARGIN)
    if not lo <= result.precision_used <= hi:
        return f"precision {result.precision_used} outside the solver's range [{lo}, {hi}]"
    if not residual_series(result).is_zero:
        return "residual F_n(w, w(n*tau)) does not vanish"
    return None


def predict_coefficient_pattern(n: int) -> CoeffPattern:
    """Forced coefficient positions from the cusp geometry on Gamma0(18n).

    With f1 = w, f2 = w(n*tau), a is minus the f1-order summed over common
    (f1 pole, f2 zero) cusps and b the f1-order summed over common zeros;
    the leading column i = d2 carries exactly Y^a when every f1 pole is an
    f2 pole or zero, and the i = 0 column exactly Y^b when every f1 zero is.
    The same statements with the roles swapped give the row constraints.
    """
    d1, d2 = predict_degrees(n)
    ord1, ord2 = _cusp_orders(n)

    def sets(orders):
        zeros = {x for x, o in orders.items() if o > 0}
        poles = {x for x, o in orders.items() if o < 0}
        return zeros, poles

    z1, p1 = sets(ord1)
    z2, p2 = sets(ord2)
    forced_nonzero: set[tuple[int, int]] = set()
    forced_zero: set[tuple[int, int]] = set()

    # orientation (f1, f2): constraints on the i = d2 and i = 0 columns
    a = -sum(ord1[x] for x in p1 & z2)
    b = sum(ord1[x] for x in z1 & z2)
    forced_nonzero.add((d2, a))
    if p1 <= (p2 | z2):
        forced_zero.update((d2, j) for j in range(d1 + 1) if j != a)
    forced_nonzero.add((0, b))
    if z1 <= (p2 | z2):
        forced_zero.update((0, j) for j in range(d1 + 1) if j != b)

    # swapped orientation: constraints on the j = d1 and j = 0 rows
    a_s = -sum(ord2[x] for x in p2 & z1)
    b_s = sum(ord2[x] for x in z2 & z1)
    forced_nonzero.add((a_s, d1))
    if p2 <= (p1 | z1):
        forced_zero.update((i, d1) for i in range(d2 + 1) if i != a_s)
    forced_nonzero.add((b_s, 0))
    if z2 <= (p1 | z1):
        forced_zero.update((i, 0) for i in range(d2 + 1) if i != b_s)

    forced_zero -= forced_nonzero
    return CoeffPattern(n, frozenset(forced_zero), frozenset(forced_nonzero))


def check_pattern(result: ModEqResult, pattern: CoeffPattern) -> bool:
    if result.level != pattern.level:
        raise ValueError("pattern and result are for different levels")
    for ij in pattern.forced_zero:
        if result.poly.coeff(*ij):
            return False
    for ij in pattern.forced_nonzero:
        if not result.poly.coeff(*ij):
            return False
    return True


def kronecker_frame(p: int) -> BivarPoly:
    """(X^p - Y)(X - Y^p)."""
    return BivarPoly({(p + 1, 0): 1, (p, p): -1, (1, 1): -1, (0, p + 1): 1})


def check_kronecker(result: ModEqResult) -> bool:
    """F_p == (X^p - Y)(X - Y^p) mod p, coefficientwise."""
    p = result.level
    if not is_prime(p) or p < 5:
        raise NotPrimeLevelError(f"level {p} is not a prime >= 5")
    return result.poly.reduced_mod(p) == kronecker_frame(p).reduced_mod(p)


def check_symmetry(result: ModEqResult) -> bool:
    n = result.level
    if gcd(n, 6) != 1:
        raise LevelNotCoprimeTo6Error(f"level {n} shares a factor with 6")
    c = result.poly.coeffs
    return all(c.get((j, i), 0) == v for (i, j), v in c.items())


def extract_inner_factor(poly: BivarPoly, p: int) -> BivarPoly:
    """G with poly == (X^p - Y)(X - Y^p) - p*X*Y*G, or raise ValueError."""
    diff = dict(kronecker_frame(p).coeffs)
    for ij, c in poly.coeffs.items():
        diff[ij] = diff.get(ij, 0) - c
    inner: dict[tuple[int, int], int] = {}
    for (i, j), c in diff.items():
        if not c:
            continue
        if i < 1 or j < 1 or c % p:
            raise ValueError(f"no inner factor: residue {c} at ({i}, {j})")
        inner[(i - 1, j - 1)] = c // p
    return BivarPoly(inner)


def format_polynomial(poly: BivarPoly, style: str = "plain") -> str:
    """Render with terms ordered by ascending Y then X power; 'latex' braces
    multi-digit exponents, 'plain' never does."""

    def var(name: str, e: int) -> str:
        if e == 0:
            return ""
        if e == 1:
            return name
        if style == "latex" and e >= 10:
            return f"{name}^{{{e}}}"
        return f"{name}^{e}"

    items = sorted(poly.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    parts = []
    for (i, j), c in items:
        body = " ".join(x for x in (var("X", i), var("Y", j)) if x)
        mag = abs(c)
        if mag != 1 or not body:
            body = f"{mag} {body}".strip()
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


__all__ = [
    "BivarPoly",
    "ModEqResult",
    "CoeffPattern",
    "NullspaceEmptyError",
    "NullspaceAmbiguousError",
    "NotPrimeLevelError",
    "LevelNotCoprimeTo6Error",
    "predict_degrees",
    "solve_modular_equation",
    "residual_series",
    "certificate_failure",
    "MonomialMatrix",
    "predict_coefficient_pattern",
    "check_pattern",
    "check_kronecker",
    "check_symmetry",
    "kronecker_frame",
    "extract_inner_factor",
    "format_polynomial",
]
