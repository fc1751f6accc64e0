"""Modular equations F_n(w(tau), w(n*tau)) = 0 for the hauptmodul w.

The solver predicts the bidegree (d2, d1) from total pole degrees on
Gamma0(18n) and derives the one relation in that box from the conjugates
of w(tau) over C(w(n*tau)), at every level.  With Y = w(tau), the roots of
F_n(X, Y) in X are w((a*tau + b)/d) over the right cosets of Gamma0(18)
in Gamma0(18) diag(1, n) Gamma0(18): ad = n, 0 <= b < d, gcd(a, b, d) = 1
and gcd(a, 6) = 1 (arith.hecke_cosets; Shimura 1971, Prop. 3.36).  All of
them expand at infinity, so F_n = (1 - 3Y)^m prod (X - w((a*tau + b)/d)),
where w = 1/3 at the cusp 0 of Gamma0(18) and m (leading_exponent) is the
pole order of w at the cusps of Gamma0(18n) where w(n*tau) is regular;
m = 0 exactly when n is odd.  modp.conjugate_polynomial_mod computes F_n
mod p from the power sums of the roots (conjugate_traces) by Newton's
identities, with no matrix, and kernel_int_crt lifts F_n from its
residues by CRT.

That the relation is unique up to a constant is derived, not read off a
nullity mod p: with alpha = diag(n, 1), Gamma0(18) intersected with
alpha^-1 Gamma0(18) alpha is Gamma0(18n), and since w is a hauptmodul,
C(X0(18n)) = C(w, w(n*tau)).  So w(tau) has degree
[Gamma0(18) : Gamma0(18n)] = d2 over C(w(n*tau)), F_n is its minimal
polynomial up to a factor in C(Y), and every relation in the (d2, d1) box
is a constant multiple of F_n.

Exactly one check accepts an equation, certificate_failure: its shape
checks, then the Horner-rule residual F(w, w(n*tau)) (residual_series)
vanishing below q^certificate_height(n), which proves it is 0.  It
accepts the solver's lift (kernel_int_crt calls it on the solve's own
expansion of w) and a stored equation (a cache entry) alike.  The shape
checks require the coefficient of X^d2 to be exactly (1 - 3Y)^m, as F_n's
is, so an accepted equation has the coefficient 1 at X^d2 Y^0: it is
primitive, with a positive leading coefficient.  They also require the
equation to be invariant under the twists of the level's involutions
below, which the height needs; at levels coprime to 6 one twist is the
X<->Y swap, so the certificate requires symmetry there.  A certified
equation is fixed by its level and polynomial: result_for derives every
other field from those two, for a fresh solve and a cache hit alike.
Structural checks cover the forced zero/nonzero coefficient pattern, X<->Y
symmetry for levels coprime to 6 (an independent recheck), and the
Kronecker congruence at prime levels.

Why the certificate proves F(w, w(n*tau)) = 0.  For F in the (d2, d1) box,
G = F(W, V), W = w and V = w(n*tau), is a modular function on Gamma0(18n).
It has no pole at infinity, where W and V vanish, and at most
d2*d1 + d1*d2 poles at the other cusps.  Gamma0(18n) has no elliptic
points: 9 | 18n rules out order 3, and 3 | 18n with 3 = 3 mod 4 rules out
order 2.  So by the valence formula (Sturm 1987) the orders of G at the
points of X0(18n) sum to 0 with weight one each, and G has at most
2*d1*d2 zeros unless G = 0.  An involution g normalizing Gamma0(18n) with
G o g = c*G/D, c != 0 and D a polynomial in W, V nonzero at W = V = 0,
carries the zero of G at infinity to the cusp g(infinity) with its order.
With r such involutions sending infinity to r distinct cusps,
r * ord_inf(G) <= 2*d1*d2, so vanishing below q^(floor(2*d1*d2/r) + 1),
which is certificate_height(n), proves G = 0.  d1 = d2 = d at every level
(certificate_height checks it).

The involutions (Atkin-Lehner 1970).  For Q || 18n, W_Q = [[Q*x, y],
[18n*z, Q*t]] of determinant Q normalizes Gamma0(18n), squares to Q times
an element of it and sends infinity to the cusp 1/(18n/Q); distinct Q give
distinct cusps.  Three act on (W, V) by Moebius maps:

* W_18n: tau -> -1/(18*n*tau).  eta(-1/tau) = (tau/i)^(1/2) eta(tau)
  turns w(-1/(18*tau)) into w*/3, w* = eta(t)^2 eta(18t) / (eta(2t)
  eta(9t)^2): the square roots cancel in weight 0, and
  18^(1/2) 9^(-1) 2^(-1/2) = 1/3 with no root of unity.  w* (1 - w) =
  1 - 3w on Gamma0(18) (w and w* have one simple pole each, so vanishing
  below q^3 proves it), so w(-1/(18*tau)) = M(w), M(t) = (1 - 3t)/(3 - 3t),
  and W_18n sends W to M(V) and V to M(W).
* W_2, at odd n: w o W_2 = M2(w) on Gamma0(18), M2(t) = (1 - t)/(1 - 3t).
  Take W_2 = [[2x, y], [18z, 2t]], 2xt - 9yz = 1, z > 0.  For delta | 18,
  delta * W_2(tau) = gamma(delta' * tau) with gamma in SL2(Z): gamma =
  [[x, y], [9z, 2t]], [[x, 9y], [z, 2t]], [[2x, y], [9z, t]] and
  [[2x, 9y], [z, t]] for delta = 1, 9, 2, 18 and delta' = 2, 18, 1, 9.
  The eta transformation law, eta(gamma u) = eps(gamma) (-i (c u +
  d))^(1/2) eta(u) with eps(gamma) a 24th root of unity, applies with
  c u + d = J = 18z*tau + 2t for delta = 1 and 9, and J/2 for delta = 2
  and 18.  w = eta(t) eta(18t)^2 / (eta(2t)^2 eta(9t)) has exponents
  1 - 1 = 0 on delta = 1, 9 and 2 - 2 = 0 on delta = 2, 18, so the square
  roots cancel with no power of 2 left, and w o W_2 = eps/w* = eps M2(w),
  eps a root of unity.  W_2 squares to 2 times an element of Gamma0(18),
  so eps M2 is an involution: eps M2(eps M2(t)) = t, with denominators
  cleared, is eps((1 - 3t) - eps(1 - t)) = t((1 - 3t) - 3 eps(1 - t)),
  whose constant term gives eps(1 - eps) = 0, so eps = 1.  At level 18n,
  [[2x, y], [18n*z, 2t]] is a W_2 of level 18, and n times its image of
  tau is [[2x, n*y], [18z, 2t]](n*tau), another; so W_2 sends W to M2(W)
  and V to M2(V).
* W_n, at n prime to 6: W_n = [[x, y], [18z, n*t]] diag(n, 1), and
  n * W_n(tau) = [[n*x, y], [18z, t]](tau), both matrices in Gamma0(18),
  so W_n swaps W and V.

For each, H(X, Y) = b(X)^d b(Y)^d F(m(X), m(Y)), m = a/b and X, Y
swapped inside F for W_18n and W_n, is mobius_twist, and G o g =
H(W, V) / (b(W)^d b(V)^d).  The shape checks require H = c*F, c the
coefficient of H at X^d Y^0, nonzero (for F_n, c = 6^d for W_18n, 2^d for
W_2 and 1 for W_n); D is 9^d, 1 and 1 at infinity.  Composing G o g and
its D, W_2n = W_2 W_n (M2 and the swap) and W_18 = W_18n W_n (M) lose
nothing either.  W_9 and W_9n are left out: M(M2(t)) = M2(M(t)) = 1/(3t),
so they send w to 1/(3W) or 1/(3V), whose composed D vanishes at
infinity.  So r = 6 at n prime to 6 (infinity, 1/(9n), 0, 1/18, 1/9 and
1/n, through 1, W_2, W_18n, W_n, W_2n and W_18), r = 3 at odd n with
3 | n (infinity, 1/(9n) and 0), and r = 2 at even n, where W_18n alone
applies.

The arithmetic mod p is in modp, which kernel_int_crt imports at the
first solve; modp's docstring says when it loads numpy.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import chain, islice
from math import comb, gcd
from operator import mul
from types import MappingProxyType

from .arith import divisors, hecke_cosets, is_prime, moebius, primes_below
from .eta import divisor, named_w
# nullspace_exact is unused here; bench/tracing.py hooks it in this namespace
from .linalg import nullspace_exact  # noqa: F401
from .series import QSeries, _conv_int, _pack_signed, _unpack_signed

# The two normalization notes, indexed by whether the first nonzero
# coefficient in (i, j) box order is negative.  F_n is primitive already,
# so the constant clause says nothing; both stay so output documents are
# byte-stable.
NORMALIZATION_NOTES = (
    "denominators cleared by 1, content 1 removed",
    "denominators cleared by 1, content 1 removed, sign flipped",
)


class NotPrimeLevelError(ValueError):
    """Kronecker congruence is only defined for prime levels >= 5."""


class LevelNotCoprimeTo6Error(ValueError):
    """Coefficient symmetry is only claimed for levels coprime to 6."""


# The largest level a solve accepts.  d1 >= n, so a solve expands w below
# at least q^(n*(n + 1)) whatever n factors into; the bound refuses a huge
# level before any trial-division factoring.
MAX_LEVEL = 1000


class BivarPoly(namedtuple("BivarPoly", "coeffs")):
    """Bivariate integer polynomial as a sparse (i, j) -> coefficient map."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, coeffs: dict[tuple[int, int], int] | None = None):
        return super().__new__(cls, {ij: int(c) for ij, c in (coeffs or {}).items() if c})

    @property
    def degx(self) -> int:
        return max((i for i, _ in self.coeffs), default=0)

    @property
    def degy(self) -> int:
        return max((j for _, j in self.coeffs), default=0)

    def coeff(self, i: int, j: int) -> int:
        return self.coeffs.get((i, j), 0)

    def reduced_mod(self, p: int) -> dict[tuple[int, int], int]:
        return {ij: c % p for ij, c in self.coeffs.items() if c % p}

    def is_symmetric(self) -> bool:
        """Whether the polynomial is unchanged by swapping X and Y."""
        c = self.coeffs
        return all(c.get((j, i), 0) == v for (i, j), v in c.items())


# method is always "crt"; bench/gate.py still passes method="crt"
ModEqResult = namedtuple("ModEqResult", "level d1 d2 poly precision_used nullspace_dim "
                                        "normalization method")


class CoeffPattern(namedtuple("CoeffPattern", "level forced_zero forced_nonzero")):
    """Coefficient positions (i, j) forced to be zero or nonzero, as frozensets."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, level: int, forced_zero: frozenset, forced_nonzero: frozenset):
        if forced_zero & forced_nonzero:
            raise AssertionError("forced zero and nonzero positions overlap")
        return super().__new__(cls, level, forced_zero, forced_nonzero)


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
    """(d1, d2) = total pole degrees of w and w(n*tau) on Gamma0(18n), for
    2 <= n <= MAX_LEVEL."""
    if n < 2:
        raise ValueError("level must be at least 2")
    if n > MAX_LEVEL:
        raise ValueError(f"level must be at most {MAX_LEVEL}")
    ord1, ord2 = _cusp_orders(n)
    return _pole_degree(ord1), _pole_degree(ord2)


def certificate_height(n: int) -> int:
    """floor(2*d1*d2/r) + 1, with r = 6, 3 and 2 cusps at n prime to 6, odd
    n with 3 | n and even n: the height below which residual_series
    certifies the level-n equation once certificate_failure's twist checks
    hold (the module docstring has the proof).  Raises AssertionError
    unless d1 = d2, which the proof needs."""
    d1, d2 = predict_degrees(n)
    if d1 != d2:
        raise AssertionError(f"level {n}: d1 = {d1} differs from d2 = {d2}")
    return 2 * d1 * d2 // (6 if gcd(n, 6) == 1 else 3 if n % 2 else 2) + 1


# Moebius maps t -> (a0 + a1*t)/(b0 + b1*t), as ((a0, a1), (b0, b1))
FRICKE_MAP = ((1, -3), (3, -3))  # M, of W_18n
W2_MAP = ((1, -1), (1, -3))  # M2, of W_2


def involutions(n: int) -> list[tuple[str, tuple | None, bool]]:
    """(name, map, swap) of each involution whose twist certificate_failure
    checks at level n, the O(d^2) swap of W_n first."""
    w_n = [("the Atkin-Lehner involution W_n (X <-> Y)", None, True)] if gcd(n, 6) == 1 else []
    w_2 = [("the Atkin-Lehner involution W_2", W2_MAP, False)] if n % 2 else []
    return w_n + [("the Fricke involution W_18n", FRICKE_MAP, True)] + w_2


def mobius_twist(poly: BivarPoly, d: int, m: tuple | None, swap: bool) -> BivarPoly:
    """H(X, Y) = b(X)^d b(Y)^d P(m(X), m(Y)) for m(t) = a(t)/b(t), given as
    ((a0, a1), (b0, b1)), or m = None, the identity with b = 1; P is poly
    with X and Y swapped when ``swap``, else poly, of bidegree at most
    (d, d).  Row k of A holds the coefficients of t^k in
    a(t)^i b(t)^(d - i), i = 0..d, so A maps g to b(t)^d g(m(t)); with C the
    coefficient matrix of P (row i for X^i), H's is A C A^T, two rounds of
    h -> A h^T, or C itself, O(d^2), when m is None.  Each round packs
    every column of h into one integer of signed slots (series._pack_signed)
    and makes row r of A h^T one linear combination of them with the
    entries of row r of A: (d + 1)^2 products of a big int by a small one.
    A slot of 8*sb bits holds every output, whose absolute value is at most
    max|h| times the largest absolute row sum of A."""
    coeffs = {(j, i) if swap else (i, j): c for (i, j), c in poly.coeffs.items()}
    if m is None:
        return BivarPoly(coeffs)
    cols = []
    for i in range(d + 1):
        p = [1]
        for u0, u1 in [m[0]] * i + [m[1]] * (d - i):  # p * (u0 + u1*t)
            p = [u0 * x + u1 * y for x, y in zip(p + [0], [0] + p)]
        cols.append(p)
    a = list(zip(*cols))
    weight = max(sum(map(abs, row)) for row in a)
    h = [[coeffs.get((i, j), 0) for j in range(d + 1)] for i in range(d + 1)]
    for _ in range(2):
        sb = ((weight * max(1, max(map(abs, chain(*h))))).bit_length() + 8) // 8
        packed = [_pack_signed(line, sb) for line in zip(*h)]
        h = [_unpack_signed(sum(map(mul, row, packed)), d + 1, d + 1, sb) for row in a]
    return BivarPoly({(x, y): v for x, line in enumerate(h) for y, v in enumerate(line)})


def conjugate_traces(n: int) -> list[tuple[int, int, int]]:
    """The power sums of the roots of F_n(X, w(tau)) in X, as triples
    (s, t, c): the sum of the k-th powers of the roots is
    sum of c * sum_u c_(t*u) q^(s*u), where w^k = sum c_m q^m.

    The roots are w((a*tau + b)/d) over hecke_cosets(n).  Summing w^k at
    (a*tau + b)/d over the b prime to e' = gcd(a, d) keeps, by Moebius
    inversion over e | e', the terms q^(a*m/d) with (d/e) | m, each times
    mu(e) * d/e; with m = (d/e)*u that is (s, t, c) = (a/e, d/e,
    mu(e) * d/e).  Raises RuntimeError unless there are
    predict_degrees(n)[1] cosets, the degree of w(tau) over
    C(w(n*tau)).
    """
    cosets = hecke_cosets(n)
    d2 = predict_degrees(n)[1]
    if len(cosets) != d2:
        raise RuntimeError(f"level {n}: {len(cosets)} cosets, but w has degree {d2}")
    return [(a // e, n // a // e, moebius(e) * (n // a // e))
            for a in sorted({a for a, _, _ in cosets})
            for e in divisors(gcd(a, n // a)) if moebius(e)]


def leading_exponent(n: int) -> int:
    """m with F_n = (1 - 3Y)^m prod (X - root): the coefficient of X^d2
    vanishes where a root has a pole, at the cusps of Gamma0(18n) where w
    has a pole and w(n*tau) is regular, and w(n*tau) = 1/3 there."""
    ord1, ord2 = _cusp_orders(n)
    return -sum(o for x, o in ord1.items() if o < 0 and ord2[x] >= 0)


class MonomialMatrix(Sequence):
    """The unknowns of the level-n equation and the expansion of w that a
    solve derives and certifies them from.

    The unknowns are the coefficients of X^i Y^j, (i, j) in ``order``:
    lexicographic, 0 <= i <= d2, 0 <= j <= d1.  ``w`` is the exact
    expansion of w below q^height.  kernel_int_crt reads its power sums
    below q^(n*(d1 + 1)), so a lower height raises ValueError, and
    certifies on it.  No solve builds a matrix.  As a sequence this
    is the exact integer matrix of the monomials W^i V^j, W = w and
    V = w(n*tau): row e holds the coefficients of q^e for e < height, one
    column per unknown.  The rows are built on first read, for a caller
    that inspects the system (bench/tracing.py reads the lift's argument
    as rows).
    """

    def __init__(self, n: int, d1: int, d2: int, height: int):
        if height < n * (d1 + 1):
            raise ValueError(f"height {height} is below q^{n * (d1 + 1)}, "
                             f"which the level-{n} power sums read")
        self.level, self.d1, self.d2, self.height = n, d1, d2, height
        self.order = [(i, j) for i in range(d2 + 1) for j in range(d1 + 1)]
        self.w = named_w().expand(height)
        if self.w.h != 1 or self.w.val < 0:
            raise AssertionError("w must expand in integer powers of q")

    @cached_property
    def _rows(self) -> list[list[int]]:
        powers = [QSeries.one(self.height)]
        for _ in range(max(self.d1, self.d2)):
            powers.append(powers[-1] * self.w)
        shifted = [x.rescale(self.level).truncate(self.height) for x in powers[: self.d1 + 1]]
        cols = [(powers[i] * shifted[j]).truncate(self.height) for i, j in self.order]
        return [list(row) for row in zip(*((0,) * c.val + c.coeffs for c in cols))]

    def __len__(self) -> int:
        return self.height

    def __getitem__(self, e: int) -> list[int]:
        return self._rows[e]


_PRIME_START = (1 << 20) - 1
_MAX_PRIMES = 64
# kernel_int_crt certifies a lift only once 2*max|c| * 2^_MARGIN_BITS < M.
# A lift taken mod too small an M has residues spread up to M/2, so it
# fails this at the cost of one max; with 8 bits, levels 2-40 each certify
# the first lift they check.
_MARGIN_BITS = 8

# Outcome of kernel_int_crt: the lifted integer vector and the number of
# primes it took.
KernelResult = namedtuple("KernelResult", "vector primes_used")


def kernel_primes():
    """The primes kernel_int_crt reduces modulo, in the order it tries them."""
    return primes_below(_PRIME_START)


def _crt_vector(r1: list[int], m1: int, r2: list[int], m2: int) -> list[int]:
    """The residues mod m1*m2 congruent to r1 mod m1 and r2 mod m2, entry by
    entry, with one modular inverse for the whole vector."""
    inv = pow(m1, -1, m2)
    return [a + m1 * ((b - a) * inv % m2) for a, b in zip(r1, r2)]


def kernel_int_crt(matrix: MonomialMatrix) -> KernelResult:
    """F_n as its coefficients in ``matrix.order``, lifted from F_n mod p,
    modp.conjugate_polynomial_mod on the expansion ``matrix.w``.

    F_n has integer coefficients, so the residues mod every prime are
    those of one integer vector.  They are CRT combined prime by prime and
    lifted to symmetric residues in (-M/2, M/2], M the product of the
    primes so far; once M exceeds 2*max|c| the lift is the vector.  When
    the lift clears the margin, 2*max|c| * 2^_MARGIN_BITS < M,
    certificate_failure checks it on ``matrix.w``, and the lift goes on to
    the next prime if the check fails.  The margin only decides when to
    check: the certificate alone accepts a lift.  Raises RuntimeError when
    _MAX_PRIMES primes do not suffice.
    """
    from . import modp  # imported at the first solve, not with the package

    n, order = matrix.level, matrix.order
    w = (0,) * matrix.w.val + matrix.w.coeffs
    traces, m = conjugate_traces(n), leading_exponent(n)
    modulus, residues = 1, None
    for used, p in enumerate(islice(kernel_primes(), _MAX_PRIMES), 1):
        v = modp.conjugate_polynomial_mod(w, n, matrix.d1, matrix.d2, traces, m, p)
        residues = _crt_vector(residues or [0] * len(v), modulus, v, p)
        modulus *= p
        lifted = [r - modulus if 2 * r > modulus else r for r in residues]
        if (2 * max(map(abs, lifted)) << _MARGIN_BITS) < modulus and certificate_failure(
                n, BivarPoly(dict(zip(order, lifted))), matrix.w) is None:
            return KernelResult(lifted, used)
    raise RuntimeError("kernel reconstruction did not converge")


def result_for(n: int, poly: BivarPoly) -> ModEqResult:
    """The result for ``poly`` as the level-n equation; every other field
    follows from n and poly.  The normalization note says "sign flipped"
    exactly when the first nonzero coefficient in (i, j) box order is
    negative, so output documents stay byte-stable."""
    d1, d2 = predict_degrees(n)
    return ModEqResult(
        level=n,
        d1=d1,
        d2=d2,
        poly=poly,
        precision_used=certificate_height(n),
        nullspace_dim=1,
        normalization=NORMALIZATION_NOTES[poly.coeffs[min(poly.coeffs)] < 0],
        method="crt",
    )


def solve_modular_equation(n: int) -> ModEqResult:
    """Derive and certify the level-n modular equation for w: expand w to
    the larger of certificate_height(n) and the n*(d1 + 1) the power sums
    read, lift F_n mod p by kernel_int_crt, which returns only a lift that
    certificate_failure accepts, and build its result.  Raises
    RuntimeError when no lift is certified.
    """
    d1, d2 = predict_degrees(n)
    matrix = MonomialMatrix(n, d1, d2, max(certificate_height(n), n * (d1 + 1)))
    return result_for(n, BivarPoly(dict(zip(matrix.order, kernel_int_crt(matrix).vector))))


def residual_series(poly: BivarPoly, n: int, ws: QSeries) -> QSeries:
    """poly(w, w(n*tau)) below q^ws.prec, by Horner's rule in W, where ws
    is the exact expansion of w, on lists of ints.

    With P_i(Y) = sum_j c_ij Y^j, F = (...(P_d2(V) W + P_(d2-1)(V)) W + ...)
    + P_0(V).  P_i(V) is P_i(w) with q -> q^n, so the inner sums are
    combinations of the powers of w below q^(precision/n); each Horner step
    is one _conv_int product at full length.  Only coefficients with
    0 <= i <= degx, 0 <= j <= degy are read.
    """
    prec = ws.prec
    short = -(-prec // n)
    w = [0] * ws.val + list(ws.coeffs)
    ypow = [[1] + [0] * (short - 1)]
    for _ in range(poly.degy):
        ypow.append(_conv_int(ypow[-1], w, short))
    total = [0] * prec
    for i in range(poly.degx, -1, -1):
        inner = [0] * short
        for j, y in enumerate(ypow):
            c = poly.coeff(i, j)
            if c:
                inner = [a + c * b for a, b in zip(inner, y)]
        total = _conv_int(total, w, prec)
        total[::n] = [a + b for a, b in zip(total[::n], inner)]
    return QSeries(total, prec=prec)


def certificate_failure(n: int, poly: BivarPoly, ws: QSeries | None = None) -> str | None:
    """Why ``poly`` is not the certified level-n equation, or None.

    By shape: every term must lie in the (d2, d1) box of predict_degrees
    and the bidegree must fill it.  Its coefficient of X^d2 must be exactly
    (1 - 3Y)^m, m = leading_exponent(n), as F_n's is; that puts a 1 at
    X^d2 Y^0, so the polynomial is primitive, with a positive leading
    coefficient.  For each of involutions(n), in order, its twist
    H = mobius_twist(poly, d2, map, swap) must be c*poly, c the coefficient
    of H at X^d2 Y^0, nonzero; the certificate_height proof needs that.
    Then its residual must vanish below certificate_height(n).  ``ws`` is
    an exact expansion of w to at least that height, such as the one a
    solve holds; without it, w is expanded here.
    """
    d1, d2 = predict_degrees(n)
    outside = [(i, j) for i, j in poly.coeffs if not (0 <= i <= d2 and 0 <= j <= d1)]
    if outside:
        return f"term at {outside[0]} outside the ({d2}, {d1}) box"
    if (poly.degx, poly.degy) != (d2, d1):
        return f"bidegree ({poly.degx}, {poly.degy}) differs from the predicted ({d2}, {d1})"
    m = leading_exponent(n)
    if ({j: c for (i, j), c in poly.coeffs.items() if i == d2}
            != {j: comb(m, j) * (-3) ** j for j in range(m + 1)}):
        return f"coefficient of X^{d2} is not (1 - 3Y)^{m}"
    for name, t_map, swap in involutions(n):
        twist = mobius_twist(poly, d2, t_map, swap)
        c = twist.coeff(d2, 0)
        if not c or twist != BivarPoly({ij: c * v for ij, v in poly.coeffs.items()}):
            return f"not invariant under {name}"
    height = certificate_height(n)
    if ws is None:
        ws = named_w().expand(height)
    elif ws.prec < height:
        raise ValueError(f"w is known below q^{ws.prec}, under the certificate height {height}")
    if not residual_series(poly, n, ws.truncate(height)).is_zero:
        return "residual F_n(w, w(n*tau)) does not vanish"
    return None


def predict_coefficient_pattern(n: int) -> CoeffPattern:
    """Forced coefficient positions from the cusp orders on Gamma0(18n).

    One rule, for an ordered pair (f, g) of cusp-order maps, F of degree
    ``top`` in f and ``span`` in g.  Let a be minus the f-order summed over
    the f-poles where g has a zero.  The coefficient of f^top g^a is
    nonzero, and it is the only nonzero one of f^top when g has a zero or a
    pole at every f-pole.  Likewise f^0 g^b, b the f-order summed over the
    f-zeros where g has a zero, with the f-zeros in place of the f-poles.
    (w, w(n*tau)) gives the columns i = d2 and i = 0, and (w(n*tau), w),
    transposed, the rows j = d1 and j = 0.
    """
    d1, d2 = predict_degrees(n)
    ord1, ord2 = _cusp_orders(n)
    zero: set[tuple[int, int]] = set()
    nonzero: set[tuple[int, int]] = set()
    for f, g, top, span, at in ((ord1, ord2, d2, d1, lambda e, k: (e, k)),
                                (ord2, ord1, d1, d2, lambda e, k: (k, e))):
        for edge, sign in ((top, -1), (0, 1)):
            cusps = [x for x, o in f.items() if sign * o > 0]
            k = sign * sum(f[x] for x in cusps if g[x] > 0)
            nonzero.add(at(edge, k))
            if all(g[x] for x in cusps):
                zero.update(at(edge, j) for j in range(span + 1) if j != k)
    return CoeffPattern(n, frozenset(zero - nonzero), frozenset(nonzero))


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
    return result.poly.is_symmetric()


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
    return signed_sum((c, " ".join(x for x in (var("X", i), var("Y", j)) if x))
                      for (i, j), c in items)


def signed_sum(terms) -> str:
    """Render (coefficient, monomial) pairs as "a - b + 2 c": a coefficient
    of magnitude one is left out before a nonempty monomial, and the empty
    sum is "0"."""
    out = ""
    for c, body in terms:
        if abs(c) != 1 or not body:
            body = f"{abs(c)} {body}".strip()
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = f"-{body}" if c < 0 else body
    return out or "0"


__all__ = [
    "BivarPoly",
    "ModEqResult",
    "CoeffPattern",
    "NotPrimeLevelError",
    "LevelNotCoprimeTo6Error",
    "predict_degrees",
    "certificate_height",
    "involutions",
    "mobius_twist",
    "MAX_LEVEL",
    "NORMALIZATION_NOTES",
    "result_for",
    "solve_modular_equation",
    "residual_series",
    "certificate_failure",
    "MonomialMatrix",
    "KernelResult",
    "kernel_primes",
    "kernel_int_crt",
    "predict_coefficient_pattern",
    "check_pattern",
    "check_kronecker",
    "check_symmetry",
    "kronecker_frame",
    "extract_inner_factor",
    "format_polynomial",
    "signed_sum",
]
