"""Exact arithmetic modulo 20-bit primes, in numpy arrays.

This is the only module of the package that imports numpy.
modeq.MonomialMatrix imports it when it first reduces mod p, so numpy,
and with it OpenBLAS, is loaded by the first solve, and commands that do
not solve never load it.

* power_table -- the powers of w mod p, by exact float64 convolutions;
* conjugate_polynomial_mod -- F_n mod p from the power sums of the
  conjugates w((a*tau + b)/d) and Newton's identities, with no matrix;
* monomial_matrix_mod -- the monomial matrix of modeq reduced mod p, from
  the exact expansion of w, in int64.

The primes are below 2^20, so a convolution of residues is exact in
float64 when it sums at most _exact_step(p) products: every partial sum
is then an integer below 2^53.  Longer products are split into chunks of
that many coefficients, each reduced mod p in int64 before the next.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

import numpy as np


def _check_int64_bound(terms: int, p: int) -> None:
    """Raise unless a sum of ``terms`` products of two residues mod p, plus
    one residue, fits in int64: terms * (p - 1)^2 + p < 2^63."""
    if terms * (p - 1) ** 2 + p >= 1 << 63:
        raise OverflowError(f"{terms} products mod {p} overflow int64")


def _exact_step(p: int) -> int:
    """The most products of two residues mod p whose float64 sum is exact:
    each product is at most (p - 1)^2, and the sum must stay below 2^53.
    8,192 for the first prime."""
    return ((1 << 53) - 1) // (p - 1) ** 2


def power_table(w: Sequence[int], top: int, length: int, p: int) -> np.ndarray:
    """w^0, ..., w^top mod p below q^length, shape (top + 1, length).

    ``w`` holds the exact coefficients of q^0, q^1, ... of w, at least
    below q^length.  Each power is the previous one times w, by
    _mul_trunc.  The callers sum up to ``length`` products of two entries
    in int64, so _check_int64_bound(length, p) runs first, before anything
    of size ``length`` is allocated.
    """
    _check_int64_bound(length, p)
    wp = np.array([c % p for c in w[:length]], dtype=np.float64)
    powers = np.zeros((top + 1, length), dtype=np.int64)
    powers[0, 0] = 1
    for k in range(1, top + 1):
        powers[k] = _mul_trunc(powers[k - 1].astype(np.float64), wp, p)
    return powers


def _mul_trunc(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a*b mod p below q^len(a), for float64 residue arrays of equal length,
    as int64.  One float64 convolution per _exact_step(p) coefficients of a:
    each output is then a sum of at most that many products, an integer
    below 2^53 and hence exact.  Truncating the full convolution measured
    faster than splitting off the half it throws away, at levels 19 and
    25."""
    n = len(a)
    step = _exact_step(p)
    out = np.zeros(n, dtype=np.int64)
    for k in range(0, n, step):
        part = np.convolve(a[k : k + step], b[: n - k])[: n - k]
        out[k:] = (out[k:] + part.astype(np.int64)) % p
    return out


def monomial_matrix_mod(w: Sequence[int], n: int, d1: int, d2: int, height: int,
                        p: int) -> np.ndarray:
    """The monomial matrix of modeq.MonomialMatrix mod p, shape (height,
    (d1 + 1) * (d2 + 1)), entries in [0, p).

    ``w`` holds the exact coefficients of q^0, q^1, ... of w, at least
    below q^height.  Row e holds the coefficients of q^e; column (i, j),
    in (i, j) lexicographic order, is W^i V^j with W = w and V = w(q^n).
    The powers W^k mod p come from power_table.  V^j is nonzero only at
    multiples of n, so column (i, j) is a sum of about height/n shifted
    copies of W^i scaled by coefficients of w^j.  No sum has more than
    height products of two residues, so _check_int64_bound(height, p),
    which power_table runs first, keeps them exact.
    """
    h = height
    powers = power_table(w, max(d1, d2), h, p)
    wblock = powers[: d2 + 1]
    out = np.empty((h, (d1 + 1) * (d2 + 1)), dtype=np.int64)
    for j in range(d1 + 1):
        acc = np.zeros_like(wblock)
        vj = powers[j, : -(-h // n)]
        for t in np.nonzero(vj)[0]:
            s = n * int(t)
            acc[:, s:] += vj[t] * wblock[:, : h - s]
        out[:, j :: d1 + 1] = (acc % p).T
    return out


def conjugate_polynomial_mod(w: Sequence[int], n: int, d1: int, d2: int,
                             traces: Sequence[tuple[int, int, int]], m: int,
                             p: int) -> np.ndarray:
    """F_n = (1 - 3Y)^m prod (X - w((a*tau + b)/d)) mod p, with Y = w, over
    the d2 cosets of modeq.conjugate_traces, as a vector in the column order
    of monomial_matrix_mod: entry (i, j) is the coefficient of X^i Y^j.
    The entry at (d2, 0) is 1.

    ``w`` is as for power_table, at least below q^(n*(d1 + 1)); ``traces``
    is modeq.conjugate_traces(n) and ``m`` is modeq.leading_exponent(n).
    With w^k = sum c_r q^r, the power sum of the k-th powers of the roots
    is p_k = sum over traces (s, t, c) of c * sum_u c_(t*u) q^(s*u),
    needed only below q^(d1 + 1): the coefficients of F in X are
    polynomials in Y = w of degree at most d1, and w = q + O(q^2), so
    q^0 .. q^d1 fix them.  Newton's identities
    k e_k = sum_{i<=k} (-1)^(i-1) e_(k-i) p_i, with k <= d2 < p, give the
    elementary symmetric functions e_k of the roots; (1 - 3w)^m e_k is a
    polynomial in w, read off by triangular subtraction of the powers of
    w, and the coefficient of X^(d2-k) is (-1)^k times it.
    """
    size = d1 + 1
    powers = power_table(w, max(d1, d2), n * size, p)
    if powers[1, 0] or powers[1, 1] != 1:
        raise ValueError("w must be q + O(q^2)")
    sums = np.zeros((d2 + 1, size), dtype=np.int64)
    for s, t, c in traces:
        u = d1 // s + 1
        sums[:, : s * u : s] += c * powers[: d2 + 1, : t * u : t]
    # Newton's identities: a coefficient of e_k is a sum of at most
    # k * size products of two residues
    _check_int64_bound(d2 * size, p)
    sums[2::2] = -sums[2::2]
    sums %= p
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    toeplitz = np.where(lag >= 0, sums[:, np.maximum(lag, 0)], 0)
    elem = np.zeros((d2 + 1, size), dtype=np.int64)
    elem[0, 0] = 1
    for k in range(1, d2 + 1):
        acc = np.einsum("imr,ir->m", toeplitz[1 : k + 1], elem[k - 1 :: -1])
        elem[k] = acc % p * pow(k, -1, p) % p
    if m:
        # times (1 - 3w)^m = sum_i C(m, i) (-3)^i w^i, m < d2, below q^size
        binomials = np.array([comb(m, i) * (-3) ** i % p for i in range(m + 1)])
        lead = binomials @ powers[: m + 1, :size] % p
        elem = elem @ np.where(lag >= 0, lead[np.maximum(lag, 0)], 0).T % p
    grid = np.zeros((d2 + 1, size), dtype=np.int64)
    for j in range(size):
        grid[::-1, j] = elem[:, j]
        elem = (elem - np.outer(elem[:, j], powers[j, :size])) % p
    grid[d2 - 1 :: -2] = -grid[d2 - 1 :: -2] % p
    return grid.ravel()


__all__ = ["power_table", "monomial_matrix_mod", "conjugate_polynomial_mod"]
