"""Exact arithmetic modulo 20-bit primes, on lists of Python ints.

* power_table -- the powers of w mod p;
* conjugate_polynomial_mod -- F_n mod p from the power sums p_k of the
  conjugates w((a*tau + b)/d), with no matrix: Newton's identities give
  the coefficient C_k of X^(d2-k) by one recurrence,
  k C_k = -sum_{i<=k} C_(k-i) p_i, seeded with C_0 = (1 - 3w)^m.

A product of residue series is one int product of Kronecker-packed ints,
in series' slot format (_pack, _unpack); the in-place read-off in
conjugate_polynomial_mod is the format's one other reader.  The slots are
b = _check_slot_bound(terms, p) bytes, the fewest, at most 8, that hold a
sum of ``terms`` products of two residues plus one residue, so none
carries; every function checks before it allocates.  For the first kernel
prime, b is 6 bytes from 2 to 256 terms (level 13's power table has 195),
7 up to 65,536 (level 19's has 399) and 8 up to 16,777,344.

numpy is imported in one place, never with this module: by
_power_table_float64, which power_table calls for a table of length
_NUMPY_LENGTH or more, and which first sets OPENBLAS_NUM_THREADS=1 unless
the variable is set.  modeq imports this module at the first solve, so a
solve loads numpy only at levels whose power table is that long (n = 24
and up), and commands that do not solve never load it.  On the numpy side
the truncated products are float64 convolutions.  The primes are below
2^20, so such a convolution is exact when it sums at most _exact_step(p)
products: every partial sum is then an integer below 2^53.  Longer
products are split into chunks of that many coefficients, each reduced mod
p in int64 before the next.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from math import comb

from .series import _pack, _unpack

# The power-table length n*(d1 + 1) from which power_table multiplies in
# numpy.  Measured on 2 vCPUs, median of 9, F_n mod p per prime on the
# packed route against numpy once imported: 2.0 / 0.7 ms at level 13
# (length 195), 7.0 / 2.4 ms at 19 (399), 15.3 / 3.5 ms at 23 (575),
# 14.4 / 3.3 ms at 24 (600) and 27.6 / 5.9 ms at 25 (775).  Importing
# numpy takes 94-100 ms, and these levels use 3-4 primes, so one solve
# breaks even near length 775.  The crossover sits lower, at the first
# length no level 2-23 reaches, so that a process that solves many levels
# and pays the import once loses at most about 12 ms per prime.
_NUMPY_LENGTH = 600


def _check_slot_bound(terms: int, p: int) -> int:
    """The fewest bytes k <= 8 that hold a sum of ``terms`` products of two
    residues mod p, plus one residue: terms * (p - 1)^2 + p < 2^(8k).
    Raises OverflowError when 8 bytes do not."""
    width = -(-(terms * (p - 1) ** 2 + p).bit_length() // 8)
    if width > 8:
        raise OverflowError(f"{terms} products mod {p} overflow a 64-bit slot")
    return width


def _exact_step(p: int) -> int:
    """The most products of two residues mod p whose float64 sum is exact:
    each product is at most (p - 1)^2, and the sum must stay below 2^53.
    8,192 for the first prime."""
    return ((1 << 53) - 1) // (p - 1) ** 2


def power_table(w: Sequence[int], top: int, length: int, p: int) -> list[list[int]]:
    """w^0, ..., w^top mod p below q^length, as top + 1 lists of residues.

    ``w`` holds the exact coefficients of q^0, q^1, ... of w, at least
    below q^length.  Below _NUMPY_LENGTH, w^e for e >= 2 is
    w^(e//2) * w^(e - e//2) truncated below q^length, one packed product,
    so half the products are squarings, which CPython does in about 0.7
    times the time of a general product at this size; from _NUMPY_LENGTH
    on, each power is the previous one times w, in chunked float64
    convolutions in numpy.  A product sums at most ``length`` products of
    two residues, so _check_slot_bound(length, p) runs first, before
    anything of size ``length`` is allocated, and sizes the slots.
    """
    width = _check_slot_bound(length, p)
    wp = [c % p for c in w[:length]]
    if length >= _NUMPY_LENGTH:
        return _power_table_float64(wp, top, length, p)
    powers = [[1] + [0] * (length - 1), wp + [0] * (length - len(wp))][: top + 1]
    packed = [0, _pack(wp, width)]  # only w^1 .. w^((top + 1)//2) are factors
    for e in range(2, top + 1):
        powers.append([c % p for c in _unpack(packed[e // 2] * packed[e - e // 2], length, width)])
        if e <= (top + 1) // 2:
            packed.append(_pack(powers[-1], width))
    return powers


def _power_table_float64(wp: list[int], top: int, length: int, p: int) -> list[list[int]]:
    """power_table in numpy.  Each power is one float64 convolution per
    _exact_step(p) coefficients of the previous one: each output is then a
    sum of at most that many products, an integer below 2^53 and hence
    exact.  Truncating the full convolution measured faster than splitting
    off the half it throws away, at levels 19 and 25."""
    # One OpenBLAS thread unless the caller chose otherwise: no call below
    # is BLAS, and the worker OpenBLAS starts per extra vCPU on import only
    # costs CPU time (importing numpy and 50 np.convolve calls: a median of
    # 0.25 s CPU with one thread, 0.38 s with two, 2 vCPUs, numpy 2.4).
    # OpenBLAS reads it once, when numpy is first imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np

    b = np.array(wp, dtype=np.float64)
    step = _exact_step(p)
    powers = np.zeros((top + 1, length), dtype=np.int64)
    powers[0, 0] = 1
    for k in range(1, top + 1):
        a = powers[k - 1].astype(np.float64)
        for i in range(0, length, step):
            part = np.convolve(a[i : i + step], b[: length - i])[: length - i]
            powers[k, i:] = (powers[k, i:] + part.astype(np.int64)) % p
    return powers.tolist()


def conjugate_polynomial_mod(w: Sequence[int], n: int, d1: int, d2: int,
                             traces: Sequence[tuple[int, int, int]], m: int,
                             p: int) -> list[int]:
    """F_n = (1 - 3Y)^m prod (X - w((a*tau + b)/d)) mod p, with Y = w, over
    the d2 cosets of modeq.conjugate_traces, as a list in (i, j)
    lexicographic order, 0 <= i <= d2, 0 <= j <= d1: entry (i, j) is the
    coefficient of X^i Y^j.
    The entry at (d2, 0) is 1.

    ``w`` is as for power_table, at least below q^(n*(d1 + 1)); ``traces``
    is modeq.conjugate_traces(n) and ``m`` is modeq.leading_exponent(n).
    With w^k = sum c_r q^r, the power sum of the k-th powers of the roots
    is p_k = sum over traces (s, t, c) of c * sum_u c_(t*u) q^(s*u),
    needed only below q^(d1 + 1): the coefficients of F in X are
    polynomials in Y = w of degree at most d1, and w = q + O(q^2), so
    q^0 .. q^d1 fix them.  Newton's identities are linear in the
    elementary symmetric functions of the roots, so C_k, the coefficient
    of X^(d2-k) as a series in q, obeys k C_k = -sum_{i<=k} C_(k-i) p_i
    from C_0 = (1 - 3w)^m, and k <= d2 < p is invertible mod p.  Each C_k
    is a polynomial sum_j g_j w^j, and g_j is the coefficient of
    X^(d2-k) Y^j.

    Every series below q^(d1 + 1) is packed, in slots of the b bytes that
    _check_slot_bound((d2 + 1)*(d1 + 1), p) returns: it runs first, and a
    slot of a recurrence sum adds at most d2*(d1 + 1) products of two
    residues, every other sum fewer.  The read-off of g_j from C_k works on
    one packed int: it adds (p - g_j) w^j for j = 0, 1, ..., which keeps
    every slot nonnegative.  Slot r then holds a residue plus at most
    r + 1 <= d1 + 1 products of two residues, below 2^(8b), so no slot
    carries, and slot j, bits 8*b*j up to 8*b*(j + 1), is final, equal to
    g_j mod p, once the terms for i < j are in, since w^i = q^i + O(q^(i+1)).
    """
    size = d1 + 1
    width = _check_slot_bound((d2 + 1) * size, p)
    if [c % p for c in w[:2]] != [0, 1]:
        raise ValueError("w must be q + O(q^2)")
    powers = power_table(w, max(d1, d2), n * size, p)
    sums = [0]
    for k in range(1, d2 + 1):
        row = [0] * size
        for s, t, c in traces:
            u = d1 // s + 1
            row[: s * u : s] = [x + c * y for x, y in zip(row[: s * u : s], powers[k][: t * u : t])]
        sums.append(_pack([x % p for x in row], width))
    # C_0 = (1 - 3w)^m = sum_i C(m, i) (-3)^i w^i below q^size, m < d2; it
    # packs to the int 1 when m = 0
    coeffs = [_pack([sum(comb(m, i) * (-3) ** i * powers[i][r] for i in range(m + 1)) % p
                     for r in range(size)], width)]
    for k in range(1, d2 + 1):
        acc = sum(coeffs[k - i] * sums[i] for i in range(1, k + 1))
        scale = p - pow(k, -1, p)
        coeffs.append(_pack([x * scale % p for x in _unpack(acc, size, width)], width))
    basis = [_pack(row[:size], width) for row in powers[:size]]
    bits = 8 * width
    mask = (1 << bits) - 1
    out = []
    for acc in reversed(coeffs):
        for j in range(size):
            g = (acc >> (bits * j) & mask) % p
            out.append(g)
            if g:
                acc += (p - g) * basis[j]
    return out


__all__ = ["power_table", "conjugate_polynomial_mod"]
