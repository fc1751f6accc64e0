"""Exact arithmetic modulo 20-bit primes, in numpy arrays.

This is the only module of the package that imports numpy.
modeq.MonomialMatrix imports it when it first reduces mod p, so numpy,
and with it OpenBLAS, is loaded by the first solve, and commands that do
not solve never load it.

* power_table -- the powers of w mod p, by exact float64 convolutions;
* conjugate_polynomial_mod -- F_n mod p at levels prime to 6, from the
  power sums of the conjugates of w(n*tau) and Newton's identities, with
  no matrix;
* monomial_matrix_mod -- the monomial matrix of modeq reduced mod p, from
  the exact expansion of w, in int64;
* _kernel_mod -- the right kernel of a residue matrix mod p.

The kernel mod p comes from the reduced row echelon form, computed by
blocked Gauss-Jordan elimination (as in FFPACK, Dumas, Giorgi and Pernet):
rows are taken _BLOCK_ROWS at a time, and the work outside a small
per-pivot loop is two matrix products mod p per block.  Only the free
columns of the reduced form are stored, so the kernel basis is read off
with no back-substitution.  The primes are below 2^20, so, as in FFLAS, a
product is a plain float64 GEMM on the residues: _gemm_step(p) columns of
the inner dimension at a time, every partial sum is an integer below 2^53
and hence exact, and it is reduced mod p in int64 before the next chunk.
The convolutions of power_table are exact in float64 the same way.
Reduced row echelon form mod p is unique, so the kernel vectors do not
depend on the block size.  The package runs these thin products on one
OpenBLAS thread by default (see ordersix/__init__.py), a default that holds
only when numpy is first imported after ordersix.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _check_int64_bound(terms: int, p: int) -> None:
    """Raise unless a sum of ``terms`` products of two residues mod p, plus
    one residue, fits in int64: terms * (p - 1)^2 + p < 2^63."""
    if terms * (p - 1) ** 2 + p >= 1 << 63:
        raise OverflowError(f"{terms} products mod {p} overflow int64")


def _gemm_step(p: int) -> int:
    """The largest inner dimension at which a float64 GEMM of residues mod p
    is exact: each product is at most (p - 1)^2, and the sum must stay
    below 2^53.  8,192 for the first prime."""
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
    as int64.  One float64 convolution per _gemm_step(p) coefficients of a:
    each output is then a sum of at most that many products, an integer
    below 2^53 and hence exact.  Truncating the full convolution measured
    faster than splitting off the half it throws away, at levels 19 and
    25."""
    n = len(a)
    step = _gemm_step(p)
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
                             traces: Sequence[tuple[int, int, int]], p: int) -> np.ndarray:
    """F_n = prod (Y - w((a*tau + b)/d)) mod p, over the d1 cosets of the
    level-n Hecke double coset, as a vector in the column order of
    monomial_matrix_mod: entry (i, j) is the coefficient of X^i Y^j, with
    X = w.  The entry at (0, d1) is 1 and precedes every other nonzero.

    ``w`` is as for power_table, at least below q^(n*(d2 + 1)); ``traces``
    is modeq.conjugate_traces(n).  With w^k = sum c_m q^m, the power sum
    of the k-th powers of the conjugates is
    p_k = sum over traces (s, t, c) of c * sum_u c_(t*u) q^(s*u), needed
    only below q^(d2 + 1): the coefficients of F in Y are polynomials in
    w of degree at most d2, and w = q + O(q^2), so q^0 .. q^d2 fix them.
    Newton's identities k e_k = sum_{i<=k} (-1)^(i-1) e_(k-i) p_i, with
    k <= d1 < p, give the elementary symmetric functions e_k, and
    triangular subtraction of the powers of w writes each as a polynomial
    in w: the coefficient of Y^(d1-k) is (-1)^k e_k.
    """
    size = d2 + 1
    powers = power_table(w, max(d1, d2), n * size, p)
    if powers[1, 0] or powers[1, 1] != 1:
        raise ValueError("w must be q + O(q^2)")
    sums = np.zeros((d1 + 1, size), dtype=np.int64)
    for s, t, c in traces:
        u = d2 // s + 1
        sums[:, : s * u : s] += c * powers[: d1 + 1, : t * u : t]
    # Newton's identities: a coefficient of e_k is a sum of at most
    # k * size products of two residues
    _check_int64_bound(d1 * size, p)
    sums[2::2] = -sums[2::2]
    sums %= p
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    toeplitz = np.where(lag >= 0, sums[:, np.maximum(lag, 0)], 0)
    elem = np.zeros((d1 + 1, size), dtype=np.int64)
    elem[0, 0] = 1
    for k in range(1, d1 + 1):
        acc = np.einsum("imr,ir->m", toeplitz[1 : k + 1], elem[k - 1 :: -1])
        elem[k] = acc % p * pow(k, -1, p) % p
    grid = np.zeros((size, d1 + 1), dtype=np.int64)
    for i in range(size):
        grid[i, ::-1] = elem[:, i]
        elem = (elem - np.outer(elem[:, i], powers[i, :size])) % p
    grid[:, d1 - 1 :: -2] = -grid[:, d1 - 1 :: -2] % p
    return grid.ravel()


_BLOCK_ROWS = 32


def _sub_matmul_mod(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(c - a @ b) mod p for residue matrices, exactly, one float64 GEMM per
    _gemm_step(p) columns of the inner dimension."""
    step = _gemm_step(p)
    for k in range(0, a.shape[1], step):
        prod = a[:, k : k + step].astype(np.float64) @ b[k : k + step].astype(np.float64)
        c = (c - prod.astype(np.int64)) % p
    return c


def _rref_block(b: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Gauss-Jordan on a few residue rows, in place.

    Returns the pivot columns and the nonzero rows of the reduced form,
    row r with a unit at column pivots[r] and zeros in the other pivot
    columns.  Rows at and below r are zero left of the search column c,
    so the search jumps to the first column with a nonzero among them.
    """
    pivots: list[int] = []
    r = c = 0
    nrows = b.shape[0]
    while r < nrows:
        hot = np.flatnonzero(b[r:, c:].any(axis=0))
        if hot.size == 0:
            break
        c += int(hot[0])
        i = r + int(np.flatnonzero(b[r:, c])[0])
        if i != r:
            b[[r, i]] = b[[i, r]]
        b[r, c:] = b[r, c:] * pow(int(b[r, c]), -1, p) % p
        idx = np.flatnonzero(b[:, c])
        idx = idx[idx != r]
        if idx.size:
            b[idx, c:] = (b[idx, c:] - np.outer(b[idx, c], b[r, c:])) % p
        pivots.append(c)
        r += 1
        c += 1
    return pivots, b[:r]


def _rref_mod(mat: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon form of mat mod p, stored on its free columns.

    Returns (pivots, free, t): the row space of mat mod p is spanned by the
    rows with a unit at column pivots[r], zeros at the other pivot columns
    and t[r] at the free columns, which are in increasing order.  Rows are
    taken _BLOCK_ROWS at a time; each block is reduced by the pivots so far
    with one product mod p, then by itself, and its new pivot rows are
    eliminated from the earlier ones with a second product.  Pivots only
    ever join (a column independent of the columns left of it stays so
    when rows are added), so t shrinks in width as the rank grows.
    """
    ncols = mat.shape[1]
    pivots = np.zeros(0, dtype=np.intp)
    free = np.arange(ncols)
    t = np.zeros((0, ncols), dtype=np.int64)
    for start in range(0, mat.shape[0], _BLOCK_ROWS):
        if free.size == 0:
            break
        block = mat[start : start + _BLOCK_ROWS] % p
        new, rows = _rref_block(_sub_matmul_mod(block[:, free], block[:, pivots], t, p), p)
        if not new:
            continue
        keep = np.ones(free.size, dtype=bool)
        keep[new] = False
        s = rows[:, keep]
        t = np.concatenate([_sub_matmul_mod(t[:, keep], t[:, new], s, p), s])
        pivots = np.concatenate([pivots, free[new]])
        free = free[keep]
    return pivots, free, t


def _kernel_mod(mat: np.ndarray, p: int) -> list[np.ndarray]:
    """Right kernel basis mod p, one vector per free column: 1 there, 0 at
    the other free columns and minus the reduced row at the pivots."""
    pivots, free, t = _rref_mod(mat, p)
    basis = np.zeros((mat.shape[1], free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -t % p
    return list(basis.T)


__all__ = ["power_table", "monomial_matrix_mod", "conjugate_polynomial_mod"]
