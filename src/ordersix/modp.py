"""Exact arithmetic modulo 20-bit primes, in numpy arrays.

This is the only module of the package that imports numpy.
linalg.kernel_int_crt and modeq.MonomialMatrix.mod import it when called,
so numpy, and with it OpenBLAS, is loaded by the first solve, and commands
that do not solve never load it.

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


def monomial_matrix_mod(w: Sequence[int], n: int, d1: int, d2: int, height: int,
                        p: int) -> np.ndarray:
    """The monomial matrix of modeq.MonomialMatrix mod p, shape (height,
    (d1 + 1) * (d2 + 1)), entries in [0, p).

    ``w`` holds the exact coefficients of q^0, q^1, ... of w, at least
    below q^height.  Row e holds the coefficients of q^e; column (i, j),
    in (i, j) lexicographic order, is W^i V^j with W = w and V = w(q^n).
    The powers W^k mod p come from truncated convolutions with w.  V^j is
    nonzero only at multiples of n, so column (i, j) is a sum of about
    height/n shifted copies of W^i scaled by coefficients of w^j.  No sum
    has more than height products of two residues, so
    _check_int64_bound(height, p) keeps them exact.
    """
    h = height
    _check_int64_bound(h, p)
    wp = np.array([c % p for c in w[:h]], dtype=np.int64)
    powers = np.zeros((max(d1, d2) + 1, h), dtype=np.int64)
    powers[0, 0] = 1
    for k in range(1, len(powers)):
        powers[k] = np.convolve(powers[k - 1], wp)[:h] % p
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


_BLOCK_ROWS = 32


def _gemm_step(p: int) -> int:
    """The largest inner dimension at which a float64 GEMM of residues mod p
    is exact: each product is at most (p - 1)^2, and the sum must stay
    below 2^53.  8,192 for the first prime."""
    return ((1 << 53) - 1) // (p - 1) ** 2


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


__all__ = ["monomial_matrix_mod"]
