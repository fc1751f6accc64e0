"""Exact kernels of integer/rational matrices.

* kernel_int_crt -- the solver's kernel: row reduction modulo 20-bit primes
  combined by CRT and rational reconstruction, for integer matrices whose
  kernel is expected to be one-dimensional;
* nullspace_exact -- Gaussian elimination over Fraction with partial
  pivoting on the bit length of numerator*denominator, usable on any
  rational matrix; the solver does not call it, the tests compare
  kernel_int_crt against it.

kernel_int_crt reads its matrix only through reductions mod p and one
exact acceptance check (``mod(p)`` and ``annihilates(vec)``), so a caller
can hand it a matrix that never exists over Z.  It certifies its output:
a prime with nullity k bounds the rational nullity by k from above, and
the reconstructed vector is accepted only when the exact check passes, so
the result is exact despite the modular detour.  Both functions are
deterministic and pure.

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
depend on the block size.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd

import numpy as np

from .arith import integer_sqrt_bound, primes_below

_PRIME_START = (1 << 20) - 1
_MAX_PRIMES = 64


def nullspace_exact(rows: list[list]) -> list[list[Fraction]]:
    """Basis of the right kernel over Q, by fraction elimination.

    Pivots are chosen to minimize bit growth: among candidates in the pivot
    column, the entry with the smallest |numerator|*denominator bit length
    wins, lowest row index breaking ties.
    """
    if not rows:
        return []
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        best = None
        best_bits = None
        for i in range(r, nrows):
            x = m[i][c]
            if x:
                bits = (abs(x.numerator) * x.denominator).bit_length()
                if best_bits is None or bits < best_bits:
                    best, best_bits = i, bits
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_of_col[c] = r
        r += 1
        if r == nrows:
            break
    free_cols = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for c, pr in pivot_of_col.items():
            v[c] = -m[pr][fc]
        basis.append(v)
    return basis


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


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    t = ((r2 - r1) * pow(m1, -1, m2)) % m2
    return r1 + m1 * t, m1 * m2


def _rational_reconstruct(x: int, m: int) -> Fraction | None:
    """num/den with x*den == num (mod m) and |num|, den <= sqrt(m/2)."""
    bound = integer_sqrt_bound(m)
    r0, r1 = m, x % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if gcd(num, den) != 1 or (num - x * den) % m != 0:
        return None
    return Fraction(num, den)


class KernelResult:
    """Outcome of kernel_int_crt: the certified dimension, and when the
    dimension is one, a primitive integer kernel vector."""

    def __init__(self, dimension: int, vector: list[int] | None, primes_used: int):
        self.dimension = dimension
        self.vector = vector
        self.primes_used = primes_used


def kernel_primes():
    """The primes kernel_int_crt reduces modulo, in the order it tries them."""
    return primes_below(_PRIME_START)


def kernel_int_crt(matrix) -> KernelResult:
    """Kernel of an integer matrix expected to have nullity one.

    ``matrix`` is an object with ``mod(p)`` (the matrix reduced mod p as an
    int64 array) and ``annihilates(vec)`` (the exact check of an integer
    vector).  Each good prime certifies an upper bound on the rational
    nullity; when that bound is one, residues of the normalized kernel
    vector are CRT combined and rationally reconstructed until
    ``annihilates`` accepts the lifted vector.  Raises RuntimeError when
    _MAX_PRIMES primes do not suffice.
    """
    modulus = None
    residues = None
    anchor = None
    dims_seen = []
    for used, p in enumerate(islice(kernel_primes(), _MAX_PRIMES), 1):
        kern = _kernel_mod(matrix.mod(p), p)
        dims_seen.append(len(kern))
        if len(kern) == 0:
            return KernelResult(0, None, used)
        if len(kern) != 1:
            # possibly an unlucky prime; give it two more chances
            if len(dims_seen) >= 3 and min(dims_seen) >= 2:
                return KernelResult(min(dims_seen), None, used)
            continue
        v = kern[0]
        if anchor is None:
            nz = np.nonzero(v)[0]
            anchor = int(nz[0])
        if v[anchor] % p == 0:
            continue
        scale = pow(int(v[anchor]), -1, p)
        vp = [(int(x) * scale) % p for x in v]
        if modulus is None:
            residues, modulus = vp, p
        else:
            residues = [
                _crt_pair(r1, modulus, r2, p)[0] for r1, r2 in zip(residues, vp)
            ]
            modulus *= p
        lifted = [_rational_reconstruct(r, modulus) for r in residues]
        if any(f is None for f in lifted):
            continue
        ints = _clear_denominators(lifted)
        if matrix.annihilates(ints):
            return KernelResult(1, ints, used)
    raise RuntimeError("kernel reconstruction did not converge")


def _clear_denominators(vec: list[Fraction]) -> list[int]:
    denom = 1
    for f in vec:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return [x // g for x in ints] if g else ints


__all__ = ["nullspace_exact", "kernel_int_crt", "kernel_primes", "KernelResult"]
