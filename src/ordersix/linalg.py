"""Exact kernels of integer/rational matrices.

* kernel_int_crt -- the solver's kernel: row reduction modulo 30-bit primes
  (vectorized with numpy) combined by CRT and rational reconstruction, for
  integer matrices whose kernel is expected to be one-dimensional;
* nullspace_exact -- Gaussian elimination over Fraction with partial
  pivoting on the bit length of numerator*denominator, usable on any
  rational matrix; the solver does not call it, the tests compare
  kernel_int_crt against it.

kernel_int_crt reads its matrix only through reductions mod p and one
exact acceptance check (``mod(p)`` and ``annihilates(vec)``), so a caller
can hand it a matrix that never exists over Z; plain integer rows are
wrapped in IntMatrix.  It certifies its output: a prime with nullity k
bounds the rational nullity by k from above, and the reconstructed vector
is accepted only when the exact check passes, so the result is exact
despite the modular detour.  Both functions are deterministic and pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .arith import integer_sqrt_bound, primes_below

_PRIME_START = (1 << 30) - 1


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


def _echelon_mod(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Forward elimination mod p; returns the reduced matrix and pivot cols."""
    m = mat % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r, c:] = (m[r, c:] * inv) % p
        below = m[r + 1 :, c]
        hot = np.nonzero(below)[0]
        if hot.size:
            idx = hot + r + 1
            m[idx, c:] = (m[idx, c:] - np.outer(m[idx, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def _kernel_mod(mat: np.ndarray, p: int) -> list[np.ndarray]:
    """Right kernel basis mod p (one vector per free column).

    Back-substitution runs for all free columns at once.  acc[r] holds the
    sum of m[r, c] * v[c] over the columns assigned so far, reduced after
    every update; entries of m, v and acc are below p < 2^30, so each
    update stays below p^2 + p < 2^61.
    """
    m, pivots = _echelon_mod(mat, p)
    ncols = m.shape[1]
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    acc = m[: len(pivots), free].copy()
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        basis[c] = (-acc[r]) % p
        acc[:r] = (acc[:r] + np.outer(m[:r, c], basis[c])) % p
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


class IntMatrix:
    """Plain integer rows seen through the interface kernel_int_crt reads."""

    def __init__(self, rows: list[list[int]]):
        self.rows = rows

    def mod(self, p: int) -> np.ndarray:
        return np.array([[x % p for x in row] for row in self.rows], dtype=np.int64)

    def annihilates(self, vec: list[int]) -> bool:
        if not any(vec):
            return False
        return all(sum(a * b for a, b in zip(row, vec) if b) == 0 for row in self.rows)


def kernel_primes():
    """The primes kernel_int_crt reduces modulo, in the order it tries them."""
    return primes_below(_PRIME_START)


def kernel_int_crt(matrix, max_primes: int = 64) -> KernelResult:
    """Kernel of an integer matrix expected to have nullity one.

    ``matrix`` is either a list of integer rows or an object with
    ``mod(p)`` (the matrix reduced mod p as an int64 array) and
    ``annihilates(vec)`` (the exact check of an integer vector).  Each good
    prime certifies an upper bound on the rational nullity; when that bound
    is one, residues of the normalized kernel vector are CRT combined and
    rationally reconstructed until ``annihilates`` accepts the lifted
    vector.
    """
    if not hasattr(matrix, "mod"):
        matrix = IntMatrix(matrix)
    modulus = None
    residues = None
    anchor = None
    dims_seen = []
    used = 0
    for p in kernel_primes():
        used += 1
        if used > max_primes:
            raise RuntimeError("kernel reconstruction did not converge")
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
    raise RuntimeError("prime supply exhausted")


def _clear_denominators(vec: list[Fraction]) -> list[int]:
    denom = 1
    for f in vec:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return [x // g for x in ints] if g else ints


__all__ = ["nullspace_exact", "kernel_int_crt", "kernel_primes", "IntMatrix", "KernelResult"]
