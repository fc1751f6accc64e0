"""Exact kernels of integer/rational matrices.

* kernel_int_crt -- the solver's lift: a relation mod 20-bit primes,
  combined by CRT and rational reconstruction, for a matrix whose
  kernel is known to be one-dimensional;
* nullspace_exact -- Gaussian elimination over Fraction with partial
  pivoting on the bit length of numerator*denominator, usable on any
  rational matrix; the solver does not call it, the tests compare
  kernel_int_crt against it.

kernel_int_crt reads its matrix through two methods only, so a caller can
hand it a matrix that never exists over Z:

* ``kernel_mod(p)`` -- a nonzero vector of residues mod p spanning the
  kernel mod p, as modeq.MonomialMatrix returns F_n mod p;
* ``annihilates(vec)`` -- the exact check of an integer vector.

The reconstructed vector is accepted only when ``annihilates`` passes, so
the result is exact despite the modular detour.  Both functions are
deterministic and pure, and this module does not import numpy.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd

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


def _crt_vector(r1: list[int], m1: int, r2: list[int], m2: int) -> list[int]:
    """The residues mod m1*m2 congruent to r1 mod m1 and r2 mod m2, entry by
    entry, with one modular inverse for the whole vector."""
    inv = pow(m1, -1, m2)
    return [a + m1 * ((b - a) * inv % m2) for a, b in zip(r1, r2)]


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
    """Outcome of kernel_int_crt: a primitive integer kernel vector."""

    def __init__(self, vector: list[int], primes_used: int):
        self.vector = vector
        self.primes_used = primes_used


def kernel_primes():
    """The primes kernel_int_crt reduces modulo, in the order it tries them."""
    return primes_below(_PRIME_START)


def kernel_int_crt(matrix) -> KernelResult:
    """Kernel of an integer matrix of nullity one.

    ``matrix`` is an object with ``kernel_mod(p)`` and ``annihilates(vec)``
    (see the module docstring).  Each prime contributes the residues of
    its vector, scaled to 1 at the first nonzero entry of the first
    prime's vector; these are CRT combined and rationally reconstructed
    until ``annihilates`` accepts the lifted vector.  Reconstruction stops
    at the first entry that fails, since the prime cannot then give a
    vector.  Raises RuntimeError when _MAX_PRIMES primes do not suffice.
    """
    modulus = None
    residues = None
    anchor = None
    for used, p in enumerate(islice(kernel_primes(), _MAX_PRIMES), 1):
        v = matrix.kernel_mod(p)
        if anchor is None:
            anchor = next(k for k, x in enumerate(v) if x)
        if v[anchor] % p == 0:
            continue
        scale = pow(int(v[anchor]), -1, p)
        vp = [(int(x) * scale) % p for x in v]
        if modulus is None:
            residues, modulus = vp, p
        else:
            residues = _crt_vector(residues, modulus, vp, p)
            modulus *= p
        lifted = []
        for r in residues:
            f = _rational_reconstruct(r, modulus)
            if f is None:
                break
            lifted.append(f)
        else:
            ints = _clear_denominators(lifted)
            if matrix.annihilates(ints):
                return KernelResult(ints, used)
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
