"""Exact kernels of integer/rational matrices.

* kernel_int_crt -- the solver's lift: one integer vector from its
  residues mod 20-bit primes, combined by CRT and read as symmetric
  residues, for a matrix whose kernel is known to be one-dimensional;
* nullspace_exact -- Gaussian elimination over Fraction with partial
  pivoting on the bit length of numerator*denominator, usable on any
  rational matrix; the solver does not call it, the tests compare
  kernel_int_crt against it.

kernel_int_crt reads its matrix through two methods only, so a caller can
hand it a matrix that never exists over Z:

* ``kernel_mod(p)`` -- the residues mod p of one integer vector, as
  Python ints, the same for every p, as modeq.MonomialMatrix returns F_n
  mod p;
* ``annihilates(vec)`` -- whether an integer vector is certified, which
  modeq.MonomialMatrix decides by modeq.certificate_failure alone.

The lifted vector is accepted only when ``annihilates`` passes, so the
result is exact despite the modular detour.  Both functions are
deterministic and pure, and this module does not import numpy.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import islice

from .arith import primes_below

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


# Outcome of kernel_int_crt: the lifted integer vector and the number of
# primes it took.
KernelResult = namedtuple("KernelResult", "vector primes_used")


def kernel_primes():
    """The primes kernel_int_crt reduces modulo, in the order it tries them."""
    return primes_below(_PRIME_START)


def kernel_int_crt(matrix) -> KernelResult:
    """The integer vector whose residues ``matrix.kernel_mod(p)`` returns.

    ``matrix`` is an object with ``kernel_mod(p)`` and ``annihilates(vec)``
    (see the module docstring).  The residues are CRT combined prime by
    prime and lifted to symmetric residues in (-M/2, M/2], M the product
    of the primes so far; once M exceeds 2*max|c| the lift is the vector.
    When a prime leaves the lift unchanged, ``annihilates`` checks it, and
    the lift goes on to the next prime if the check fails.  Raises
    RuntimeError when _MAX_PRIMES primes do not suffice.
    """
    modulus, residues, lifted = 1, None, None
    for used, p in enumerate(islice(kernel_primes(), _MAX_PRIMES), 1):
        v = matrix.kernel_mod(p)
        residues = _crt_vector(residues or [0] * len(v), modulus, v, p)
        modulus *= p
        previous, lifted = lifted, [r - modulus if 2 * r > modulus else r for r in residues]
        if lifted == previous and matrix.annihilates(lifted):
            return KernelResult(lifted, used)
    raise RuntimeError("kernel reconstruction did not converge")


__all__ = ["nullspace_exact", "kernel_int_crt", "kernel_primes", "KernelResult"]
