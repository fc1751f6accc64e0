"""Exact kernels of rational matrices.

nullspace_exact is Gaussian elimination over Fraction with partial
pivoting on the bit length of numerator*denominator, usable on any
rational matrix.  The solver does not call it: the tests compare
modeq.kernel_int_crt against it.  It is deterministic and pure.
"""

from __future__ import annotations

from fractions import Fraction


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


__all__ = ["nullspace_exact"]
