import random
from fractions import Fraction

import numpy as np

from ordersix import linalg
from ordersix.linalg import kernel_int_crt, kernel_primes, nullspace_exact

from helpers import back_substitute, primitive


def rand_matrix_with_kernel(rng, rows, cols, mag=50):
    """Random integer matrix whose kernel contains a planted vector; the
    planted combination makes the last column dependent on the others."""
    body = [[rng.randint(-mag, mag) for _ in range(cols - 1)] for _ in range(rows)]
    ts = [rng.randint(-5, 5) for _ in range(cols - 1)]
    m = []
    for row in body:
        last = sum(t * x for t, x in zip(ts, row))
        m.append(row + [last])
    kernel = ts + [-1]
    return m, kernel


def test_exact_nullspace_known_small_case():
    m = [[1, 2, 3], [2, 4, 6]]
    basis = nullspace_exact(m)
    assert len(basis) == 2
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_exact_nullspace_full_rank():
    assert nullspace_exact([[1, 0], [0, 1], [3, 5]]) == []


def test_exact_handles_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    basis = nullspace_exact(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_crt_kernel_matches_exact_on_planted_kernels():
    rng = random.Random(6021)
    for _ in range(30):
        rows = rng.randint(6, 18)
        cols = rng.randint(3, min(rows, 9))
        m, planted = rand_matrix_with_kernel(rng, rows, cols)
        exact = nullspace_exact(m)
        crt = kernel_int_crt(m)
        if len(exact) == 1:
            assert crt.dimension == 1
            assert primitive(crt.vector) == primitive(exact[0])
            assert primitive(crt.vector) == primitive(planted)
        else:
            assert crt.dimension == len(exact)


def test_crt_kernel_huge_kernel_vector():
    rng = random.Random(17)
    cols = 5
    body = [[rng.randint(-50, 50) for _ in range(cols - 1)] for _ in range(10)]
    ts = [rng.randint(10 ** 39, 10 ** 40) for _ in range(cols - 1)]
    m = [row + [sum(t * x for t, x in zip(ts, row))] for row in body]
    planted = ts + [-1]
    out = kernel_int_crt(m)
    assert out.dimension == 1
    assert primitive(out.vector) == primitive(planted)
    assert out.primes_used > 1


def test_crt_kernel_zero_dimension():
    rng = random.Random(23)
    m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(8)]
    exact = nullspace_exact(m)
    out = kernel_int_crt(m)
    assert out.dimension == len(exact) == 0
    assert out.vector is None


def test_crt_kernel_rational_vector_reconstruction():
    # kernel vector with large prime denominators relative to the anchor
    m = [[10007, 10009, 0], [0, 10009, -10007]]
    out = kernel_int_crt(m)
    assert out.dimension == 1
    v = out.vector
    for row in m:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_kernel_mod_matches_loop_back_substitution():
    """The vectorized back-substitution gives bit-identical kernel vectors
    to one exact dot product per pivot row, with several free columns and
    ranks high enough that unreduced sums of residues near p would overflow
    int64."""
    rng = random.Random(31)
    p = next(kernel_primes())
    for _ in range(12):
        rows, cols = rng.randint(3, 60), rng.randint(4, 64)
        rank = rng.randint(1, min(rows, cols))
        left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
        mat = np.array(
            [[sum(a * b for a, b in zip(lr, col)) % p for col in zip(*right)] for lr in left],
            dtype=np.int64,
        )
        echelon, pivots = linalg._echelon_mod(mat, p)
        expected = back_substitute(echelon.tolist(), pivots, p)
        got = [v.tolist() for v in linalg._kernel_mod(mat, p)]
        assert got == expected
        for v in got:
            assert not (mat.astype(object).dot(v) % p).any()
