import random
from fractions import Fraction

import pytest

from ordersix import linalg
from ordersix.linalg import kernel_int_crt, nullspace_exact

from helpers import IntMatrix, primitive


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
        assert len(exact) == 1
        crt = kernel_int_crt(IntMatrix(m))
        assert primitive(crt.vector) == primitive(exact[0])
        assert primitive(crt.vector) == primitive(planted)


def test_crt_kernel_huge_kernel_vector():
    rng = random.Random(17)
    cols = 5
    body = [[rng.randint(-50, 50) for _ in range(cols - 1)] for _ in range(10)]
    ts = [rng.randint(10 ** 39, 10 ** 40) for _ in range(cols - 1)]
    m = [row + [sum(t * x for t, x in zip(ts, row))] for row in body]
    planted = ts + [-1]
    out = kernel_int_crt(IntMatrix(m))
    assert primitive(out.vector) == primitive(planted)
    assert out.primes_used > 1


def test_crt_kernel_non_integral_residues_never_lift():
    """kernel_mod here hands out the residues of (-1, 10007/10009, 1), which
    no integer vector has: the lift takes every prime it may and raises
    instead of returning a vector."""
    primes = []

    class Counted(IntMatrix):
        def kernel_mod(self, p):
            primes.append(p)
            return super().kernel_mod(p)

    m = [[10007, 10009, 0], [0, 10009, -10007]]
    with pytest.raises(RuntimeError):
        kernel_int_crt(Counted(m))
    assert len(primes) == linalg._MAX_PRIMES
