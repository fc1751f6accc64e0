import random
from fractions import Fraction

import pytest

from ordersix import modeq, modp
from ordersix.linalg import nullspace_exact
from ordersix.modeq import MonomialMatrix, kernel_int_crt, predict_degrees

from helpers import primitive


def test_exact_nullspace_known_small_case():
    m = [[1, 2, 3], [2, 4, 6]]
    basis = nullspace_exact(m)
    assert len(basis) == 2
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_exact_nullspace_full_rank():
    assert nullspace_exact([[1, 0], [0, 1], [3, 5]]) == []
    assert nullspace_exact([]) == []


def test_exact_handles_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    basis = nullspace_exact(m)
    assert len(basis) == 1
    v = basis[0]
    for row in m:
        assert sum(a * b for a, b in zip(row, v)) == 0


def _level2_matrix():
    d1, d2 = predict_degrees(2)
    return MonomialMatrix(2, d1, d2, 2 * (d1 + 1))


def test_crt_kernel_huge_kernel_vector(monkeypatch):
    """Residues of a planted vector with 133-bit entries need more than one
    prime; the lift returns the planted vector once it is stable and the
    certificate accepts it."""
    rng = random.Random(17)
    matrix = _level2_matrix()
    planted = [rng.randint(-10 ** 40, 10 ** 40) for _ in matrix.order]
    monkeypatch.setattr(modp, "conjugate_polynomial_mod",
                        lambda *args: [c % args[-1] for c in planted])
    monkeypatch.setattr(modeq, "certificate_failure", lambda n, poly, ws: (
        None if [poly.coeff(*ij) for ij in matrix.order] == planted else "not planted"))
    out = kernel_int_crt(matrix)
    assert primitive(out.vector) == primitive(planted)
    assert out.primes_used > 1


def test_crt_kernel_non_integral_residues_never_lift(monkeypatch):
    """The residues here are those of (-1, 10007/10009, 1), which no
    integer vector has: the lift takes every prime it may and raises
    instead of returning a vector."""
    primes = []

    def residues(*args):
        p = args[-1]
        primes.append(p)
        return [p - 1, 10007 * pow(10009, -1, p) % p, 1]

    monkeypatch.setattr(modp, "conjugate_polynomial_mod", residues)
    with pytest.raises(RuntimeError):
        kernel_int_crt(_level2_matrix())
    assert len(primes) == modeq._MAX_PRIMES
