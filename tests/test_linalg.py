import random
from fractions import Fraction

import numpy as np

from ordersix import modp
from ordersix.linalg import kernel_int_crt, kernel_primes, nullspace_exact

from helpers import IntMatrix, back_substitute, echelon_mod, primitive


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
        crt = kernel_int_crt(IntMatrix(m))
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
    out = kernel_int_crt(IntMatrix(m))
    assert out.dimension == 1
    assert primitive(out.vector) == primitive(planted)
    assert out.primes_used > 1


def test_crt_kernel_zero_dimension():
    rng = random.Random(23)
    m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(8)]
    exact = nullspace_exact(m)
    out = kernel_int_crt(IntMatrix(m))
    assert out.dimension == len(exact) == 0
    assert out.vector is None


def test_crt_kernel_rational_vector_reconstruction():
    # kernel vector with large prime denominators relative to the anchor
    m = [[10007, 10009, 0], [0, 10009, -10007]]
    out = kernel_int_crt(IntMatrix(m))
    assert out.dimension == 1
    v = out.vector
    for row in m:
        assert sum(a * b for a, b in zip(row, v)) == 0


def _product_mod(left, right, p):
    return np.array(
        [[sum(a * b for a, b in zip(lr, col)) % p for col in zip(*right)] for lr in left],
        dtype=np.int64,
    )


def _assert_kernel_matches_oracle(mat, p):
    expected = back_substitute(*echelon_mod(mat, p), p)
    got = [v.tolist() for v in modp._kernel_mod(mat, p)]
    assert got == expected
    for v in got:
        assert not (mat.astype(object).dot(v) % p).any()
    return got


def test_kernel_mod_matches_loop_back_substitution():
    """The blocked Gauss-Jordan kernel gives bit-identical kernel vectors to
    per-pivot forward elimination followed by one exact dot product per
    pivot row: with several free columns, over several row blocks, and at
    ranks up to 64."""
    rng = random.Random(31)
    p = next(kernel_primes())
    block = modp._BLOCK_ROWS
    for _ in range(12):
        rows, cols = rng.randint(3, 3 * block), rng.randint(4, 64)
        rank = rng.randint(1, min(rows, cols))
        left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
        _assert_kernel_matches_oracle(_product_mod(left, right, p), p)


def test_kernel_mod_blocks_without_new_pivots():
    """A leading zero block, a block repeating earlier rows and a late block
    whose pivots lie left of the earlier ones (so earlier reduced rows must
    be cleared at the new pivot columns)."""
    rng = random.Random(37)
    p = next(kernel_primes())
    block = modp._BLOCK_ROWS
    cols = 48
    early = [[0] * 10 + [rng.randrange(p) for _ in range(cols - 10)] for _ in range(6)]
    body = _product_mod([[rng.randrange(p) for _ in range(6)] for _ in range(block)], early, p)
    late = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(5)], dtype=np.int64)
    mat = np.concatenate([np.zeros((block, cols), dtype=np.int64), body, body[::-1], late])
    got = _assert_kernel_matches_oracle(mat, p)
    assert len(got) == cols - 11


def test_kernel_mod_full_column_rank_is_empty():
    rng = random.Random(41)
    p = next(kernel_primes())
    mat = np.array([[rng.randrange(p) for _ in range(40)] for _ in range(90)], dtype=np.int64)
    assert _assert_kernel_matches_oracle(mat, p) == []


def test_kernel_mod_high_rank_entries_near_p():
    """Rank 300 with entries within 8 of p: the products against the pivot
    rows have inner dimension near 300, and each float64 GEMM sums at most
    _gemm_step(p) terms, the most whose sum stays below 2^53."""
    rng = random.Random(43)
    p = next(kernel_primes())
    mat = np.array([[p - 1 - rng.randrange(8) for _ in range(310)] for _ in range(300)],
                   dtype=np.int64)
    got = _assert_kernel_matches_oracle(mat, p)
    assert len(got) == 10
    step = modp._gemm_step(p)
    assert step * (p - 1) ** 2 < 1 << 53 <= (step + 1) * (p - 1) ** 2


def test_sub_matmul_mod_is_exact_past_one_gemm():
    """(c - a @ b) mod p against Python ints, at inner dimensions up to and
    past one GEMM.  Entries are p - 1, whose products are multiples of 16
    and so stay representable past 2^53, and p - 2 in one row of a and one
    column of b, whose odd sums past 2^53 would round."""
    p = next(kernel_primes())
    step = modp._gemm_step(p)
    c = [[0, 1], [p - 2, p - 1]]
    entries = [p - 1, p - 2]
    for k in (0, 1, step, step + 1, 2 * step + 3):
        a = np.array([[x] * k for x in entries], dtype=np.int64).reshape(2, k)
        b = np.array([entries] * k, dtype=np.int64).reshape(k, 2)
        got = modp._sub_matmul_mod(np.array(c, dtype=np.int64), a, b, p).tolist()
        assert got == [[(c[i][j] - k * x * y) % p for j, y in enumerate(entries)]
                       for i, x in enumerate(entries)], k
