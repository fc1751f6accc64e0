import dataclasses
from itertools import islice
from math import gcd

import numpy as np
import pytest

from ordersix import modeq
from ordersix.arith import psi_index
from ordersix.eta import named_w
from ordersix.linalg import kernel_int_crt, kernel_primes, nullspace_exact
from ordersix.modeq import (
    BivarPoly,
    LevelNotCoprimeTo6Error,
    ModEqResult,
    MonomialMatrix,
    NotPrimeLevelError,
    certificate_failure,
    check_kronecker,
    check_pattern,
    check_symmetry,
    extract_inner_factor,
    format_polynomial,
    kronecker_frame,
    predict_coefficient_pattern,
    predict_degrees,
    residual_series,
    solve_modular_equation,
)
from ordersix.verify import golden_poly

from helpers import monomial_matrix, primitive


def test_predict_degrees():
    assert predict_degrees(2) == (2, 2)
    assert predict_degrees(3) == (3, 3)
    for p in (5, 7, 11, 13):
        assert predict_degrees(p) == (p + 1, p + 1)


def test_level2_matches_printed_polynomial(solved):
    assert solved(2).poly == BivarPoly(
        {(2, 0): 1, (0, 1): -1, (1, 1): 2, (2, 1): -3, (0, 2): 1}
    )


def test_level3_matches_printed_polynomial(solved):
    assert solved(3).poly == golden_poly(3)


def test_prime_levels_match_golden_tables(solved):
    for p in (5, 7, 11, 13):
        assert solved(p).poly == golden_poly(p), p


def test_crt_agrees_with_exact_oracle():
    """The matrix mod p equals the exact QSeries-product matrix reduced mod
    two primes, and the kernel agrees with fraction elimination on it."""
    primes = list(islice(kernel_primes(), 2))
    for n in range(2, 8):
        d1, d2 = predict_degrees(n)
        rows, order, height = monomial_matrix(n, d1, d2, modeq._BASE_MARGIN)
        matrix = MonomialMatrix(n, d1, d2, modeq._row_count(n, d1, d2, modeq._BASE_MARGIN))
        assert (matrix.height, matrix.order) == (height, order), n
        for p in primes:
            reduced = np.array([[x % p for x in row] for row in rows], dtype=np.int64)
            assert np.array_equal(matrix.mod(p), reduced), (n, p)
        basis = nullspace_exact(rows)
        assert len(basis) == 1, n
        assert primitive(basis[0]) == primitive(kernel_int_crt(matrix).vector), n


def test_matrix_rows_are_residues_mod_the_first_prime():
    d1, d2 = predict_degrees(7)
    matrix = MonomialMatrix(7, d1, d2, 176)
    first = matrix.mod(next(kernel_primes()))
    assert len(matrix) == 176 and len(matrix[0]) == 81
    rows = list(matrix)
    assert all(type(x) is int for x in rows[5])
    assert np.array_equal(np.array(rows, dtype=np.int64), first)


def test_int64_bound_is_checked():
    p = next(kernel_primes())
    modeq._check_int64_bound(4000, p)
    with pytest.raises(OverflowError):
        modeq._check_int64_bound(1 << 18, p)
    # mod() checks before it allocates anything of size height
    d1, d2 = predict_degrees(2)
    matrix = MonomialMatrix(2, d1, d2, 46)
    matrix.height = 1 << 40
    with pytest.raises(OverflowError):
        matrix.mod(p)


def test_residual_detects_one_perturbed_coefficient(solved):
    for n in (7, 13, 19):
        r = solved(n)
        coeffs = dict(r.poly.coeffs)
        coeffs[(3, 2)] = coeffs.get((3, 2), 0) + 1
        bad = dataclasses.replace(r, poly=BivarPoly(coeffs))
        res = residual_series(bad)
        assert not res.is_zero, n
        assert res.prec == r.precision_used
        # the generic evaluation on fresh expansions of w and w(n*tau)
        prec = r.precision_used + n
        w = named_w()
        generic = bad.poly.evaluate(w.expand(prec), w.rescale(n).expand(prec))
        generic = generic.truncate(r.precision_used)
        assert generic.prec == res.prec and generic == res, n


def test_solve_fails_when_exact_check_always_fails(monkeypatch):
    monkeypatch.setattr(MonomialMatrix, "annihilates", lambda self, vec: False)
    with pytest.raises(RuntimeError):
        solve_modular_equation(2)


def test_certificate_failure(solved):
    r = solved(5)
    assert certificate_failure(r) is None
    coeffs = dict(r.poly.coeffs)
    coeffs[(1, 1)] += 1
    assert "residual" in certificate_failure(dataclasses.replace(r, poly=BivarPoly(coeffs)))
    doubled = BivarPoly({ij: 2 * c for ij, c in r.poly.coeffs.items()})
    assert "primitive" in certificate_failure(dataclasses.replace(r, poly=doubled))
    assert "bidegree" in certificate_failure(dataclasses.replace(r, d1=5))
    assert "precision" in certificate_failure(dataclasses.replace(r, precision_used=20))
    assert "precision" in certificate_failure(dataclasses.replace(r, precision_used=10 ** 9))


def test_normalization_notes(solved):
    flipped = "denominators cleared by 1, content 1 removed, sign flipped"
    kept = "denominators cleared by 1, content 1 removed"
    expected = {2: flipped, 3: flipped, 4: flipped, 5: kept, 6: flipped, 7: kept}
    for n, note in expected.items():
        assert solved(n).normalization == note, n


def test_degrees_match_pole_degrees(solved):
    for n in range(2, 14):
        r = solved(n)
        assert r.poly.degx == r.d2
        assert r.poly.degy == r.d1


def test_residual_vanishes_for_all_levels_through_13(solved):
    for n in range(2, 14):
        res = residual_series(solved(n))
        assert res.is_zero, (n, res)
        assert res.prec >= solved(n).precision_used


def test_nullspace_dimension_is_one(solved):
    for n in range(2, 14):
        assert solved(n).nullspace_dim == 1


@pytest.mark.slow
def test_level25_spot_check():
    r = solve_modular_equation(25)
    assert r.poly.degx == r.poly.degy == psi_index(25) == 30
    assert r.nullspace_dim == 1
    assert residual_series(r).is_zero
    assert check_symmetry(r)
    assert check_pattern(r, predict_coefficient_pattern(25))


def test_pattern_level2():
    pat = predict_coefficient_pattern(2)
    assert {(2, 0), (0, 1), (0, 2)} <= set(pat.forced_nonzero)
    assert {(1, 2), (2, 2), (1, 0), (0, 0)} <= set(pat.forced_zero)


def test_pattern_level3():
    pat = predict_coefficient_pattern(3)
    assert {(3, 1), (3, 2), (3, 3), (0, 0), (1, 0), (2, 0)} <= set(pat.forced_zero)
    assert {(3, 0), (0, 1), (0, 3)} <= set(pat.forced_nonzero)


def test_pattern_prime_levels():
    for p in (5, 7, 11, 13):
        pat = predict_coefficient_pattern(p)
        assert {(p + 1, 0), (0, p + 1)} <= set(pat.forced_nonzero)
        expected_zero = (
            {(p + 1, j) for j in range(1, p + 2)}
            | {(j, p + 1) for j in range(1, p + 2)}
            | {(0, j) for j in range(p + 1)}
            | {(j, 0) for j in range(p + 1)}
        )
        assert expected_zero <= set(pat.forced_zero)


def test_check_pattern(solved):
    for n in (2, 3, 5, 7, 11, 13):
        assert check_pattern(solved(n), predict_coefficient_pattern(n)), n
    # a forced zero that is present must fail
    bad = ModEqResult(
        level=2, d1=2, d2=2,
        poly=BivarPoly({(2, 0): 1, (0, 1): -1, (1, 1): 2, (2, 1): -3,
                        (0, 2): 1, (0, 0): 1}),
        precision_used=0, nullspace_dim=1, normalization="", method="crt",
    )
    assert not check_pattern(bad, predict_coefficient_pattern(2))


def test_check_kronecker(solved):
    for p in (5, 7, 11, 13):
        assert check_kronecker(solved(p)), p
    perturbed = ModEqResult(
        level=5, d1=6, d2=6,
        poly=BivarPoly({**kronecker_frame(5).coeffs, (0, 0): 1}),
        precision_used=0, nullspace_dim=1, normalization="", method="crt",
    )
    assert not check_kronecker(perturbed)
    with pytest.raises(NotPrimeLevelError):
        check_kronecker(solved(4))


def test_check_symmetry(solved):
    for p in (5, 7, 11, 13):
        assert check_symmetry(solved(p)), p
    with pytest.raises(LevelNotCoprimeTo6Error):
        check_symmetry(solved(2))
    with pytest.raises(LevelNotCoprimeTo6Error):
        check_symmetry(solved(3))


def test_psi():
    assert psi_index(1) == 1
    assert psi_index(5) == 6
    assert psi_index(25) == 30
    for p in (5, 7, 11, 13):
        assert psi_index(p) == p + 1


def test_psi_equals_degree_for_coprime_levels(solved):
    for p in (5, 7, 11, 13):
        assert solved(p).poly.degx == psi_index(p)


def test_coefficients_are_integral_and_primitive(solved):
    for n in range(2, 14):
        poly = solved(n).poly
        assert all(isinstance(c, int) for c in poly.coeffs.values())
        g = 0
        for c in poly.coeffs.values():
            g = gcd(g, abs(c))
        assert g == 1


def test_sign_rule(solved):
    for n in range(2, 14):
        poly = solved(n).poly
        dx = poly.degx
        j0 = min(j for i, j in poly.coeffs if i == dx)
        assert poly.coeff(dx, j0) > 0


def test_extract_inner_factor_round_trip(solved):
    for p in (5, 7, 11, 13):
        inner = extract_inner_factor(solved(p).poly, p)
        rebuilt = dict(kronecker_frame(p).coeffs)
        for (i, j), g in inner.coeffs.items():
            ij = (i + 1, j + 1)
            rebuilt[ij] = rebuilt.get(ij, 0) - p * g
        assert BivarPoly(rebuilt) == solved(p).poly
    with pytest.raises(ValueError):
        extract_inner_factor(BivarPoly({(0, 0): 1}), 5)


def test_format_polynomial_level2(solved):
    text = format_polynomial(solved(2).poly, "latex")
    assert text.replace(" ", "") == "X^2-Y+2XY-3X^2Y+Y^2"


def test_format_polynomial_latex_braces():
    poly = BivarPoly({(10, 10): 5368, (0, 0): -1})
    latex = format_polynomial(poly, "latex")
    assert "X^{10} Y^{10}" in latex
    plain = format_polynomial(poly, "plain")
    assert "X^10 Y^10" in plain


def test_bad_level_rejected():
    with pytest.raises(ValueError):
        solve_modular_equation(1)
    with pytest.raises(ValueError):
        predict_degrees(0)
