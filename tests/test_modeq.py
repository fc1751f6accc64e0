import cmath
from itertools import islice
from math import gcd, pi, sqrt

import pytest

from ordersix import modeq, modp
from ordersix.arith import hecke_cosets, psi_index
from ordersix.cusps import INFINITY, Cusp, canonical, cusp_set
from ordersix.eta import EtaQuotient, named_w
from ordersix.linalg import nullspace_exact
from ordersix.modeq import (
    MAX_LEVEL,
    NORMALIZATION_NOTES,
    BivarPoly,
    LevelNotCoprimeTo6Error,
    ModEqResult,
    MonomialMatrix,
    NotPrimeLevelError,
    certificate_failure,
    certificate_height,
    check_kronecker,
    check_pattern,
    check_symmetry,
    conjugate_traces,
    extract_inner_factor,
    format_polynomial,
    kernel_int_crt,
    kernel_primes,
    kronecker_frame,
    leading_exponent,
    predict_coefficient_pattern,
    predict_degrees,
    residual_series,
    result_for,
    solve_modular_equation,
    valence_bound,
)
from ordersix.verify import golden_poly

from helpers import (
    back_substitute,
    echelon_mod,
    monomial_matrix,
    monomial_matrix_mod,
    poly_mul,
    primitive,
    rank_mod,
)


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
    """The matrix's rows equal the exact QSeries-product matrix, and the
    lift agrees with fraction elimination on it."""
    for n in range(2, 8):
        d1, d2 = predict_degrees(n)
        rows, order = monomial_matrix(n, d1, d2, valence_bound(n))
        matrix = MonomialMatrix(n, d1, d2, valence_bound(n))
        assert (matrix.height, matrix.order) == (len(rows), order), n
        assert list(matrix) == rows, n
        basis = nullspace_exact(rows)
        assert len(basis) == 1, n
        assert primitive(basis[0]) == primitive(kernel_int_crt(matrix).vector), n


def test_matrix_rows_are_the_exact_monomial_matrix():
    """As a sequence, the matrix is the exact integer matrix: one row per
    power of q, one Python-int column per unknown."""
    d1, d2 = predict_degrees(7)
    matrix = MonomialMatrix(7, d1, d2, 176)
    assert len(matrix) == 176 and len(matrix[0]) == 81
    rows = list(matrix)
    assert all(type(x) is int for x in rows[5])
    assert rows == monomial_matrix(7, d1, d2, 176)[0]


def _schoolbook_powers(w, top, length, p):
    expected = [[1] + [0] * (length - 1)]
    for _ in range(top):
        expected.append([c % p for c in poly_mul(expected[-1], w, length)])
    return expected


def test_power_table_matches_schoolbook_products(monkeypatch):
    """On both sides of the crossover, one length below it (packed ints)
    and at it (numpy), for w and for the largest residues p - 1, p - 2,
    which fill a 64-bit slot the most; then in numpy with _exact_step cut
    to 37, so every truncated product runs in several chunks."""
    p = next(kernel_primes())
    crossover = modp._NUMPY_LENGTH
    ws = named_w().expand(crossover)
    named = [0] * ws.val + list(ws.coeffs)
    largest = [p - 1, p - 2] * crossover
    for length in (crossover - 1, crossover):
        for w, top in ((named, 4), (largest, 2)):
            expected = _schoolbook_powers(w, top, length, p)
            assert modp.power_table(w, top, length, p) == expected, (length, top)
    monkeypatch.setattr(modp, "_exact_step", lambda p: 37)
    assert modp.power_table(largest, 2, crossover, p) == _schoolbook_powers(
        largest, 2, crossover, p)


def test_power_table_is_exact_past_one_float64_convolution():
    """At the true _exact_step(p), the most products whose float64 sum stays
    below 2^53: w = -2, -1, -2, -1, ... (residues p - 2 and p - 1) below
    q^(2*step + 3).  The products (p - 2)^2 are odd, so a partial sum past
    2^53 would round.  The coefficient of q^k in w^2 is 4(k/2 + 1) + k/2
    at even k and 2(k + 1) at odd k."""
    p = next(kernel_primes())
    step = modp._exact_step(p)
    assert step * (p - 1) ** 2 < 1 << 53 <= (step + 1) * (p - 1) ** 2
    length = 2 * step + 3
    square = modp.power_table([-2, -1] * (step + 2), 2, length, p)[2]
    assert square == [(4 * (k // 2 + 1) + k // 2 if k % 2 == 0 else 2 * (k + 1)) % p
                               for k in range(length)]


def test_power_table_checks_int64_bound_before_allocating():
    p = next(kernel_primes())
    w = [0] + list(named_w().expand(20).coeffs)
    with pytest.raises(OverflowError):
        modp.power_table(w, 20, 1 << 40, p)


def test_slot_bound_is_checked_before_allocating():
    """A packed 64-bit slot holds a sum of at most `most` products of two
    residues and one residue.  conjugate_polynomial_mod, like power_table
    above, raises OverflowError for a series far past that, where
    allocating it would raise MemoryError."""
    p = next(kernel_primes())
    most = ((1 << 64) - 1 - p) // (p - 1) ** 2
    modp._check_slot_bound(most, p)
    with pytest.raises(OverflowError):
        modp._check_slot_bound(most + 1, p)
    w = [0] + list(named_w().expand(20).coeffs)
    with pytest.raises(OverflowError):
        modp.conjugate_polynomial_mod(w, 1, 1 << 40, 0, [(1, 1, 1)], 0, p)


def test_power_sums_agree_with_elimination_per_prime():
    """At every level from 2 to 16, F_n mod p from the power sums of its
    roots spans the kernel of the monomial matrix mod p, found by the
    echelon oracle, for the first two kernel primes."""
    primes = list(islice(kernel_primes(), 2))
    for n in range(2, 17):
        d1, d2 = predict_degrees(n)
        matrix = MonomialMatrix(n, d1, d2, valence_bound(n))
        w = (0,) * matrix.w.val + matrix.w.coeffs
        for p in primes:
            conj = modp.conjugate_polynomial_mod(w, n, d1, d2, conjugate_traces(n),
                                                 leading_exponent(n), p)
            mod_p = monomial_matrix_mod(n, d1, d2, matrix.height, p)
            (kern,) = back_substitute(*echelon_mod(mod_p, p), p)
            lead = matrix.order.index((d2, 0))
            assert conj[lead] == 1, (n, p)
            scale = pow(kern[lead], -1, p)
            assert conj == [x * scale % p for x in kern], (n, p)


def test_route_follows_gcd_with_6(monkeypatch):
    """No level, prime to 6 or not, builds the monomial matrix: no solve
    reads a row."""
    calls = []
    monkeypatch.setattr(MonomialMatrix, "_rows", property(lambda self: calls.append(self)))
    for n in (2, 3, 4, 6, 8, 9, 12, 5, 7, 13):
        solve_modular_equation(n)
    assert calls == []


def test_coset_count_is_the_degree():
    """The cosets number d2 = [Gamma0(18) : Gamma0(18n)], the traces weigh
    each once, and the exponent m of the leading coefficient (1 - 3Y)^m
    matches the closed form d2 - d2 / 2^v2(n)."""
    for n in range(2, 61):
        d1, d2 = predict_degrees(n)
        assert len(hecke_cosets(n)) == d2 == sum(c for _, _, c in conjugate_traces(n)), n
        if gcd(n, 6) == 1:
            assert d2 == psi_index(n), n
        v2 = (n & -n).bit_length() - 1
        assert leading_exponent(n) == d2 - d2 // 2 ** v2, n
        assert (leading_exponent(n) == 0) == (n % 2 == 1), n


def test_conjugate_traces_check_the_coset_count(monkeypatch):
    assert sum(c for _, _, c in conjugate_traces(9)) == predict_degrees(9)[1]
    with pytest.raises(LevelNotCoprimeTo6Error):
        check_symmetry(solve_modular_equation(9))
    monkeypatch.setattr(modeq, "hecke_cosets", lambda n: hecke_cosets(n)[1:])
    with pytest.raises(RuntimeError):
        conjugate_traces(7)
    with pytest.raises(RuntimeError):
        conjugate_traces(9)


@pytest.mark.parametrize("n, primes", [(13, 3), (19, 4)])
def test_lift_is_certified_once_a_prime_leaves_it_unchanged(monkeypatch, n, primes):
    """The symmetric residues of F_n are F_n once the modulus passes
    2*max|c|; the first prime that leaves them unchanged is followed by the
    one exact check, and the lift is in normal form with 1 at (d2, 0)."""
    checked, used = [], []
    failure, kernel = modeq.certificate_failure, modeq.kernel_int_crt
    d1, d2 = predict_degrees(n)

    def check_spy(level, candidate, ws=None):
        checked.append([candidate.coeff(i, j) for i in range(d2 + 1) for j in range(d1 + 1)])
        return failure(level, candidate, ws)

    def kernel_spy(matrix):
        result = kernel(matrix)
        used.append(result.primes_used)
        return result

    monkeypatch.setattr(modeq, "certificate_failure", check_spy)
    monkeypatch.setattr(modeq, "kernel_int_crt", kernel_spy)
    poly = solve_modular_equation(n).poly
    assert used == [primes]
    assert checked == [[poly.coeff(i, j) for i in range(d2 + 1) for j in range(d1 + 1)]]
    assert poly.coeff(d2, 0) == 1 and gcd(*poly.coeffs.values()) == 1


def test_lift_carries_on_past_a_rejected_stable_lift(monkeypatch):
    """A stable lift that the exact check rejects is not returned: the lift
    takes the next prime and checks again."""
    checked = []
    failure = modeq.certificate_failure
    d1, d2 = predict_degrees(13)
    matrix = MonomialMatrix(13, d1, d2, valence_bound(13))

    def reject_first(n, candidate, ws=None):
        checked.append([candidate.coeff(*ij) for ij in matrix.order])
        return "rejected" if len(checked) == 1 else failure(n, candidate, ws)

    monkeypatch.setattr(modeq, "certificate_failure", reject_first)
    kernel = kernel_int_crt(matrix)
    assert kernel.primes_used == 4
    assert checked == [kernel.vector, kernel.vector]
    assert BivarPoly(dict(zip(matrix.order, kernel.vector))) == golden_poly(13)


def test_asymmetric_stable_lift_is_refused_before_its_residual(monkeypatch, solved):
    """The lift accepts a vector through certificate_failure alone, shape
    first: a stable lift of F_5 with one coefficient off the diagonal
    changed is refused as not symmetric, prime after prime, and the
    residual never runs."""
    n = 5
    d1, d2 = predict_degrees(n)
    coeffs = dict(solved(n).poly.coeffs)
    coeffs[(1, 2)] = coeffs.get((1, 2), 0) + 1
    asymmetric = BivarPoly(coeffs)
    assert not asymmetric.is_symmetric()
    assert certificate_failure(n, asymmetric) == "not symmetric under X <-> Y"
    vector = [asymmetric.coeff(i, j) for i in range(d2 + 1) for j in range(d1 + 1)]
    primes, residuals = [], []
    monkeypatch.setattr(modp, "conjugate_polynomial_mod",
                        lambda *args: primes.append(args[-1]) or [c % args[-1] for c in vector])
    monkeypatch.setattr(modeq, "residual_series", lambda *args: residuals.append(args))
    with pytest.raises(RuntimeError):
        solve_modular_equation(n)
    assert len(primes) == modeq._MAX_PRIMES
    assert residuals == []


def test_certificate_never_runs_below_its_height(solved):
    """An expansion of w shorter than certificate_height(n) is refused, in
    a cache check and in the lift alike, not read as a lower height."""
    for n in (5, 9):
        poly, height = solved(n).poly, certificate_height(n)
        assert certificate_failure(n, poly, named_w().expand(height + 7)) is None
        with pytest.raises(ValueError, match="certificate height"):
            certificate_failure(n, poly, named_w().expand(height - 1))
        d1, d2 = predict_degrees(n)
        short = MonomialMatrix(n, d1, d2, height - 1)
        with pytest.raises(ValueError, match="certificate height"):
            kernel_int_crt(short)


def test_residual_detects_one_perturbed_coefficient(solved):
    for n in (7, 13, 19):
        r = solved(n)
        coeffs = dict(r.poly.coeffs)
        coeffs[(3, 2)] = coeffs.get((3, 2), 0) + 1
        bad = r._replace(poly=BivarPoly(coeffs))
        res = residual_series(bad.poly, n, named_w().expand(r.precision_used))
        assert not res.is_zero, n
        assert res.prec == r.precision_used
        # the generic evaluation on fresh expansions of w and w(n*tau)
        prec = r.precision_used + n
        w = named_w()
        generic = bad.poly.evaluate(w.expand(prec), w.rescale(n).expand(prec))
        generic = generic.truncate(r.precision_used)
        assert generic.prec == res.prec and generic == res, n


def test_fresh_solve_expands_w_once(monkeypatch):
    """The exact check reads the expansion the matrix was built from."""
    heights = []
    expand = EtaQuotient.expand

    def spy(self, prec):
        heights.append(prec)
        return expand(self, prec)

    monkeypatch.setattr(EtaQuotient, "expand", spy)
    solve_modular_equation(19)
    assert heights.count(certificate_height(19)) == 1


def test_solve_fails_when_exact_check_always_fails(monkeypatch):
    monkeypatch.setattr(modeq, "certificate_failure", lambda *args: "rejected")
    with pytest.raises(RuntimeError):
        solve_modular_equation(2)


def test_certificate_failure(solved):
    poly = solved(5).poly
    assert certificate_failure(5, poly) is None
    # Horner's rule never reads negative indices, so only the box check sees these
    for extra in ((-1, 0), (0, -3)):
        outside = BivarPoly({**poly.coeffs, extra: 1})
        assert "outside" in certificate_failure(5, outside), extra
    assert certificate_failure(5, BivarPoly({})) is not None
    d1, d2 = predict_degrees(5)
    coeffs = dict(poly.coeffs)
    coeffs[(1, 1)] += 1
    assert "residual" in certificate_failure(5, BivarPoly(coeffs))
    # the leading column (1 - 3Y)^0 = 1 also rules out a multiple of F_5
    doubled = BivarPoly({ij: 2 * c for ij, c in poly.coeffs.items()})
    assert certificate_failure(5, doubled) == "coefficient of X^6 is not (1 - 3Y)^0"
    negated = BivarPoly({ij: -c for ij, c in poly.coeffs.items()})
    assert certificate_failure(5, negated) == "coefficient of X^6 is not (1 - 3Y)^0"
    no_top_column = BivarPoly({(i, j): c for (i, j), c in poly.coeffs.items() if i != d2})
    assert "bidegree" in certificate_failure(5, no_top_column)


def test_result_for_rebuilds_every_field(solved):
    """A fresh solve is fixed by its level and polynomial."""
    for n in range(2, 14):
        assert result_for(n, solved(n).poly) == solved(n), n


def test_normalization_notes(solved):
    flipped = "denominators cleared by 1, content 1 removed, sign flipped"
    kept = "denominators cleared by 1, content 1 removed"
    assert NORMALIZATION_NOTES == (kept, flipped)
    expected = {2: flipped, 3: flipped, 4: flipped, 5: kept, 6: flipped, 7: kept}
    for n, note in expected.items():
        assert solved(n).normalization == note, n


def test_valence_bound_from_divisor_data():
    """The row count is the valence bound: both divisors have degree zero
    and no pole at infinity, and the pole degree of F(w, w(n*tau)) summed
    over the other cusps, for F in the (d2, d1) box, is 2*d1*d2."""
    for n in range(2, 32):
        ord_w, ord_v = modeq._cusp_orders(n)
        assert sum(ord_w.values()) == sum(ord_v.values()) == 0, n
        assert (ord_w[INFINITY], ord_v[INFINITY]) == (1, n), n
        d1 = -sum(min(0, o) for o in ord_w.values())
        d2 = -sum(min(0, o) for o in ord_v.values())
        assert (d1, d2) == predict_degrees(n), n
        # i*ord_x(w) + j*ord_x(v) is linear in (i, j), so its minimum over
        # the box is at a corner
        poles = -sum(
            min(i * ord_w[x] + j * ord_v[x] for i in (0, d2) for j in (0, d1))
            for x in ord_w
            if x != INFINITY
        )
        assert poles == valence_bound(n) - 1 == 2 * d1 * d2, n


def test_precision_used_is_the_certificate_height(solved):
    """d1*d2 + 1 at levels prime to 6, the full valence bound elsewhere."""
    expected = {5: 37, 7: 65, 11: 145, 13: 197, 17: 325, 19: 401, 25: 901}
    assert {n: certificate_height(n) for n in expected} == expected
    for n in range(2, 61):
        d1, d2 = predict_degrees(n)
        if gcd(n, 6) == 1:
            assert d1 == d2 and certificate_height(n) == d1 * d2 + 1, n
        else:
            assert certificate_height(n) == valence_bound(n), n
    for n in range(2, 14):
        assert solved(n).precision_used == certificate_height(n), n


def _atkin_lehner(n):
    """W_n = (n, y; 18n, n*t) with n*t - 18*y = 1, as (a, b, c, d)."""
    t = pow(n, -1, 18)
    return n, (n * t - 1) // 18, 18 * n, n * t


def test_atkin_lehner_carries_the_divisor_of_w_to_that_of_w_n_tau():
    """w o W_n = w(n*tau) forces ord_c(w) = ord_(W_n c)(w(n*tau)) at every
    cusp c of Gamma0(18n); W_n permutes the cusps and sends infinity to the
    class of 1/18."""
    for n in range(5, 61):
        if gcd(n, 6) != 1:
            continue
        level = 18 * n
        a, b, c, d = _atkin_lehner(n)
        assert a * d - b * c == n
        ord_w, ord_v = modeq._cusp_orders(n)
        images = {x: canonical(level, Cusp.make(a * x.a + b * x.c, c * x.a + d * x.c))
                  for x in cusp_set(level)}
        assert sorted(images.values(), key=str) == sorted(cusp_set(level), key=str), n
        assert images[INFINITY] == canonical(level, Cusp(1, 18)) != INFINITY, n
        for x, image in images.items():
            assert ord_v[image] == ord_w[x], (n, x)


def test_w_at_the_atkin_lehner_image_is_w_of_n_tau():
    """w(W_n tau) = w(n*tau), constant 1, in complex floats.  At
    tau = -d/c + i sqrt(n)/c, W_n tau has the same imaginary part as tau
    (about 0.025 at n = 5), and q^4000 there is below 1e-200."""
    ws = named_w().expand(4000)

    def w(z):
        q = cmath.exp(2j * pi * z)
        total = 0j
        for coeff in reversed(ws.coeffs):
            total = total * q + coeff
        return total * q ** ws.val

    for n in (5, 7):
        a, b, c, d = _atkin_lehner(n)
        tau = complex(-d / c, sqrt(n) / c)
        image = (a * tau + b) / (c * tau + d)
        assert abs(image.imag - tau.imag) < 1e-12
        assert abs(cmath.exp(2j * pi * image)) ** 4000 < 1e-200
        assert abs(w(image) - w(n * tau)) < 1e-12, n
        assert abs(w(image) - w(tau)) > 1e-3, n  # the identity is not vacuous


def test_f_n_is_the_only_symmetric_relation_from_the_certificate_height(solved):
    """In the symmetric part of the (d2, d1) box, F_n spans the relations
    of the exact monomial matrix with d1*d2 + 1 rows, and one row fewer
    leaves two.  The rank mod 2^61 - 1 bounds the rank over Q from below,
    so with F_n in the kernel it proves the first claim."""
    p = (1 << 61) - 1
    for n in (5, 7):
        d1, d2 = predict_degrees(n)
        height = certificate_height(n)
        rows, order = monomial_matrix(n, d1, d2, height)
        col = {ij: k for k, ij in enumerate(order)}
        pairs = [(i, j) for i in range(d2 + 1) for j in range(i, d1 + 1)]
        sym = [[row[col[i, j]] + (row[col[j, i]] if i != j else 0) for i, j in pairs]
               for row in rows]
        f = [solved(n).poly.coeff(i, j) for i, j in pairs]
        assert all(sum(x * y for x, y in zip(row, f)) == 0 for row in sym), n
        assert rank_mod(sym, p) == len(pairs) - 1, n
        assert len(nullspace_exact(sym[:-1])) == 2, n


def test_half_height_residual_needs_the_symmetry_check(solved):
    """At n = 5 the full box has a 12-dimensional kernel at height 37, so
    the residual there also vanishes for F_5 plus a non-symmetric relation.
    certificate_failure rejects that candidate as not symmetric, and at the
    full valence bound its residual shows it is no relation at all."""
    n = 5
    d1, d2 = predict_degrees(n)
    height = certificate_height(n)
    rows, order = monomial_matrix(n, d1, d2, height)
    basis = nullspace_exact(rows)
    assert len(basis) == 12
    relation = next(r for r in (BivarPoly(dict(zip(order, primitive(v)))) for v in basis)
                    if not r.is_symmetric())
    scale = 1 + max(abs(c) for c in relation.coeffs.values())
    f = solved(n).poly
    candidate = BivarPoly({ij: scale * f.coeff(*ij) + relation.coeff(*ij) for ij in order})
    assert not candidate.is_symmetric()
    assert residual_series(candidate, n, named_w().expand(height)).is_zero
    assert not residual_series(candidate, n, named_w().expand(valence_bound(n))).is_zero
    assert certificate_failure(n, candidate) == "not symmetric under X <-> Y"


def test_symmetric_perturbation_is_rejected_for_its_residual(solved):
    for n in (5, 7, 13):
        coeffs = dict(solved(n).poly.coeffs)
        for ij in ((1, 2), (2, 1)):
            coeffs[ij] = coeffs.get(ij, 0) + 1
        bad = BivarPoly(coeffs)
        assert bad.is_symmetric()
        assert "residual" in certificate_failure(n, bad), n


def test_certificate_height_covers_what_the_lift_reads():
    """The power sums read w below q^(n*(d1 + 1)); the certificate height
    is never below that, and a MonomialMatrix refuses a lower height."""
    for n in range(2, 61):
        d1, _ = predict_degrees(n)
        assert certificate_height(n) >= n * (d1 + 1), n
    for n in (2, 5, 9):
        d1, d2 = predict_degrees(n)
        MonomialMatrix(n, d1, d2, n * (d1 + 1))
        with pytest.raises(ValueError, match="below"):
            MonomialMatrix(n, d1, d2, n * (d1 + 1) - 1)


def test_levels_above_max_level_are_refused():
    predict_degrees(MAX_LEVEL)
    for n in (MAX_LEVEL + 1, 1000000000000000003):
        with pytest.raises(ValueError, match="at most"):
            predict_degrees(n)
        with pytest.raises(ValueError):
            solve_modular_equation(n)


def test_degrees_match_pole_degrees(solved):
    for n in range(2, 14):
        r = solved(n)
        assert r.poly.degx == r.d2
        assert r.poly.degy == r.d1


def test_residual_vanishes_for_all_levels_through_13(solved):
    for n in range(2, 14):
        r = solved(n)
        res = residual_series(r.poly, n, named_w().expand(r.precision_used))
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
    assert r.precision_used == certificate_height(25)
    assert certificate_failure(25, r.poly) is None
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
