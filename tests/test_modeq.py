import cmath
from itertools import islice
from math import comb, gcd, pi, sqrt

import pytest

from ordersix import modeq, modp
from ordersix.arith import hecke_cosets, primes_below, psi_index
from ordersix.cusps import INFINITY, ZERO, Cusp, canonical, cusp_set
from ordersix.eta import EtaQuotient, divisor, named_w
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
    involutions,
    kernel_int_crt,
    kernel_primes,
    kronecker_frame,
    leading_exponent,
    mobius_twist,
    predict_coefficient_pattern,
    predict_degrees,
    residual_series,
    result_for,
    solve_modular_equation,
)
from ordersix.verify import golden_poly

from helpers import (
    FRICKE_MAP,
    W2_MAP,
    back_substitute,
    checked_twists,
    echelon_mod,
    invariant_perturbation,
    mobius_twist as twist_term_by_term,
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
        rows, order = monomial_matrix(n, d1, d2, 2 * d1 * d2 + 1)
        matrix = MonomialMatrix(n, d1, d2, 2 * d1 * d2 + 1)
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
    which fill a slot the most; then in numpy with _exact_step cut
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


@pytest.mark.parametrize("bits, width", [(20, 6), (24, 7), (28, 8)])
def test_power_table_at_each_slot_width_step(bits, width):
    """Packed slots are as wide as their bound needs.  For the largest prime
    below 2^bits, `last` is the longest table whose slots fit in `width`
    bytes, and both it and one coefficient more, which needs width + 1
    bytes, match the schoolbook products, on the largest residues p - 1,
    p - 2.  The steps 6 -> 7 (first kernel prime) and 7 -> 8 fall below
    _NUMPY_LENGTH; past 8 bytes power_table raises OverflowError."""
    p = next(primes_below((1 << bits) - 1))
    last = ((1 << 8 * width) - 1 - p) // (p - 1) ** 2
    assert last + 1 < modp._NUMPY_LENGTH
    assert modp._check_slot_bound(last, p) == width
    largest = [p - 1, p - 2] * last
    assert modp.power_table(largest, 3, last, p) == _schoolbook_powers(largest, 3, last, p)
    if width < 8:
        assert modp._check_slot_bound(last + 1, p) == width + 1
        assert modp.power_table(largest, 3, last + 1, p) == _schoolbook_powers(
            largest, 3, last + 1, p)
    else:
        with pytest.raises(OverflowError):
            modp.power_table(largest, 3, last + 1, p)


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


def test_conjugate_polynomial_refuses_w_not_q_plus_o_q2(monkeypatch):
    """conjugate_polynomial_mod reads F_n mod p off in powers of w, which
    needs w = q + O(q^2) mod p: a constant term or a q-coefficient other
    than 1 is refused, before the power table is built."""
    p = next(kernel_primes())
    w = [0] + list(named_w().expand(30).coeffs)
    d1, d2 = predict_degrees(2)
    args = (2, d1, d2, conjugate_traces(2), leading_exponent(2), p)
    assert modp.conjugate_polynomial_mod(w, *args)[d2 * (d1 + 1)] == 1
    tables = []
    power_table = modp.power_table
    monkeypatch.setattr(modp, "power_table",
                        lambda *a: tables.append(a) or power_table(*a))
    for bad in ([1] + w[1:], [0, 2] + w[2:]):
        with pytest.raises(ValueError, match=r"q \+ O\(q\^2\)"):
            modp.conjugate_polynomial_mod(bad, *args)
    assert tables == []
    modp.conjugate_polynomial_mod(w, *args)
    assert len(tables) == 1


def test_power_sums_agree_with_elimination_per_prime():
    """At every level from 2 to 16, F_n mod p from the power sums of its
    roots spans the kernel of the monomial matrix mod p, found by the
    echelon oracle, for the first two kernel primes."""
    primes = list(islice(kernel_primes(), 2))
    for n in range(2, 17):
        d1, d2 = predict_degrees(n)
        matrix = MonomialMatrix(n, d1, d2, 2 * d1 * d2 + 1)
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


def test_conjugate_polynomial_is_the_certified_equation_mod_p(solved):
    """At every level from 2 to 30, for the first two kernel primes,
    conjugate_polynomial_mod is the certified F_n mod p in (i, j) box
    order, and its row i = d2 is (1 - 3Y)^m mod p, the recurrence's seed:
    m > 0 exactly at the even levels, and from 24 on the power table is
    built in numpy."""
    primes = list(islice(kernel_primes(), 2))
    for n in range(2, 31):
        result = solved(n)
        d1, d2, m = result.d1, result.d2, leading_exponent(n)
        assert (m > 0) == (n % 2 == 0), n
        ws = named_w().expand(n * (d1 + 1))
        w = (0,) * ws.val + ws.coeffs
        order = [(i, j) for i in range(d2 + 1) for j in range(d1 + 1)]
        for p in primes:
            conj = modp.conjugate_polynomial_mod(w, n, d1, d2, conjugate_traces(n), m, p)
            assert conj == [result.poly.coeffs.get(key, 0) % p for key in order], (n, p)
            lead = [comb(m, j) * (-3) ** j % p for j in range(d1 + 1)]
            assert conj[d2 * (d1 + 1):] == lead, (n, p)


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


@pytest.mark.parametrize("n, primes", [(13, 2), (19, 3)])
def test_lift_is_certified_once_it_clears_the_margin(monkeypatch, n, primes):
    """The symmetric residues of F_n are F_n once the modulus passes
    2*max|c|; the first lift with 2*max|c| * 2^_MARGIN_BITS below the
    modulus goes to the one exact check, which accepts it, and the lift is
    in normal form with 1 at (d2, 0)."""
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


def test_lift_carries_on_past_a_refused_lift(monkeypatch):
    """A lift that clears the margin but that the exact check refuses is
    not returned: the lift takes the next prime and checks again.  Level 13
    clears the margin at two primes, so it returns after three."""
    checked = []
    failure = modeq.certificate_failure
    d1, d2 = predict_degrees(13)
    matrix = MonomialMatrix(13, d1, d2, 2 * d1 * d2 + 1)

    def reject_first(n, candidate, ws=None):
        checked.append([candidate.coeff(*ij) for ij in matrix.order])
        return "rejected" if len(checked) == 1 else failure(n, candidate, ws)

    monkeypatch.setattr(modeq, "certificate_failure", reject_first)
    kernel = kernel_int_crt(matrix)
    assert kernel.primes_used == 3
    assert checked == [kernel.vector, kernel.vector]
    assert BivarPoly(dict(zip(matrix.order, kernel.vector))) == golden_poly(13)


def test_lift_checks_once_at_the_fewest_primes_that_clear_the_margin(monkeypatch):
    """At every pinned level 2-30, a solve calls certificate_failure once,
    on the lift from the fewest primes whose product M exceeds
    2*max|c| * 2^_MARGIN_BITS.  Every earlier lift, wrong or not, fails the
    margin at no cost; a lift that went to the certificate without it
    would be a second call."""
    failure = modeq.certificate_failure
    calls = []
    monkeypatch.setattr(modeq, "certificate_failure",
                        lambda *args: calls.append(args[0]) or failure(*args))
    margin = 1 << modeq._MARGIN_BITS
    for n in range(2, 31):
        calls.clear()
        d1, d2 = predict_degrees(n)
        matrix = MonomialMatrix(n, d1, d2, max(certificate_height(n), n * (d1 + 1)))
        kernel = kernel_int_crt(matrix)
        assert calls == [n], n
        bound = 2 * max(map(abs, kernel.vector)) * margin
        modulus, fewest = 1, 0
        for fewest, p in enumerate(kernel_primes(), 1):
            modulus *= p
            if modulus > bound:
                break
        assert kernel.primes_used == fewest, n


def test_certificate_never_runs_below_its_height(solved):
    """An expansion of w shorter than certificate_height(n) is refused, in
    a cache check and in the lift alike, not read as a lower height.  The
    lift reads w below q^(n*(d1 + 1)), past the height at odd levels (35
    against 13 at level 5, 90 against 55 at level 9), so only even levels
    such as 10 (130 against 145) and 14 (238 against 257) can give the
    lift a shorter expansion."""
    for n in (5, 9, 10):
        poly, height = solved(n).poly, certificate_height(n)
        assert certificate_failure(n, poly, named_w().expand(height + 7)) is None
        with pytest.raises(ValueError, match="certificate height"):
            certificate_failure(n, poly, named_w().expand(height - 1))
    for n in (10, 14):
        d1, d2 = predict_degrees(n)
        short = MonomialMatrix(n, d1, d2, certificate_height(n) - 1)
        with pytest.raises(ValueError, match="certificate height"):
            kernel_int_crt(short)


def test_residual_detects_one_perturbed_coefficient(solved):
    """The Horner-rule residual of F_n with one coefficient changed is
    nonzero, and it equals the exact monomial matrix of the oracle times
    the coefficient vector, row by row."""
    for n in (7, 13):
        r = solved(n)
        coeffs = dict(r.poly.coeffs)
        coeffs[(3, 2)] = coeffs.get((3, 2), 0) + 1
        res = residual_series(BivarPoly(coeffs), n, named_w().expand(r.precision_used))
        assert not res.is_zero, n
        assert res.prec == r.precision_used
        rows, order = monomial_matrix(n, r.d1, r.d2, r.precision_used)
        vector = [coeffs.get(ij, 0) for ij in order]
        assert [res.coeff(e) for e in range(res.prec)] == [
            sum(x * c for x, c in zip(row, vector)) for row in rows], n


def test_fresh_solve_expands_w_once(monkeypatch):
    """The exact check reads the expansion the matrix was built from: w is
    expanded once, to the q^399 the level-19 power sums read, and the
    certificate reads it below its height 134."""
    heights = []
    expand = EtaQuotient.expand

    def spy(self, prec):
        heights.append(prec)
        return expand(self, prec)

    monkeypatch.setattr(EtaQuotient, "expand", spy)
    solve_modular_equation(19)
    assert certificate_height(19) == 134
    assert heights.count(19 * (predict_degrees(19)[0] + 1)) == 1
    assert certificate_height(19) not in heights


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
    # one diagonal coefficient off F_5 keeps the symmetry and breaks the
    # Fricke twist, which runs before the residual
    coeffs = dict(poly.coeffs)
    coeffs[(1, 1)] += 1
    assert certificate_failure(5, BivarPoly(coeffs)) == FRICKE_REFUSAL
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
        assert poles == 2 * d1 * d2, n


def test_precision_used_is_the_certificate_height(solved, monkeypatch):
    """floor(2*d1*d2/r) + 1, r = 6 at n prime to 6, 3 at odd n with 3 | n
    and 2 at even n, one cusp for each involution that loses no order;
    d1 = d2 through level 200, and certificate_height refuses a level
    where they differ."""
    expected = {2: 5, 3: 7, 4: 17, 5: 13, 6: 37, 7: 22, 9: 55, 13: 66, 19: 134, 24: 577,
                25: 301, 27: 487, 48: 2305}
    assert {n: certificate_height(n) for n in expected} == expected
    for n in range(2, 201):
        d1, d2 = predict_degrees(n)
        assert d1 == d2, n
        r = 6 if gcd(n, 6) == 1 else 3 if n % 2 else 2
        if n <= 60:
            assert certificate_height(n) == 2 * d1 * d2 // r + 1, n
            assert r == {1: 2, 2: 3, 3: 6}[len(involutions(n))], n
    for n in range(2, 14):
        assert solved(n).precision_used == certificate_height(n), n
    monkeypatch.setattr(modeq, "predict_degrees", lambda n: (3, 2))
    with pytest.raises(AssertionError, match="differs"):
        certificate_height(2)


# w* = eta(t)^2 eta(18t) / (eta(2t) eta(9t)^2), with w(-1/(18*tau)) = w*/3
W_STAR = EtaQuotient(18, {1: 2, 2: -1, 9: -2, 18: 1})


def test_w_star_times_one_minus_w_is_one_minus_3w():
    """Fact 1 of the twist, w* (1 - w) = 1 - 3w on Gamma0(18).  w and w*
    each have one simple pole, at different cusps other than infinity, so
    w* (1 - w) - (1 - 3w) has at most two poles, and Gamma0(18) has no
    elliptic points: vanishing below q^3 proves it is 0.  Checked to q^60
    as well."""
    poles = [[co for co in divisor(f) if co.order < 0] for f in (named_w(), W_STAR)]
    assert [[co.order for co in p] for p in poles] == [[-1], [-1]]
    (pole_w,), (pole_star,) = poles
    assert len({pole_w.cusp, pole_star.cusp, INFINITY}) == 3
    for prec in (3, 60):
        ws, stars = named_w().expand(prec), W_STAR.expand(prec)
        diff = stars * (1 - ws) - (1 - 3 * ws)
        assert diff.is_zero and diff.prec == prec, prec


def test_w_at_the_fricke_image_is_m_of_w():
    """w(-1/(18*tau)) = M(w(tau)), M(t) = (1 - 3t)/(3 - 3t), in complex
    floats at tau = 0.2 + 0.25i, whose image has imaginary part 0.135;
    q^1000 there is below 1e-300."""
    ws = named_w().expand(1000)

    def w(z):
        q = cmath.exp(2j * pi * z)
        total = 0j
        for coeff in reversed(ws.coeffs):
            total = total * q + coeff
        return total * q ** ws.val

    tau = complex(0.2, 0.25)
    image = -1 / (18 * tau)
    assert abs(cmath.exp(2j * pi * image)) ** 1000 < 1e-300
    assert abs(w(image) - (1 - 3 * w(tau)) / (3 - 3 * w(tau))) < 1e-12
    assert abs(w(image) - w(tau)) > 1e-3  # the identity is not vacuous


# 1/w* = eta(2t) eta(9t)^2 / (eta(t)^2 eta(18t)), with w(W_2 tau) = 1/w*
W_STAR_INVERSE = EtaQuotient(18, {1: -2, 2: 1, 9: 2, 18: -1})


def test_w_at_the_w2_image_is_m2_of_w_as_series():
    """(1 - 3w)/w* = 1 - w, the series form of w o W_2 = 1/w* = M2(w),
    M2(t) = (1 - t)/(1 - 3t), below q^60; it is w* (1 - w) = 1 - 3w again."""
    ws, inverse = named_w().expand(60), W_STAR_INVERSE.expand(60)
    diff = inverse * (1 - 3 * ws) - (1 - ws)
    assert diff.is_zero and diff.prec == 60


def test_w_at_the_w2_image_is_m2_of_w():
    """w(W_2 tau) = M2(w(tau)) for W_2 = [[2, 1], [18, 10]] of level 18, in
    complex floats at tau = -0.55 + 0.0786i, whose image has imaginary part
    0.0782, close to the most a W_2 with lower-left 18 allows at both
    points, 1/sqrt(162); q^1200 there is below 1e-250.  The constant is 1,
    as the module docstring derives."""
    ws = named_w().expand(1200)

    def w(z):
        q = cmath.exp(2j * pi * z)
        total = 0j
        for coeff in reversed(ws.coeffs):
            total = total * q + coeff
        return total * q ** ws.val

    tau = complex(-0.55, 1 / sqrt(162))
    image = (2 * tau + 1) / (18 * tau + 10)
    assert min(tau.imag, image.imag) > 0.078
    assert abs(cmath.exp(2j * pi * image)) ** 1200 < 1e-250
    assert abs(w(image) - (1 - w(tau)) / (1 - 3 * w(tau))) < 1e-12
    assert abs(w(image) - w(tau)) > 1e-3  # the identity is not vacuous


def test_fricke_involution_carries_divisors_to_those_of_w_star():
    """w o W_18n = w*(n*tau)/3 and w(n*tau) o W_18n = w*/3, W_18n the
    Fricke involution tau -> -1/(18*n*tau), force ord_x(w*(n*tau)) =
    ord_(W_18n x)(w) and ord_x(w*) = ord_(W_18n x)(w(n*tau)) at every cusp
    x of Gamma0(18n).  W_18n permutes the cusps and sends infinity to 0."""
    for n in range(2, 25):
        level = 18 * n
        ord_w, ord_v = modeq._cusp_orders(n)
        star_w, star_v = ({co.cusp: co.order for co in divisor(f)}
                          for f in (W_STAR.rescale(n), W_STAR.lift(level)))
        images = {x: canonical(level, Cusp.make(-x.c, level * x.a)) for x in cusp_set(level)}
        assert sorted(images.values(), key=str) == sorted(cusp_set(level), key=str), n
        assert images[INFINITY] == canonical(level, ZERO) != INFINITY, n
        for x, image in images.items():
            assert (star_w[x], star_v[x]) == (ord_w[image], ord_v[image]), (n, x)


def fricke_twist(poly, d):
    return mobius_twist(poly, d, modeq.FRICKE_MAP, True)


def test_fricke_twist_agrees_with_the_binomial_expansion(solved):
    """The Fricke twist, mobius_twist with M and the swap, against the
    term-by-term oracle, on F_n and on a polynomial with every coefficient
    nonzero; the twist of F_n is 6^d F_n, and twisting twice multiplies by
    36^d, since M is an involution and (3 - 3t)(3 - 3M(t)) = 6."""
    assert modeq.FRICKE_MAP == FRICKE_MAP
    for n in (2, 3, 5, 8, 13):
        d = solved(n).d2
        poly = solved(n).poly
        dense = BivarPoly({(i, j): 1 + i + 2 * j for i in range(d + 1) for j in range(d + 1)})
        for f in (poly, dense):
            assert fricke_twist(f, d) == BivarPoly(
                twist_term_by_term(f.coeffs, d, FRICKE_MAP, True)), n
        assert fricke_twist(poly, d) == BivarPoly({ij: 6 ** d * c for ij, c in poly.coeffs.items()})
        assert fricke_twist(fricke_twist(dense, d), d) == BivarPoly(
            {ij: 36 ** d * c for ij, c in dense.coeffs.items()}), n


def test_mobius_twist_agrees_with_the_term_by_term_oracle(solved):
    """Every twist of involutions(n) against the oracle, on F_n and on a
    polynomial with every coefficient nonzero.  The maps and their order
    are the oracle's: at n prime to 6 the swap first, then M with the
    swap, then M2 at odd n.  Twisting twice by M2 multiplies by 4^d, since
    (1 - 3t)(1 - 3M2(t)) = -2."""
    assert modeq.W2_MAP == W2_MAP
    for n in (2, 3, 5, 8, 9, 13):
        d = solved(n).d2
        dense = BivarPoly({(i, j): 1 + i + 2 * j for i in range(d + 1) for j in range(d + 1)})
        expected = [(m, swap) for m, swap, _ in checked_twists(n, d)]
        assert [(m, swap) for _, m, swap in involutions(n)] == expected, n
        for f in (solved(n).poly, dense):
            for m, swap in expected:
                assert mobius_twist(f, d, m, swap) == BivarPoly(
                    twist_term_by_term(f.coeffs, d, m, swap)), (n, m)
        twice = mobius_twist(mobius_twist(dense, d, W2_MAP, False), d, W2_MAP, False)
        assert twice == BivarPoly({ij: 4 ** d * c for ij, c in dense.coeffs.items()}), n


def test_f_n_is_the_only_relation_fixed_by_every_checked_twist(solved):
    """In the subspace of the (d2, d1) box that every twist certificate_failure
    checks fixes with F_n's constant c, F_n spans the relations of the exact
    monomial matrix with certificate_height(n) rows.  The subspace is
    written in a basis of the space the swap fixes (symmetric vectors, at n
    prime to 6; else the monomials), and each other twist T enters as the
    rows of T - c.  The rank mod 2^61 - 1 bounds the rank over Q from
    below, so rank one less than the basis, with F_n in the kernel, proves
    the claim."""
    p = (1 << 61) - 1
    for n in (5, 7, 9, 11, 13):
        d1, d2 = predict_degrees(n)
        rows, order = monomial_matrix(n, d1, d2, certificate_height(n))
        col = {ij: k for k, ij in enumerate(order)}
        twists = checked_twists(n, d2)
        symmetric = (None, True, 1) in twists
        positions = [(i, j) for i, j in order if i <= j or not symmetric]
        basis = [{(i, j): 1, (j, i): 1} if symmetric else {(i, j): 1} for i, j in positions]
        system = [[sum(row[col[ij]] for ij in v) for v in basis] for row in rows]
        for m, swap, c in twists:
            if m is not None:
                images = [twist_term_by_term(v, d2, m, swap) for v in basis]
                system += [[image.get(ij, 0) - c * v.get(ij, 0) for v, image in zip(basis, images)]
                           for ij in positions]
        f = [solved(n).poly.coeff(*ij) for ij in positions]
        assert BivarPoly({ij: x for v, x in zip(basis, f) for ij in v}) == solved(n).poly, n
        assert all(sum(x * y for x, y in zip(row, f)) == 0 for row in system), n
        assert rank_mod(system, p) == len(basis) - 1, n


SWAP_REFUSAL = "not invariant under the Atkin-Lehner involution W_n (X <-> Y)"
FRICKE_REFUSAL = "not invariant under the Fricke involution W_18n"
W2_REFUSAL = "not invariant under the Atkin-Lehner involution W_2"


def test_asymmetric_lift_is_refused_by_the_wn_twist_before_its_residual(monkeypatch, solved):
    """The lift accepts a vector through certificate_failure alone, shape
    first: a lift of F_5 with one coefficient off the diagonal changed
    keeps its box, bidegree and leading column.  It clears the margin at
    every prime, and certificate_failure refuses it each time as not
    symmetric, by the twist of W_n; the residual never runs."""
    n = 5
    d1, d2 = predict_degrees(n)
    coeffs = dict(solved(n).poly.coeffs)
    coeffs[(1, 2)] = coeffs.get((1, 2), 0) + 1
    asymmetric = BivarPoly(coeffs)
    assert (asymmetric.degx, asymmetric.degy) == (d2, d1)
    assert certificate_failure(n, asymmetric) == SWAP_REFUSAL
    vector = [asymmetric.coeff(i, j) for i in range(d2 + 1) for j in range(d1 + 1)]
    primes, residuals = [], []
    monkeypatch.setattr(modp, "conjugate_polynomial_mod",
                        lambda *args: primes.append(args[-1]) or [c % args[-1] for c in vector])
    monkeypatch.setattr(modeq, "residual_series", lambda *args: residuals.append(args))
    with pytest.raises(RuntimeError):
        solve_modular_equation(n)
    assert len(primes) == modeq._MAX_PRIMES
    assert residuals == []


def test_candidate_failing_only_the_twist_is_refused_before_its_residual(solved):
    """At n = 5 the full box has a 36-dimensional kernel at height 13, so
    the residual there also vanishes for F_5 plus a relation r with no
    X^6 term.  That candidate passes the box, bidegree and leading-column
    checks, and the full valence bound shows it is no relation at all;
    certificate_failure refuses it by the first twist, the swap of W_n,
    before its residual."""
    n = 5
    d1, d2 = predict_degrees(n)
    height = certificate_height(n)
    rows, order = monomial_matrix(n, d1, d2, height)
    assert len(nullspace_exact(rows)) == 36
    no_lead = [[int(ij == (d2, j)) for ij in order] for j in range(d1 + 1)]
    relation = BivarPoly(dict(zip(order, primitive(nullspace_exact(rows + no_lead)[0]))))
    f = solved(n).poly
    candidate = BivarPoly({ij: f.coeff(*ij) + relation.coeff(*ij) for ij in order})
    assert (candidate.degx, candidate.degy) == (d2, d1)
    assert residual_series(candidate, n, named_w().expand(height)).is_zero
    assert not residual_series(candidate, n, named_w().expand(2 * d1 * d2 + 1)).is_zero
    assert certificate_failure(n, candidate) == SWAP_REFUSAL


def test_symmetric_fricke_invariant_candidate_is_refused_for_w2_before_its_residual(
        monkeypatch, solved):
    """At n = 7 exactly one relation r of the monomial matrix at height 22
    is symmetric, has no X^8 term and is fixed by the Fricke twist with
    F_7's constant 6^8 (an exact nullspace in the basis of symmetric
    vectors).  F_7 + r passes the shape checks, the swap and the Fricke
    twist, and its residual vanishes below q^22 but not below the full
    valence bound; only the W_2 twist refuses it, and the residual never
    runs."""
    n = 7
    d1, d2 = predict_degrees(n)
    height = certificate_height(n)
    rows, order = monomial_matrix(n, d1, d2, height)
    col = {ij: k for k, ij in enumerate(order)}
    basis = [{(i, j): 1, (j, i): 1} for i, j in order if i <= j]
    images = [twist_term_by_term(v, d2, FRICKE_MAP, True) for v in basis]
    system = [[sum(row[col[ij]] for ij in v) for v in basis] for row in rows]
    system += [[image.get(ij, 0) - 6 ** d2 * v.get(ij, 0) for v, image in zip(basis, images)]
               for ij in order]
    system += [[v.get((d2, j), 0) for v in basis] for j in range(d1 + 1)]
    [vector] = nullspace_exact(system)
    relation = {ij: x for v, x in zip(basis, primitive(vector)) for ij in v if x}
    f = solved(n).poly
    candidate = BivarPoly({ij: f.coeff(*ij) + relation.get(ij, 0) for ij in order})
    assert candidate.is_symmetric() and (candidate.degx, candidate.degy) == (d2, d1)
    assert fricke_twist(candidate, d2) == BivarPoly(
        {ij: 6 ** d2 * c for ij, c in candidate.coeffs.items()})
    assert residual_series(candidate, n, named_w().expand(height)).is_zero
    assert not residual_series(candidate, n, named_w().expand(2 * d1 * d2 + 1)).is_zero
    residuals = []
    monkeypatch.setattr(modeq, "residual_series", lambda *args: residuals.append(args))
    assert certificate_failure(n, candidate) == W2_REFUSAL
    assert residuals == []


def test_twist_invariant_perturbation_is_rejected_for_its_residual(solved):
    """A perturbation P fixed by every checked twist with F_n's constant
    and with no X^d term (invariant_perturbation) keeps F_n + P through
    every shape and twist check, and its residual refuses it."""
    for n in (4, 5, 7, 12, 13):
        d = solved(n).d2
        p = invariant_perturbation(n, d)
        assert not any(i == d for i, _ in p), n
        bad = BivarPoly({ij: solved(n).poly.coeff(*ij) + p.get(ij, 0)
                         for ij in {*solved(n).poly.coeffs, *p}})
        for m, swap, c in checked_twists(n, d):
            assert mobius_twist(bad, d, m, swap) == BivarPoly(
                {ij: c * v for ij, v in bad.coeffs.items()}), (n, m)
        assert "residual" in certificate_failure(n, bad), n


def test_certificate_height_covers_what_the_lift_reads():
    """The power sums read w below q^(n*(d1 + 1)).  That is past the
    certificate height at every odd level (134 against 399 at level 19)
    and at some even ones (5 against 6 at level 2, 577 against 600 at
    level 24), but not at others (145 against 130 at level 10), so a solve
    expands w to the larger of the two, and a MonomialMatrix refuses a
    lower height."""
    for n in range(3, 61, 2):
        assert certificate_height(n) < n * (predict_degrees(n)[0] + 1), n
    assert [(certificate_height(n), n * (predict_degrees(n)[0] + 1))
            for n in (2, 10, 19, 24)] == [(5, 6), (145, 130), (134, 399), (577, 600)]
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
    # a forced nonzero that is missing must fail
    pattern = predict_coefficient_pattern(2)
    coeffs = solved(2).poly.coeffs
    assert pattern.forced_nonzero <= coeffs.keys()
    for ij in pattern.forced_nonzero:
        poly = BivarPoly({k: c for k, c in coeffs.items() if k != ij})
        assert not check_pattern(solved(2)._replace(poly=poly), pattern), ij
    with pytest.raises(ValueError, match="different levels"):
        check_pattern(solved(3), pattern)


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
