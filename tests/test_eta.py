import random
from fractions import Fraction

import pytest

from ordersix.cusps import Cusp, INFINITY
from ordersix.eta import (
    EtaQuotient,
    NotModularError,
    divisor,
    eisenstein_e4,
    named_j,
    named_w,
    named_x,
    pole_zero_class,
    total_pole_degree,
    total_zero_degree,
)
from ordersix.series import QSeries

from helpers import poly_div, sparse_product


W_LEVELS = (18, 36, 54, 90, 126, 198, 234)


def test_weights():
    assert named_w().weight() == 0
    assert EtaQuotient(1, {1: 24}).weight() == 12
    assert EtaQuotient(18, {}).weight() == 0


def test_modularity_predicate():
    assert named_w().is_modular_function()
    assert not EtaQuotient(2, {1: 1, 2: -1}).is_modular_function()
    assert EtaQuotient(18, {}).is_modular_function()
    assert not named_x().is_modular_function()
    assert not EtaQuotient(1, {1: 1}).is_modular_function()  # eta(tau), weight 1/2


def test_invalid_divisor_rejected():
    for d in (5, 0, -1):
        with pytest.raises(ValueError):
            EtaQuotient(18, {d: 1})


def test_w_expansion_printed_prefix():
    s = named_w().expand(8)
    assert [s.coeff(k) for k in range(1, 8)] == [1, -1, 1, -2, 3, -4, 5]
    assert s.h == 1 and s.val == 1


def test_x_expansion_valuation():
    s = named_x().expand(12)
    assert s.h == 4
    assert s.valuation() == Fraction(1, 4)


def test_trivial_quotient_expands_to_one():
    assert EtaQuotient(18, {1: 0}).expand(5) == 1


def test_x_against_defining_product():
    # oracle: q^(1/4) prod (1-q^(6n-1))(1-q^(6n-5)) / ((1-q^(6n-2))(1-q^(6n-4)))
    P = 50
    num_exps = [e for n in range(1, P // 6 + 2) for e in (6 * n - 1, 6 * n - 5) if e < P]
    den_exps = [e for n in range(1, P // 6 + 2) for e in (6 * n - 2, 6 * n - 4) if e < P]
    quotient = poly_div(sparse_product(num_exps, P), sparse_product(den_exps, P), P)
    expected = QSeries(quotient, val=0, prec=P).shift(Fraction(1, 4))
    assert named_x().expand(50) == expected


def test_w_is_product_of_x_and_rescaled_x():
    P = 100
    x = named_x().expand(P)
    assert x * x.rescale(3) == named_w().expand(P)
    assert (named_x().rescale(3) * named_x()).exponents == named_w().exponents


def test_w_times_psi_is_q_psi_of_q9():
    """w psi(q) = q psi(q^9), psi(q) = sum_n q^(n(n+1)/2): checked by
    one product, so expand's divisions meet an identity they do not use."""
    prec = 3137

    def psi(scale, shift):
        coeffs = [0] * prec
        n = 0
        while shift + scale * n * (n + 1) // 2 < prec:
            coeffs[shift + scale * n * (n + 1) // 2] = 1
            n += 1
        return QSeries(coeffs, prec=prec)

    lhs = named_w().expand(prec) * psi(1, 0)
    assert lhs.precision() == prec
    assert lhs == psi(9, 1)


def test_order_at_cusp_table():
    w = named_w()
    expected = {
        INFINITY: 1, Cusp(0, 1): 0, Cusp(1, 2): -1, Cusp(1, 3): 0,
        Cusp(2, 3): 0, Cusp(1, 6): 0, Cusp(5, 6): 0, Cusp(1, 9): 0,
    }
    for cusp, order in expected.items():
        assert w.order_at_cusp(cusp) == order
    # canonicalization maps non-divisor denominators back first
    assert w.order_at_cusp(Cusp(1, 4)) == -1
    assert w.order_at_cusp(Cusp(1, 20)) == -1


def test_order_at_cusp_lifted_levels():
    w = named_w()
    assert w.lift(90).order_at_cusp(Cusp(1, 2)) == -5
    assert w.rescale(5).order_at_cusp(Cusp(1, 2)) == -1
    assert EtaQuotient(1, {1: 24}).order_at_cusp(INFINITY) == 1


def test_divisor_table1():
    div = divisor(named_w())
    assert [co.order for co in div] == [1, 0, -1, 0, 0, 0, 0, 0]
    assert total_pole_degree(named_w()) == 1
    assert total_zero_degree(named_w()) == 1


def test_divisor_level54():
    w54 = named_w().lift(54)
    nonzero = {str(co.cusp): co.order for co in divisor(w54) if co.order}
    assert nonzero == {"inf": 1, "1/2": -3, "1/18": 1, "5/18": 1}
    w3 = named_w().rescale(3)
    nonzero3 = {str(co.cusp): co.order for co in divisor(w3) if co.order}
    assert nonzero3 == {"inf": 3, "1/2": -1, "1/6": -1, "5/6": -1}
    assert total_pole_degree(w54) == total_pole_degree(w3) == 3


def test_divisor_trivial_quotient():
    assert all(co.order == 0 for co in divisor(EtaQuotient(18, {})))


def test_total_pole_degree_at_prime_levels():
    w = named_w()
    for p in (5, 7, 11, 13):
        assert total_pole_degree(w.lift(18 * p)) == p + 1
        assert total_pole_degree(w.rescale(p)) == p + 1


def test_divisor_requires_modular_function():
    with pytest.raises(NotModularError):
        divisor(named_x())
    with pytest.raises(NotModularError):
        total_pole_degree(named_x())


def test_pole_zero_class():
    assert pole_zero_class(Cusp(1, 2)) == "pole"
    assert pole_zero_class(Cusp(1, 18)) == "zero"
    assert pole_zero_class(Cusp(1, 3)) == "regular"
    assert pole_zero_class(INFINITY) == "zero"
    assert pole_zero_class(Cusp(5, 34)) == "pole"
    # confirmed against the order formula at a level containing 34
    w306 = named_w().lift(306)
    assert w306.order_at_cusp(Cusp(5, 34)) < 0


def test_pole_zero_class_consistent_with_orders():
    w = named_w()
    for n in (1, 2, 3, 5, 7, 11, 13):
        lifted = w.lift(18 * n)
        for co in divisor(lifted):
            kind = pole_zero_class(co.cusp)
            if kind == "pole":
                assert co.order < 0, (n, str(co.cusp))
            elif kind == "zero":
                assert co.order > 0, (n, str(co.cusp))
            else:
                assert co.order == 0, (n, str(co.cusp))


def test_degree_balance():
    w = named_w()
    for n in (1, 2, 3, 5, 7, 11, 13):
        lifted = w.lift(18 * n)
        assert total_zero_degree(lifted) == total_pole_degree(lifted)


def test_expand_is_multiplicative():
    rng = random.Random(8)
    levels = (6, 12, 18)
    for _ in range(25):
        lf = rng.choice(levels)
        lg = rng.choice(levels)
        f = EtaQuotient(lf, {d: rng.randint(-2, 2) for d in (1, 2, 3, 6) if lf % d == 0})
        g = EtaQuotient(lg, {d: rng.randint(-2, 2) for d in (1, 2, 3, 6) if lg % d == 0})
        assert (f * g).expand(30) == f.expand(30) * g.expand(30)
    with pytest.raises(TypeError, match="unsupported operand"):
        named_w() * 2


def test_order_at_infinity_matches_valuation():
    quotients = [
        named_w(),
        named_x(),
        EtaQuotient(1, {1: 24}),
        EtaQuotient(12, {1: 2, 2: -1, 3: 2, 12: -3}),
        EtaQuotient(18, {2: 1, 9: 2, 18: -3}),
    ]
    for f in quotients:
        s = f.expand(30)
        assert f.order_at_cusp(INFINITY) == s.valuation(), f


def test_lift_preserves_expansion():
    w = named_w()
    for n in (2, 3, 5):
        assert w.lift(18 * n).expand(40) == w.expand(40)


def test_rescaling_consistency():
    f = named_w()
    for n in (2, 3):
        assert f.expand(20).rescale(n) == f.rescale(n).expand(20 * n)


def test_bad_levels_and_precisions_are_refused():
    w = named_w()
    with pytest.raises(ValueError, match="multiple of the level"):
        w.lift(20)
    with pytest.raises(ValueError, match="positive"):
        w.rescale(0)
    for expand in (w.expand, eisenstein_e4, named_j):
        with pytest.raises(ValueError, match="at least 1"):
            expand(0)


def test_divisor_orders_are_integral():
    for n in (1, 2, 3, 5):
        for co in divisor(named_w().lift(18 * n)):
            assert isinstance(co.order, int)


def test_eisenstein_and_j_prefix():
    # sigma_3 computed naively as the oracle
    def sigma3(n):
        return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)

    e4 = eisenstein_e4(8)
    assert e4.coeff(0) == 1
    for n in range(1, 8):
        assert e4.coeff(n) == 240 * sigma3(n)
    j = named_j(3)
    assert [j.coeff(k) for k in (-1, 0, 1, 2)] == [1, 744, 196884, 21493760]
