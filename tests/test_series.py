import math
import random
import time
from fractions import Fraction

import pytest

from ordersix.series import (
    PrecisionError,
    QSeries,
    ZeroSeriesError,
    _conv_int,
    _pack,
    _pack_signed,
    _unpack,
    _unpack_signed,
    euler_product,
    monomial,
)

from helpers import direct_euler, poly_mul, random_series


# -------------------- construction --------------------

def test_leading_zeros_are_stripped_in_linear_time():
    """A certified residual is an all-zero window as long as the
    certificate height; 200,000 leading zeros construct in well under a
    second, with or without a nonzero term after them."""
    start = time.perf_counter()
    tail = QSeries([0] * 200_000 + [5, 0], val=-3)
    zero = QSeries([0] * 200_000, val=-3)
    assert time.perf_counter() - start < 1.0
    assert (tail.val, tail.prec, tail.coeffs) == (199_997, 199_999, (5, 0))
    assert (zero.val, zero.prec, zero.coeffs, zero.is_zero) == (199_997, 199_997, (), True)


def test_repr_signs_each_term():
    assert repr(QSeries([2, -1], val=1, prec=3)) == "2*q - q^2 + O(q^3)"
    assert repr(QSeries([-2, 1], val=1, prec=3)) == "-2*q + q^2 + O(q^3)"
    assert repr(QSeries.zero(3)) == "0 + O(q^3)"
    assert repr(QSeries.zero(0)) == "0 + O(q^0)"


def test_repr_marks_left_out_terms_only():
    """The marker " + ..." follows the tenth nonzero term only when an
    eleventh exists."""
    assert "..." not in repr(QSeries([1] * 10, prec=10))
    assert repr(QSeries([1] * 11, prec=11)).endswith(" + q^9 + ... + O(q^11)")


@pytest.mark.parametrize("name, e, plain, latex", [
    ("q", 0, "", ""),
    ("X", 1, "X", "X"),
    ("q", Fraction(1), "q", "q"),
    ("X", 2, "X^2", "X^2"),
    ("Y", 9, "Y^9", "Y^9"),
    ("q", Fraction(9), "q^9", "q^9"),
    ("X", 10, "X^10", "X^{10}"),
    ("q", 12, "q^12", "q^{12}"),
    ("q", -1, "q^-1", "q^{-1}"),
    ("q", -12, "q^-12", "q^{-12}"),
    ("q", Fraction(1, 4), "q^(1/4)", "q^{1/4}"),
    ("q", Fraction(5, 4), "q^(5/4)", "q^{5/4}"),
    ("q", Fraction(-1, 24), "q^(-1/24)", "q^{-1/24}"),
    ("q", Fraction(-25, 12), "q^(-25/12)", "q^{-25/12}"),
])
def test_monomial_exponent_rule(name, e, plain, latex):
    assert monomial(name, e) == monomial(name, e, "plain") == plain
    assert monomial(name, e, "latex") == latex


# -------------------- add --------------------

def test_add_cancellation():
    a = QSeries([1, -1], val=1, prec=10)  # q - q^2
    b = QSeries([1], val=2, prec=10)      # q^2
    assert a + b == QSeries([1], val=1, prec=10)


def test_add_zero_identity():
    f = QSeries([3, 0, -2], val=2, prec=9)
    z = QSeries.zero(9)
    out = f + z
    assert out.coeffs == f.coeffs and out.val == f.val and out.prec == 9
    assert f and not z


def test_add_constants():
    a = QSeries([1, 1], val=0, prec=5)
    b = QSeries([1, -1], val=0, prec=5)
    assert a + b == QSeries([2], val=0, prec=5)


def test_add_min_precision():
    a = QSeries([1], val=0, prec=3)
    b = QSeries([1], val=0, prec=7)
    assert (a + b).prec == 3


# -------------------- mul --------------------

def test_mul_geometric_inverse():
    one_minus_q = QSeries([1, -1], val=0, prec=20)
    geo = QSeries([1] * 20, val=0, prec=20)
    assert one_minus_q * geo == 1


def test_mul_fractional_exponents():
    a = QSeries([1], val=1, prec=12, h=4)  # q^(1/4) + O(q^3)
    b = QSeries([1], val=3, prec=12, h=4)  # q^(3/4) + O(q^3)
    prod = a * b
    assert prod.valuation() == 1 and prod.coeff(1) == 1
    assert prod.precision() == Fraction(13, 4)


def test_mul_eta_square_against_direct_product():
    # oracle: direct truncated product of (1-q^n)^2
    expected = poly_mul(direct_euler(1, 11), direct_euler(1, 11), 11)
    assert expected[:7] == [1, -2, -1, 2, 1, 2, -2]
    e = euler_product(1, 11)
    assert list((e * e).coeffs) == expected


def test_mul_precision_rule():
    a = QSeries([1, 2], val=1, prec=9)
    b = QSeries([5], val=3, prec=7)
    assert (a * b).prec == min(9 + 3, 7 + 1)


# -------------------- invert --------------------

def test_invert_geometric():
    inv = QSeries([1, -1], val=0, prec=12).invert()
    assert all(inv.coeff(k) == 1 for k in range(12))


def test_invert_monomial():
    inv = QSeries([1], val=1, prec=5).invert()
    assert inv.val == -1 and inv.coeff(-1) == 1


def test_invert_w_expansion_round_trip():
    from ordersix.eta import named_w

    w = named_w().expand(52)
    f = w.invert()
    assert f.val == -1
    assert (w * f) == 1
    assert (w * f).prec >= 50


def test_invert_zero_rejected():
    with pytest.raises(ZeroSeriesError):
        QSeries.zero(5).invert()


def _dense(s, h):
    """The coefficients of s from its valuation on, on the 1/h lattice."""
    out = [0] * ((s.prec - s.val) * (h // s.h))
    out[:: h // s.h] = s.coeffs
    return out


def test_division_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a = random_series(rng, nonzero=True)
        b = random_series(rng, nonzero=True)
        q = a / b
        h = math.lcm(a.h, b.h)
        assert q.h == h
        assert q.valuation() == a.valuation() - b.valuation()
        assert q.precision() == q.valuation() + min(
            a.precision() - a.valuation(), b.precision() - b.valuation())
        n = q.prec - q.val
        assert poly_mul(list(q.coeffs), _dense(b, h), n) == _dense(a, h)[:n]
        assert (a / b) * b == a
        assert (a * b) / b == a
    quotient = QSeries.zero(5) / QSeries([1, 3], val=2, prec=6)
    assert quotient.is_zero and quotient.precision() == 3
    s = QSeries([1, 2, 3], val=0, prec=3)
    with pytest.raises(ZeroSeriesError):
        s / QSeries.zero(3)
    with pytest.raises(ValueError):
        s / QSeries([2, 1], val=1, prec=4)
    with pytest.raises(TypeError):
        s / 3


def test_only_integer_coefficients_and_unit_leads():
    with pytest.raises(ValueError):
        QSeries([2, 1], val=0, prec=6).invert()
    with pytest.raises(ValueError):
        QSeries([-3], val=2, prec=6).invert()
    for bad in (Fraction(1, 2), Fraction(2, 1), 1.0):
        with pytest.raises(TypeError):
            QSeries([1, bad], val=0, prec=4)


# -------------------- pow --------------------

def test_pow_zero_exponent():
    f = QSeries([2, 1], val=3, prec=9)
    assert f ** 0 == 1


def test_pow_monomial():
    assert (QSeries([1], val=1, prec=12) ** 5).coeff(5) == 1


def test_pow_binomial_coefficient():
    p = QSeries([1, -1], val=0, prec=10) ** 24
    assert p.coeff(2) == math.comb(24, 2)


def test_pow_negative():
    f = QSeries([1, 1], val=0, prec=10)
    with pytest.raises(ValueError):
        f ** -2
    with pytest.raises(ValueError):
        QSeries.zero(4) ** -1
    assert (f * f).invert() == f.invert() * f.invert()


# -------------------- rescale --------------------

def test_rescale_simple():
    f = QSeries([1, -1], val=1, prec=3)
    g = f.rescale(3)
    assert g.coeff(3) == 1 and g.coeff(6) == -1 and g.prec == 9


def test_rescale_identity():
    f = QSeries([1, 5, -2], val=-1, prec=2, h=2)
    assert f.rescale(1) is f


def test_bad_arguments_are_refused():
    with pytest.raises(ValueError, match="denominator"):
        QSeries([1], h=0)
    s = QSeries([1, 2])
    with pytest.raises(AttributeError, match="immutable"):
        s.val = 3
    with pytest.raises(ValueError, match="positive"):
        s.rescale(0)
    with pytest.raises(ValueError, match="scale"):
        euler_product(0, 5)
    with pytest.raises(ValueError, match="prec"):
        euler_product(1, 0)
    with pytest.raises(ZeroSeriesError):
        QSeries.zero(4).valuation()
    for op in (lambda: s + 1.5, lambda: s - 1.5, lambda: s * 1.5, lambda: s ** 1.5):
        with pytest.raises(TypeError, match="unsupported operand"):
            op()


def test_rescale_matches_quotient_construction():
    from ordersix.eta import named_w

    w = named_w()
    direct = w.rescale(2).expand(50)
    assert w.expand(25).rescale(2) == direct


# -------------------- euler_product --------------------

def test_euler_product_printed_prefix():
    e = euler_product(1, 13)
    assert list(e.coeffs) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_euler_product_scaled():
    assert list(euler_product(6, 7).coeffs) == [1, 0, 0, 0, 0, 0, -1]


def test_euler_product_trivial():
    assert euler_product(1, 1) == 1


def test_euler_product_against_direct_product_oracle():
    for s in range(1, 21):
        assert list(euler_product(s, 200).coeffs) == direct_euler(s, 200)
    rng = random.Random(5)
    for _ in range(12):
        s = rng.randint(1, 20)
        p = rng.randint(1, 200)
        assert list(euler_product(s, p).coeffs) == direct_euler(s, p)


# -------------------- precision contract --------------------

def test_reading_beyond_precision_is_an_error():
    f = QSeries([1, 2], val=0, prec=2)
    with pytest.raises(PrecisionError):
        f.coeff(2)
    with pytest.raises(PrecisionError):
        euler_product(1, 5).coeff(7)


def test_coeff_off_lattice_and_below_valuation():
    f = QSeries([1], val=4, prec=8, h=4)  # q + O(q^2), h = 4
    assert f.coeff(Fraction(3, 4)) == 0
    assert f.coeff(Fraction(5, 4)) == 0
    assert f.coeff(1) == 1


# -------------------- ring axioms and algebra properties --------------------

def test_ring_axioms_randomized():
    rng = random.Random(20240601)
    for _ in range(200):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        ab, ba = a * b, b * a
        assert ab.val == ba.val and ab.prec == ba.prec and ab.coeffs == ba.coeffs
        assert a * (b + c) == a * b + a * c


def test_invert_two_sided_randomized():
    rng = random.Random(77)
    for _ in range(100):
        a = random_series(rng, nonzero=True)
        inv = a.invert()
        assert a * inv == 1
        assert inv * a == 1


def test_rescale_multiplicative():
    rng = random.Random(3)
    for _ in range(60):
        a = random_series(rng)
        b = random_series(rng)
        n = rng.randint(1, 5)
        left = (a * b).rescale(n)
        right = a.rescale(n) * b.rescale(n)
        assert left.val == right.val and left.prec == right.prec
        assert left.coeffs == right.coeffs


def test_fast_convolution_bit_identical_to_schoolbook():
    rng = random.Random(99)
    for _ in range(250):
        la, lb = rng.randint(1, 50), rng.randint(1, 50)
        mag = 10 ** rng.randint(0, 12)
        a = [rng.randint(-mag, mag) for _ in range(la)]
        b = [rng.randint(-mag, mag) for _ in range(lb)]
        n = rng.randint(1, la + lb + 4)
        assert _conv_int(a, b, n) == poly_mul(a, b, n)
    # coefficients at +-2^k, where equal signs make a product coefficient
    # reach max|a| * max|b| * min(la, lb), the bound the slot size is set
    # by; all-zero operands; and out_len past la + lb - 1
    for k in (0, 1, 7, 8, 15, 16, 31, 32, 63, 64, 100):
        for la, lb in ((1, 1), (2, 7), (16, 16), (40, 3)):
            for sign in (1, -1):
                a = [2 ** k] * la
                b = [sign * 2 ** k] * lb
                mixed = [(-1) ** i * 2 ** k for i in range(lb)]
                for x, y in ((a, b), (b, a), (a, mixed), ([0] * la, b), (a, [0] * lb)):
                    n = len(x) + len(y) + 3
                    assert _conv_int(x, y, n) == poly_mul(x, y, n), (k, la, lb)
                    assert _conv_int(x, y, n)[-4:] == [0] * 4



def test_slot_codec_round_trips_at_every_width():
    """_pack puts each value in its own sb-byte slot, the int
    sum x_i 2^(8*sb*i), on both sides of the 8-byte array('Q') limit, and
    _unpack reads back any prefix, or zeros past the packed slots; the
    signed pair does the same for |x_i| < 2^(8*sb - 1)."""
    rng = random.Random(8)
    for sb in range(1, 12):
        top = 1 << (8 * sb)
        xs = [0, top - 1] + [rng.randrange(top) for _ in range(20)]
        x = _pack(xs, sb)
        assert x == sum(v << (8 * sb * i) for i, v in enumerate(xs)), sb
        assert _unpack(x, len(xs), sb) == xs, sb
        assert _unpack(x, 5, sb) == xs[:5], sb
        assert _unpack(x, len(xs) + 3, sb) == xs + [0] * 3, sb
        half = top >> 1
        ys = [1 - half, half - 1, 0] + [rng.randrange(1 - half, half) for _ in range(20)]
        y = _pack_signed(ys, sb)
        assert y == sum(v << (8 * sb * i) for i, v in enumerate(ys)), sb
        assert _unpack_signed(y, len(ys), len(ys), sb) == ys, sb
        assert _unpack_signed(y, len(ys), 4, sb) == ys[:4], sb


def _on_lattice(rng, g, length, mag=10 ** 6):
    """A random list of the given length, nonzero only at multiples of g,
    with a nonzero entry at g when length > g, so that its lattice is gZ."""
    xs = [rng.randint(-mag, mag) if i % g == 0 else 0 for i in range(length)]
    if length > g:
        xs[g] = rng.choice([-1, 1]) * rng.randint(1, mag)
    return xs


def _packed_lengths(monkeypatch):
    """Spy on series._pack_signed: the lengths of the lists it packs."""
    from ordersix import series

    lengths = []
    pack = series._pack_signed
    monkeypatch.setattr(series, "_pack_signed",
                        lambda xs, sb: lengths.append(len(xs)) or pack(xs, sb))
    return lengths


@pytest.mark.parametrize("g", [2, 3, 4, 12, 18])
def test_convolution_on_a_shared_lattice_packs_its_points_only(monkeypatch, g):
    """Operands on gZ multiply as a[::g] * b[::g] into out[::g], with the
    other entries 0, at every out_len: multiples of g and not, short of
    la + lb - 1 and past it.  A one-term operand, whose lattice is every
    stride, keeps the other operand's g."""
    rng = random.Random(g)
    lengths = _packed_lengths(monkeypatch)
    for _ in range(40):
        a = _on_lattice(rng, g, rng.randint(g + 1, 8 * g))
        b = _on_lattice(rng, g, rng.randint(g + 1, 8 * g))
        for n in (1, g, g + 1, len(a) + len(b) - 1, len(a) + len(b) + g + 2,
                  rng.randint(1, len(a) + len(b) + 2 * g)):
            for x, y in ((a, b), (b, a), (a, [7]), ([-3, 0, 0], b)):
                lengths.clear()
                got = _conv_int(x, y, n)
                assert got == poly_mul(x, y, n), (g, n)
                assert got[1::g] == [0] * len(got[1::g])
                if n > g:
                    assert lengths == [len(x[:n][::g]), len(y[:n][::g])]


def test_convolution_across_coprime_strides_takes_the_full_path(monkeypatch):
    """Strides 2 and 3 share only Z: once out_len reaches both entries
    off index 0 (at 2 and 3), both operands are packed whole."""
    rng = random.Random(23)
    lengths = _packed_lengths(monkeypatch)
    for _ in range(30):
        a = _on_lattice(rng, 2, rng.randint(3, 40))
        b = _on_lattice(rng, 3, rng.randint(4, 40))
        n = rng.randint(4, len(a) + len(b) + 4)
        lengths.clear()
        assert _conv_int(a, b, n) == poly_mul(a, b, n)
        assert lengths == [min(len(a), n), min(len(b), n)]


def test_convolution_with_zero_constant_and_leading_zero_operands(monkeypatch):
    """Empty and all-zero operands give zeros of out_len; constants times
    constants stay at index 0, one slot each however many zeros pad them;
    a leading zero, as in the [0, 1, ...] that residual_series passes for
    w, counts from the list's start, so [0, 1, -1, ...] is on Z and
    [0, 0, 5, 0, 7] on 2Z."""
    rng = random.Random(5)
    w = [0, 1, -1, 1, -2, 2, -1, 0, -1]
    for n in (1, 2, 5, 9, 20):
        for x, y in (([0] * 6, _on_lattice(rng, 4, 13)), ([0, 0], [0]), ([3], [-4, 0, 0]),
                     ([5, 0, 0], [0] * 4), (w, w), ([0, 0, 5, 0, 7], [1, 0, -2]),
                     ([0, 0, 5, 0, 7], w)):
            assert _conv_int(x, y, n) == poly_mul(x, y, n), (x, y, n)
            assert _conv_int(y, x, n) == poly_mul(x, y, n), (x, y, n)
    assert _conv_int([], [1, 2], 3) == [0, 0, 0] and _conv_int([1], [2], 0) == []
    lengths = _packed_lengths(monkeypatch)
    assert _conv_int([5, 0, 0], [-4, 0, 0, 0], 6) == [-20, 0, 0, 0, 0, 0]
    assert lengths == [1, 1]


def _schoolbook(a, b):
    """The product's terms below its precision, from the Fraction
    exponents of the operands' terms, and that precision in q-units:
    min(prec_a + val_b, prec_b + val_a), vals of zero series at their
    precision."""
    prec = min(a.precision() + Fraction(b.val, b.h), b.precision() + Fraction(a.val, a.h))
    terms = {}
    for e, c in a.terms():
        for f, d in b.terms():
            if e + f < prec:
                terms[e + f] = terms.get(e + f, 0) + c * d
    return {e: c for e, c in terms.items() if c}, prec


def test_product_matches_a_fraction_exponent_schoolbook():
    """QSeries products over h in {1, 2, 3, 4, 6}, random val and prec,
    with coefficients on random strides, so that mixed h and sparse
    terms reach every lattice the kernel can take."""
    rng = random.Random(31)
    for _ in range(400):
        ops = []
        for _ in range(2):
            h = rng.choice((1, 2, 3, 4, 6))
            val = rng.randint(-8, 8)
            length = rng.randint(0, 30)
            stride = rng.choice((1, 1, 2, 3, 4, 6))
            coeffs = [rng.randint(-9, 9) if i % stride == 0 else 0 for i in range(length)]
            ops.append(QSeries(coeffs, val=val, prec=val + length, h=h))
        a, b = ops
        prod = a * b
        terms, prec = _schoolbook(a, b)
        assert prod.h == math.lcm(a.h, b.h)
        assert prod.precision() == prec
        assert dict(prod.terms()) == terms


def test_x_times_x_of_3tau_packs_a_quarter_of_the_slots(monkeypatch):
    """X = q^(1/4)(...) has h = 4 and terms only at q^(1/4 + k), X(3tau)
    only at q^(3/4 + 3k): both sit on 4Z relative to their valuations, so
    their product packs a quarter of the slots the padded lists hold."""
    from ordersix.eta import named_x

    x = named_x().expand(60)
    x3 = x.rescale(3).truncate(60)
    out_len = min(x.prec + x3.val, x3.prec + x.val) - x.val - x3.val
    full = [min(len(x.coeffs), out_len), min(len(x3.coeffs), out_len)]
    lengths = _packed_lengths(monkeypatch)
    prod = x * x3
    assert lengths == [-(-k // 4) for k in full]
    assert prod.coeffs == tuple(poly_mul(list(x.coeffs), list(x3.coeffs), out_len)[
        : len(prod.coeffs)])
