"""Eta quotients on Gamma0(N): expansion, modularity test, cusp orders.

An EtaQuotient is a level N together with integer exponents r_d on the
divisors d of N, representing prod_{d | N} eta(d*tau)^(r_d) with
eta(tau) = q^(1/24) prod (1 - q^n).  The named generators here are the
order-six continued fraction X(tau), its companion hauptmodul
w(tau) = X(tau) X(3*tau) on Gamma0(18), and the j-invariant.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .arith import sigma3_table
from .cusps import Cusp, cusp_set, denominator_in_level
from .series import QSeries, euler_product


class NotModularError(Exception):
    """Operation requires an eta quotient that is a modular function."""


class EtaQuotient(namedtuple("EtaQuotient", "level exponents")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, level: int, exponents: dict[int, int] | None = None):
        if level < 1:
            raise ValueError("level must be positive")
        cleaned = {}
        for d, r in sorted((exponents or {}).items()):
            if d < 1 or level % d:
                raise ValueError(f"{d} does not divide level {level}")
            if r:
                cleaned[d] = int(r)
        return super().__new__(cls, level, cleaned)

    # -------------------- structure --------------------

    def weight(self) -> Fraction:
        return Fraction(sum(self.exponents.values()), 2)

    def is_modular_function(self) -> bool:
        """Weight zero and both 24-divisibility sums vanish mod 24."""
        if self.weight() != 0:
            return False
        s1 = sum(d * r for d, r in self.exponents.items())
        s2 = sum((self.level // d) * r for d, r in self.exponents.items())
        return s1 % 24 == 0 and s2 % 24 == 0

    def lift(self, level: int) -> EtaQuotient:
        """Reinterpret at a multiple of the current level; the function and
        its q-expansion are unchanged, only the cusp bookkeeping moves."""
        if level % self.level:
            raise ValueError("can only lift to a multiple of the level")
        return EtaQuotient(level, dict(self.exponents))

    def rescale(self, n: int) -> EtaQuotient:
        """The quotient representing f(n*tau), living on level n*N."""
        if n < 1:
            raise ValueError("rescale factor must be positive")
        return EtaQuotient(self.level * n, {d * n: r for d, r in self.exponents.items()})

    def __mul__(self, other: EtaQuotient) -> EtaQuotient:
        if not isinstance(other, EtaQuotient):
            return NotImplemented
        level = lcm(self.level, other.level)
        exps: dict[int, int] = {}
        for src in (self, other):
            for d, r in src.exponents.items():
                exps[d] = exps.get(d, 0) + r
        return EtaQuotient(level, exps)

    def prefactor_exponent(self) -> Fraction:
        """Exponent of the leading q power: sum(d * r_d) / 24."""
        return Fraction(sum(d * r for d, r in self.exponents.items()), 24)

    # -------------------- q-expansion --------------------

    def expand(self, prec: int) -> QSeries:
        """q-expansion correct below q^prec.

        The integer-exponent part prod euler_product(d)^(r_d) is computed at
        h = 1 and the fractional prefactor is attached as a final monomial
        shift, so h in the result is exactly the denominator of the
        prefactor exponent.  Products come first, while coefficients are
        small; then r_d < 0 is -r_d divisions by a sparse pentagonal product,
        each O(prec sqrt(prec / d)) additions.
        """
        if prec < 1:
            raise ValueError("prec must be at least 1")
        e = self.prefactor_exponent()
        inner_prec = max(1, prec - (e.numerator // e.denominator))
        out = QSeries.one(inner_prec)
        for d, r in sorted(self.exponents.items(), key=lambda dr: dr[1] < 0):
            base = euler_product(d, inner_prec)
            if r > 0:
                out = out * base ** r
            for _ in range(-r):
                out = out / base
        out = out.shift(e)
        return out.truncate(prec)

    # -------------------- orders at cusps --------------------

    def order_at_cusp(self, x: Cusp) -> Fraction:
        """Order of vanishing at a cusp, with d = denominator_in_level(N, x):
        (N / (24 d gcd(d, N/d))) * sum_d' gcd(d, d')^2 r_d' / d'."""
        N = self.level
        d = denominator_in_level(N, x)
        total = Fraction(0)
        for dd, r in self.exponents.items():
            g = gcd(d, dd)
            total += Fraction(g * g * r, dd)
        return Fraction(N, 24 * d * gcd(d, N // d)) * total


CuspOrder = namedtuple("CuspOrder", "cusp order")


def divisor(f: EtaQuotient) -> list[CuspOrder]:
    """Orders of f at every canonical cusp; requires a modular function and
    asserts the computed orders are integers."""
    if not f.is_modular_function():
        raise NotModularError(f"{f} is not a weight-zero modular eta quotient")
    out = []
    for x in cusp_set(f.level):
        o = f.order_at_cusp(x)
        if o.denominator != 1:
            raise AssertionError(f"non-integral order {o} at {x} for modular quotient")
        out.append(CuspOrder(x, int(o)))
    return out


def total_pole_degree(f: EtaQuotient) -> int:
    return -sum(co.order for co in divisor(f) if co.order < 0)


def total_zero_degree(f: EtaQuotient) -> int:
    return sum(co.order for co in divisor(f) if co.order > 0)


def pole_zero_class(x: Cusp) -> str:
    """Where the hauptmodul w sits at a reduced cusp a/c: 'pole' when
    c == +-2 mod 6, 'zero' when 18 | c, else 'regular'."""
    if x.c % 6 in (2, 4):
        return "pole"
    if x.c % 18 == 0:
        return "zero"
    return "regular"


def named_w() -> EtaQuotient:
    """w(tau) = eta(tau) eta(18t)^2 / (eta(2t)^2 eta(9t)) on Gamma0(18)."""
    return EtaQuotient(18, {1: 1, 2: -2, 9: -1, 18: 2})


def named_x() -> EtaQuotient:
    """X(tau) as the eta quotient eta(t) eta(6t)^2 / (eta(2t)^2 eta(3t));
    validated elsewhere against the defining infinite product."""
    return EtaQuotient(6, {1: 1, 2: -2, 3: -1, 6: 2})


def eisenstein_e4(prec: int) -> QSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n, by divisor-sum sieve."""
    if prec < 1:
        raise ValueError("prec must be at least 1")
    sig = sigma3_table(prec)
    coeffs = [240 * s for s in sig]
    coeffs[0] = 1
    return QSeries(coeffs, val=0, prec=prec)


def named_j(prec: int) -> QSeries:
    """The j-invariant E4^3 / eta(tau)^24, a series with a simple pole; the
    division is one O(prec^2) forward substitution by prod (1 - q^n)^24."""
    if prec < 1:
        raise ValueError("prec must be at least 1")
    inner = prec + 2
    j = eisenstein_e4(inner) ** 3 / euler_product(1, inner) ** 24
    return j.shift(Fraction(-1)).truncate(prec)


NAMED_QUOTIENTS = {"w": named_w, "X": named_x}


__all__ = [
    "EtaQuotient",
    "CuspOrder",
    "NotModularError",
    "divisor",
    "total_pole_degree",
    "total_zero_degree",
    "pole_zero_class",
    "named_w",
    "named_x",
    "named_j",
    "eisenstein_e4",
    "NAMED_QUOTIENTS",
]
