"""Cusps of Gamma0(N): enumeration, equivalence, canonical form, widths.

A cusp is a reduced fraction a/c with c >= 0, where 1/0 denotes infinity.
Equivalence of a/c and a'/c' over Gamma0(N) holds exactly when there are an
integer n and a unit s mod N with (a', c') == (s^(-1) a + n c, s c) mod N;
equivalence decisions go through that finite search, never through
shortcut formulas.  Widths and cusp orders need only the invariant
gcd(c, N), which equivalence preserves.  Everything is pure and immutable;
cusp_set results are memoized.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd

from .arith import divisors, euler_phi


class Cusp(namedtuple("Cusp", "a c")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, a: int, c: int):
        if c < 0:
            raise ValueError("cusp denominator must be non-negative")
        if c == 0 and a != 1:
            raise ValueError("infinity is represented as 1/0")
        if gcd(a, c) != 1:
            raise ValueError(f"cusp {a}/{c} is not reduced")
        return super().__new__(cls, a, c)

    @classmethod
    def make(cls, a: int, c: int) -> Cusp:
        """Reduce a/c to the canonical stored form (sign and gcd)."""
        if c == 0:
            return cls(1, 0)
        if c < 0:
            a, c = -a, -c
        g = gcd(abs(a), c)
        return cls(a // g, c // g)

    @property
    def is_infinity(self) -> bool:
        return self.c == 0

    def __str__(self) -> str:
        if self.is_infinity:
            return "inf"
        if self.a == 0:
            return "0"
        return f"{self.a}/{self.c}"


INFINITY = Cusp(1, 0)
ZERO = Cusp(0, 1)


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    return tuple(s for s in range(1, n + 1) if gcd(s, n) == 1)


def are_equivalent(level: int, x: Cusp, y: Cusp) -> bool:
    """Gamma0(level)-equivalence of two cusps by direct search over units."""
    if level < 1:
        raise ValueError("level must be positive")
    if level == 1:
        return True
    a, c = x.a % level, x.c % level
    a2, c2 = y.a % level, y.c % level
    g = gcd(c, level)
    for s in _units(level):
        if (s * c - c2) % level:
            continue
        # n exists with a2 == s^(-1) a + n c (mod level) iff gcd(c, level)
        # divides the difference
        sinv = pow(s, -1, level)
        if (a2 - sinv * a) % g == 0:
            return True
    return False


@lru_cache(maxsize=None)
def cusp_set(level: int) -> tuple[Cusp, ...]:
    """One representative per cusp class: for each c | level, the residues
    a mod gcd(c, level/c) coprime to level, each realized by its smallest
    positive member and reduced mod c.  Infinity (the c = level class) comes
    first, then ascending (c, a)."""
    if level < 1:
        raise ValueError("level must be positive")
    out = [INFINITY]
    for c in divisors(level):
        if c == level:
            continue
        g = gcd(c, level // c)
        for rho in range(1, g + 1):
            if gcd(rho, g) != 1:
                continue
            a = rho
            while gcd(a, level) != 1:
                a += g
            out.append(Cusp.make(a % c if c > 1 else 0, c))
    return tuple(out)


def cusp_count(level: int) -> int:
    return sum(euler_phi(gcd(c, level // c)) for c in divisors(level))


def canonical(level: int, x: Cusp) -> Cusp:
    """The member of cusp_set(level) equivalent to x."""
    gx = gcd(x.c, level)
    for rep in cusp_set(level):
        if gcd(rep.c if rep.c else level, level) != gx:
            continue
        if are_equivalent(level, x, rep):
            return rep
    raise AssertionError(f"no canonical representative found for {x} at level {level}")


def denominator_in_level(level: int, x: Cusp) -> int:
    """Denominator d | level of the canonical representative (d = level for
    infinity); this is the d used in width and order formulas.  It is
    gcd(c, level): equivalence preserves that gcd, and every cusp_set
    representative has c | level."""
    return gcd(x.c, level)


def width(level: int, x: Cusp) -> int:
    """Cusp width h = level / gcd(c^2, level)."""
    d = denominator_in_level(level, x)
    return level // gcd(d * d, level)


def width_sum(level: int) -> int:
    return sum(width(level, x) for x in cusp_set(level))


__all__ = [
    "Cusp",
    "INFINITY",
    "ZERO",
    "are_equivalent",
    "cusp_set",
    "cusp_count",
    "canonical",
    "denominator_in_level",
    "width",
    "width_sum",
]
