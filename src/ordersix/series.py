"""Exact truncated Laurent series in q^(1/h) with integer coefficients.

A QSeries stores dense coefficients for the exponent window [val, prec),
where val and prec are measured in units of 1/h (so the term at index k
is q^(k/h)).  prec is an exclusive knowledge bound: coefficients at indices
>= prec are unknown, and reading them is an error rather than a silent zero.
The zero series is the distinguished value with val == prec and no stored
coefficients.

The coefficients are arbitrary-precision ints: every series the package builds
(eta quotients, Euler products, E4, j) is integral, and the constructor
raises TypeError on anything that is not an integer.  Exponents are on the
1/h lattice and reported as Fractions.  Products go through one big-integer
convolution, taken on the coarsest lattice gZ of stored indices that holds
the nonzero terms of both factors: if a_i != 0 only for g | i and b_j != 0
only for g | j, then (ab)_k != 0 only for g | k, and (ab)_(gk) =
sum a_(gi) b_(g(k-i)).  So X = q^(1/4)(1 + ...) at h = 4, whose terms sit at
every fourth index, multiplies a quarter of its stored slots.  Quotients go
through one forward substitution, which needs a divisor with leading
coefficient +-1 so that the quotient is integral too.
Every Kronecker-packed product in the package uses the slot codec here,
_pack/_unpack (signed: _pack_signed/_unpack_signed); modp's in-place
read-off of F_n mod p is the format's one other reader.
Every series and equation the package prints goes through the one term
renderer here: monomial, the exponent rule for both styles, and signed_sum,
the sign-joined sum of (coefficient, monomial) pairs.  QSeries.__repr__,
LaTeX expand and modeq.format_polynomial all print through it.
Every operation is pure and every instance immutable, so values are safe to
share across threads.
"""

from __future__ import annotations

import operator
from array import array
from fractions import Fraction
from itertools import islice
from math import gcd, lcm


class ZeroSeriesError(ZeroDivisionError):
    """Raised when dividing by the zero series."""


class PrecisionError(Exception):
    """Raised when a coefficient beyond the truncation bound is requested."""


def _ones(sb: int, slots: int) -> int:
    """R = sum 2^(8*sb*i) over i < slots."""
    return int.from_bytes((1).to_bytes(sb, "little") * slots, "little")


def _pack(xs, sb: int) -> int:
    """The int sum x_i 2^(8*sb*i), 0 <= x_i < 2^(8*sb): array('Q') items
    narrowed by one strided copy per byte, or one to_bytes each past 8 bytes."""
    if sb > 8:
        return int.from_bytes(b"".join(x.to_bytes(sb, "little") for x in xs), "little")
    data = array("Q", xs).tobytes()
    narrow = bytearray(len(xs) * sb)
    for j in range(sb):
        narrow[j::sb] = data[j::8]
    return int.from_bytes(narrow, "little")


def _unpack(x: int, count: int, sb: int) -> list[int]:
    """Slots 0 .. count - 1, of sb bytes each, of a nonnegative packed int."""
    data = x.to_bytes(max(count, -(-x.bit_length() // (8 * sb))) * sb, "little")
    if sb > 8:
        return [int.from_bytes(data[k * sb : (k + 1) * sb], "little") for k in range(count)]
    wide = bytearray(8 * count)
    for j in range(sb):
        wide[j::8] = data[j : count * sb : sb]
    return memoryview(wide).cast("Q").tolist()


def _pack_signed(xs, sb: int) -> int:
    """The exact integer sum x_i 2^(8*sb*i), for |x_i| < 2^(8*sb - 1):
    _pack of the x_i + 2^(8*sb - 1), less 2^(8*sb - 1) * sum 2^(8*sb*i)."""
    bias = 1 << (8 * sb - 1)
    return _pack([x + bias for x in xs], sb) - bias * _ones(sb, len(xs))


def _unpack_signed(x: int, slots: int, count: int, sb: int) -> list[int]:
    """y_0, ..., y_(count - 1) of x = sum y_i 2^(8*sb*i), i < slots, each
    |y_i| < 2^(8*sb - 1): adding 2^(8*sb - 1) to every slot leaves it
    nonnegative with no carries, and _unpack less that bias is y_i."""
    bias = 1 << (8 * sb - 1)
    return [y - bias for y in _unpack(x + bias * _ones(sb, slots), count, sb)]


def _lattice(xs, g: int = 0) -> int:
    """gcd of g and the indices of the nonzero entries of xs.  Without g,
    the first nonzero index past 0 starts it, which ends a dense list's
    scan at once; then each residue class mod g that holds a nonzero entry
    cuts g to its gcd with that entry's index, at least halving it."""
    if not g:
        g = next((i for i in range(1, len(xs)) if xs[i]), 0)
    while g > 1:
        r = next((r for r in range(1, g) if any(xs[r::g])), 0)
        if not r:
            break
        g = gcd(g, next(i for i in range(r, len(xs), g) if xs[i]))
    return g


def _conv_int(a, b, out_len: int) -> list[int]:
    """Exact truncated integer convolution by one big-int product.

    Both operands are first taken on the coarsest lattice gZ holding every
    nonzero entry of either (_lattice): if a_i != 0 only for g | i and
    b_j != 0 only for g | j, then (ab)_k != 0 only for g | k, and
    (ab)_(gk) = sum a_(gi) b_(g(k-i)); so out[::g] is the product of
    a[::g] and b[::g], and every other entry is 0.  Each operand becomes
    the exact signed integer a(2^s), s = 8*sb (_pack_signed), so their
    product is the product polynomial at 2^s.  The slot size makes 2^(s-1)
    exceed every product coefficient in absolute value, so _unpack_signed
    reads each one back.
    """
    la = min(len(a), out_len)
    lb = min(len(b), out_len)
    if la <= 0 or lb <= 0:
        return [0] * out_len
    a, b = a[:la], b[:lb]
    # g is 0 when both operands are constants, and any stride keeps them
    g = _lattice(b, _lattice(a)) or out_len
    if g > 1:
        a, b = a[::g], b[::g]
        la, lb = len(a), len(b)
    # 2^(s-1) > ma * mb * min(la, lb) >= max(ma, mb), so every operand
    # coefficient fits its signed slot too
    ma = max(1, max(map(abs, a)))
    mb = max(1, max(map(abs, b)))
    sb = ((ma * mb * min(la, lb)).bit_length() + 8) // 8  # bytes per slot
    slots = la + lb - 1
    short = -(-out_len // g)
    prod = _unpack_signed(_pack_signed(a, sb) * _pack_signed(b, sb), slots,
                          min(short, slots), sb)
    prod += [0] * (short - len(prod))
    if g == 1:
        return prod
    out = [0] * out_len
    out[::g] = prod
    return out


def monomial(name: str, e, style: str = "plain") -> str:
    """name^e for an int or Fraction e: nothing at e = 0 and name at e = 1;
    'latex' braces every exponent but the digits 2-9, 'plain' parenthesizes
    a fractional one."""
    if e == 0:
        return ""
    if e == 1:
        return name
    if style == "latex":
        return f"{name}^{e}" if e.denominator == 1 and 1 < e < 10 else f"{name}^{{{e}}}"
    return f"{name}^{e}" if e.denominator == 1 else f"{name}^({e})"


def signed_sum(terms, joiner: str) -> str:
    """Render (coefficient, monomial) pairs as "a - b + 2<joiner>c": a
    coefficient of magnitude one is left out before a nonempty monomial,
    and the empty sum is "0".  The joiner is "*" in repr and " " in the
    command's plain and LaTeX equations and LaTeX series."""
    out = ""
    for c, body in terms:
        if abs(c) != 1 or not body:
            body = f"{abs(c)}{joiner}{body}" if body else f"{abs(c)}"
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = f"-{body}" if c < 0 else body
    return out or "0"


class QSeries:
    """Truncated Laurent series; see the module docstring for conventions."""

    __slots__ = ("h", "val", "prec", "coeffs")

    def __init__(self, coeffs, val: int = 0, prec: int | None = None, h: int = 1):
        if h < 1:
            raise ValueError("exponent denominator must be positive")
        coeffs = list(map(operator.index, coeffs))
        if prec is None:
            prec = val + len(coeffs)
        if len(coeffs) < prec - val:
            coeffs = coeffs + [0] * (prec - val - len(coeffs))
        else:
            coeffs = coeffs[: max(0, prec - val)]
        start = next((k for k, c in enumerate(coeffs) if c), None)
        if start is None:
            coeffs, val = [], prec
        else:
            del coeffs[:start]
            val += start
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -------------------- constructors --------------------

    @classmethod
    def zero(cls, prec: int, h: int = 1) -> QSeries:
        return cls([], val=prec, prec=prec, h=h)

    @classmethod
    def one(cls, prec: int, h: int = 1) -> QSeries:
        return cls([1], val=0, prec=prec, h=h)

    # -------------------- basic queries --------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def valuation(self) -> Fraction:
        """Leading exponent in q-units; raises on the zero series."""
        if self.is_zero:
            raise ZeroSeriesError("zero series has no valuation")
        return Fraction(self.val, self.h)

    def precision(self) -> Fraction:
        """Exclusive knowledge bound in q-units."""
        return Fraction(self.prec, self.h)

    def coeff(self, exponent) -> int:
        """The coefficient of q^exponent; exponent beyond the bound is an error."""
        e = Fraction(exponent) * self.h
        if e >= self.prec:
            raise PrecisionError(
                f"coefficient of q^{Fraction(exponent)} requested, series known below "
                f"q^{self.precision()}"
            )
        if e.denominator != 1 or e < self.val:
            return 0
        return self.coeffs[int(e) - self.val]

    def terms(self):
        """Yield (exponent as Fraction, coefficient) for the nonzero terms."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield Fraction(self.val + i, self.h), c

    # -------------------- representation --------------------

    def __repr__(self) -> str:
        """The first ten nonzero terms, then " + ..." if more are known."""
        terms = [(c, monomial("q", e)) for e, c in islice(self.terms(), 11)]
        lead = signed_sum(terms[:10], "*") + (" + ..." if len(terms) > 10 else "")
        return f"{lead} + O({monomial('q', self.precision()) or 'q^0'})"

    # -------------------- denominator plumbing --------------------

    def _scaled(self, factor: int) -> QSeries:
        """Identical series re-expressed with h multiplied by factor."""
        s = self.rescale(factor)
        return QSeries(s.coeffs, val=s.val, prec=s.prec, h=self.h * factor)

    @staticmethod
    def _unified(a: QSeries, b: QSeries) -> tuple[QSeries, QSeries]:
        if a.h == b.h:
            return a, b
        target = lcm(a.h, b.h)
        return a._scaled(target // a.h), b._scaled(target // b.h)

    def truncate(self, bound) -> QSeries:
        """Restrict knowledge to exponents < bound (bound in q-units)."""
        b = Fraction(bound) * self.h
        idx = -((-b.numerator) // b.denominator)  # ceil
        if idx >= self.prec:
            return self
        return QSeries(list(self.coeffs[: max(0, idx - self.val)]), val=self.val, prec=idx, h=self.h)

    # -------------------- ring operations --------------------

    def __eq__(self, other) -> bool:
        """Equality of coefficients on the common knowledge window."""
        diff = self.__sub__(other)
        return diff if diff is NotImplemented else diff.is_zero

    __hash__ = None

    def __neg__(self) -> QSeries:
        return QSeries([-c for c in self.coeffs], val=self.val, prec=self.prec, h=self.h)

    def __add__(self, other) -> QSeries:
        if isinstance(other, int):
            other = QSeries([other], prec=self.prec, h=self.h)
        elif not isinstance(other, QSeries):
            return NotImplemented
        a, b = QSeries._unified(self, other)
        prec = min(a.prec, b.prec)
        lo = min(a.val, b.val, prec)
        window = [0] * (prec - lo)
        for src in (a, b):
            for i, c in enumerate(src.coeffs):
                k = src.val + i
                if k < prec:
                    window[k - lo] += c
        return QSeries(window, val=lo, prec=prec, h=a.h)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, QSeries)):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other) -> QSeries:
        if isinstance(other, int):
            coeffs = [c * other for c in self.coeffs]
            return QSeries(coeffs, val=self.val, prec=self.prec, h=self.h)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = QSeries._unified(self, other)
        prec = min(a.prec + b.val, b.prec + a.val)
        if a.is_zero or b.is_zero:
            return QSeries.zero(prec, h=a.h)
        val = a.val + b.val
        out = _conv_int(a.coeffs, b.coeffs, prec - val)
        return QSeries(out, val=val, prec=prec, h=a.h)

    __rmul__ = __mul__

    def __truediv__(self, other) -> QSeries:
        """Exact quotient on the shorter relative window; the divisor leads
        with +-1 (ValueError otherwise).  Forward substitution over its nonzero
        terms: O(N sqrt(N)) additions for an Euler product of length N."""
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = QSeries._unified(self, other)
        if b.is_zero:
            raise ZeroSeriesError("cannot divide by the zero series")
        lead = b.coeffs[0]
        if lead not in (1, -1):
            raise ValueError(f"leading coefficient {lead} is not +-1")
        val = a.val - b.val
        n = min(a.prec - a.val, b.prec - b.val)
        terms = [(k, c) for k, c in enumerate(b.coeffs[1:n], 1) if c]
        out = list(a.coeffs[:n])
        for i, s in enumerate(out):
            for k, c in terms:
                if k > i:
                    break
                s -= c * out[i - k]
            out[i] = s * lead
        return QSeries(out, val=val, prec=val + n, h=a.h)

    # unused in the package; bench/tracing.py hooks it
    def invert(self) -> QSeries:
        """Multiplicative inverse, 1 / self on self's relative window."""
        return QSeries.one(self.prec - self.val, h=self.h) / self

    def __pow__(self, k: int) -> QSeries:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative exponent; divide instead")
        if k == 0:
            width = self.prec - self.val if not self.is_zero else self.prec
            return QSeries.one(max(width, 1), h=self.h)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def rescale(self, n: int) -> QSeries:
        """Substitute q -> q^n, producing f(n*tau) from f(tau)."""
        if n < 1:
            raise ValueError("rescale factor must be a positive integer")
        if n == 1:
            return self
        coeffs = [0] * (len(self.coeffs) * n)
        for i, c in enumerate(self.coeffs):
            coeffs[i * n] = c
        return QSeries(coeffs, val=self.val * n, prec=self.prec * n, h=self.h)

    def shift(self, exponent) -> QSeries:
        """Multiply by q^exponent exactly (exponent a Fraction)."""
        e = Fraction(exponent)
        target = lcm(self.h, e.denominator)
        s = self._scaled(target // self.h)
        d = int(e * target)
        return QSeries(list(s.coeffs), val=s.val + d, prec=s.prec + d, h=target)


def euler_product(scale: int, prec: int) -> QSeries:
    """Prod_{n>=1} (1 - q^(scale*n)) truncated below q^prec, via the
    pentagonal-number expansion sum_k (-1)^k q^(scale*k(3k-1)/2)."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    if prec < 1:
        raise ValueError("prec must be at least 1")
    coeffs = [0] * prec
    coeffs[0] = 1
    k = 1
    while True:
        sign = -1 if k % 2 else 1
        lo = scale * k * (3 * k - 1) // 2
        hi = scale * k * (3 * k + 1) // 2
        if lo >= prec:
            break
        coeffs[lo] += sign
        if hi < prec:
            coeffs[hi] += sign
        k += 1
    return QSeries(coeffs, val=0, prec=prec, h=1)


__all__ = ["QSeries", "euler_product", "monomial", "signed_sum", "ZeroSeriesError",
           "PrecisionError"]
