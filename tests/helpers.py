"""Independent brute-force oracles and generators shared by the tests.

Nothing here may call back into the code it checks: these are the second
route that the library is checked against.  monomial_matrix builds the
solver's matrix exactly over Z from QSeries products and eta expansions
(themselves checked against the schoolbook oracles here), never from the
solver's assembly mod p.
"""

from fractions import Fraction
from math import gcd

from ordersix.series import QSeries


def poly_mul(a, b, n):
    """Truncated product of dense coefficient lists."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                if y:
                    out[i + j] += x * y
    return out


def poly_div(a, b, n):
    """Truncated quotient a/b for lists with b[0] == 1."""
    assert b[0] == 1
    out = []
    for k in range(n):
        s = a[k] if k < len(a) else 0
        for i in range(1, min(k, len(b) - 1) + 1):
            s -= b[i] * out[k - i]
        out.append(s)
    return out


def direct_euler(scale, prec):
    """prod (1 - q^(scale*n)) by multiplying the factors one at a time."""
    out = [1] + [0] * (prec - 1)
    n = 1
    while scale * n < prec:
        f = [0] * prec
        f[0] = 1
        f[scale * n] = -1
        out = poly_mul(out, f, prec)
        n += 1
    return out


def sparse_product(exponent_sign_pairs, prec):
    """prod (1 - q^e) over the given exponents (all below prec)."""
    out = [1] + [0] * (prec - 1)
    for e in exponent_sign_pairs:
        f = [0] * prec
        f[0] = 1
        f[e] = -1
        out = poly_mul(out, f, prec)
    return out


def random_series(rng, nonzero=False, h_choices=(1, 2, 3, 4, 6)):
    h = rng.choice(h_choices)
    val = rng.randint(-6, 6)
    length = rng.randint(1 if nonzero else 0, 12)
    coeffs = []
    for _ in range(length):
        if rng.random() < 0.25:
            coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        else:
            coeffs.append(rng.randint(-9, 9))
    if nonzero and (not coeffs or not coeffs[0]):
        if not coeffs:
            coeffs = [1]
        coeffs[0] = rng.choice([1, -1, 2, -3])
    return QSeries(coeffs, val=val, prec=val + length, h=h)


def primitive(vec):
    """Scale a rational vector to a primitive integer tuple, first nonzero
    entry positive."""
    fracs = [Fraction(x) for x in vec]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def monomial_matrix(n, d1, d2, margin):
    """Exact integer coefficient rows of the monomials W^i V^j (W = w,
    V = w(n*tau)), built from QSeries products; columns ordered by (i, j)
    lexicographic.  Returns (rows, order, height)."""
    from ordersix.eta import named_w

    prec = d2 + n * d1 + (d1 + 1) * (d2 + 1) + margin
    w = named_w()
    ws = w.expand(prec)
    vs = w.rescale(n).expand(prec)
    assert ws.h == vs.h == 1
    wpow = [ws ** 0]
    for _ in range(d2):
        wpow.append(wpow[-1] * ws)
    vpow = [vs ** 0]
    for _ in range(d1):
        vpow.append(vpow[-1] * vs)
    cols = []
    order = []
    for i in range(d2 + 1):
        for j in range(d1 + 1):
            if j == 0:
                s = wpow[i]
            elif i == 0:
                s = vpow[j]
            else:
                s = wpow[i] * vpow[j]
            cols.append(s)
            order.append((i, j))
    height = min(s.prec for s in cols)
    arrays = []
    for s in cols:
        arr = [0] * height
        for k, c in enumerate(s.coeffs):
            e = s.val + k
            if 0 <= e < height:
                arr[e] = c
        arrays.append(arr)
    rows = [list(row) for row in zip(*arrays)]
    return rows, order, height


def back_substitute(m, pivots, p):
    """Kernel basis mod p of a row-echelon matrix with unit pivots, one
    free column at a time with exact Python-integer dot products."""
    ncols = len(m[0])
    out = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            if c > fc:
                continue
            s = sum(int(a) * b for a, b in zip(m[r][c + 1:], v[c + 1:])) % p
            v[c] = (-s) % p
        out.append(v)
    return out
