"""Independent brute-force oracles and generators shared by the tests.

Nothing here may call back into the code it checks: these are the second
route that the library is checked against.  monomial_matrix builds the
solver's matrix exactly over Z from QSeries products and eta expansions
(themselves checked against the schoolbook oracles here), and
monomial_matrix_mod builds it mod p by numpy convolutions, never from the
solver's arithmetic mod p.  mobius_twist, the one twist oracle, expands
the twist of a polynomial term by term from binomial coefficients, never
through the solver's packed rounds, and checked_twists lists the twists
of a level on its own.
"""

from fractions import Fraction
from math import comb, gcd

import numpy as np

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
    coeffs = [rng.randint(-9, 9) for _ in range(length)]
    if nonzero:  # invertible: leading coefficient +-1
        coeffs[0] = rng.choice([1, -1])
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


# Moebius maps t -> (a0 + a1*t)/(b0 + b1*t), as ((a0, a1), (b0, b1)):
# M(t) = (1 - 3t)/(3 - 3t) of W_18n and M2(t) = (1 - t)/(1 - 3t) of W_2
FRICKE_MAP = ((1, -3), (3, -3))
W2_MAP = ((1, -1), (1, -3))


def _linear_powers(m, i, d):
    """Coefficients of a(t)^i b(t)^(d - i), m = ((a0, a1), (b0, b1)) for
    a = a0 + a1*t and b = b0 + b1*t, from binomial coefficients."""
    (a0, a1), (b0, b1) = m
    a = [comb(i, k) * a0 ** (i - k) * a1 ** k for k in range(i + 1)]
    b = [comb(d - i, k) * b0 ** (d - i - k) * b1 ** k for k in range(d - i + 1)]
    return poly_mul(a, b, d + 1)


def mobius_twist(coeffs, d, m, swap):
    """{(i, j): c} of b(X)^d b(Y)^d P(m(X), m(Y)), m = a/b given as in
    _linear_powers or None for the identity (b = 1), P = F with X and Y
    swapped when ``swap``, F = {(i, j): c} of bidegree at most (d, d):
    the term c X^i Y^j of P becomes
    c a(X)^i b(X)^(d - i) a(Y)^j b(Y)^(d - j)."""
    out = {}
    for (i, j), c in coeffs.items():
        if swap:
            i, j = j, i
        if m is None:
            out[i, j] = out.get((i, j), 0) + c
            continue
        xs, ys = _linear_powers(m, i, d), _linear_powers(m, j, d)
        for a, x in enumerate(xs):
            for b, y in enumerate(ys):
                out[a, b] = out.get((a, b), 0) + c * x * y
    return {ij: c for ij, c in out.items() if c}


def checked_twists(n, d):
    """(map, swap, c) of each twist the level-n certificate requires, c the
    constant F_n has under it, in the order the certificate runs them: the
    swap of W_n at n prime to 6, W_18n at every level and W_2 at odd n."""
    out = [(None, True, 1)] if gcd(n, 6) == 1 else []
    out.append((FRICKE_MAP, True, 6 ** d))
    if n % 2:
        out.append((W2_MAP, False, 2 ** d))
    return out


def invariant_perturbation(n, d):
    """A nonzero P = {(i, j): c} with no X^d term that each twist T of
    checked_twists(n, d) maps to c*P.  Each T squares to c^2 and they
    commute, so the product of the maps c + T sends any polynomial to one
    fixed by all of them; the images of X^i Y^j, i <= j, are combined
    until a combination has no X^d term (nullspace_exact)."""
    from ordersix.linalg import nullspace_exact

    images = []
    for i in range(d + 1):
        for j in range(i, d + 1):
            image = {(i, j): 1}
            for m, swap, c in checked_twists(n, d):
                out = mobius_twist(image, d, m, swap)
                for ij, v in image.items():
                    out[ij] = out.get(ij, 0) + c * v
                image = {ij: v for ij, v in out.items() if v}
            images.append(image)
            kernel = nullspace_exact([[f.get((d, k), 0) for f in images] for k in range(d + 1)])
            for vector in kernel:
                weights = primitive(vector)
                p = {}
                for x, f in zip(weights, images):
                    for ij, v in f.items():
                        p[ij] = p.get(ij, 0) + x * v
                p = {ij: v for ij, v in p.items() if v}
                if p:
                    return p
    raise AssertionError(f"no invariant perturbation at level {n}")


def monomial_matrix(n, d1, d2, height):
    """Exact integer coefficient rows q^0 .. q^(height - 1) of the monomials
    W^i V^j (W = w, V = w(n*tau)), built from QSeries products; columns
    ordered by (i, j) lexicographic.  Returns (rows, order)."""
    from ordersix.eta import named_w

    prec = height + n  # vs ** 0 is known only below q^(prec - n + 1)
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
    assert min(s.prec for s in cols) >= height
    arrays = []
    for s in cols:
        arr = [0] * height
        for k, c in enumerate(s.coeffs):
            e = s.val + k
            if 0 <= e < height:
                arr[e] = c
        arrays.append(arr)
    rows = [list(row) for row in zip(*arrays)]
    return rows, order


def monomial_matrix_mod(n, d1, d2, height, p):
    """monomial_matrix reduced mod p, as an int64 numpy array, built mod p
    throughout by int64 convolutions: each sums at most height products
    below p^2 < 2^40, so none overflows."""
    from ordersix.eta import named_w

    ws = named_w().expand(height)
    w = np.array([0] * ws.val + [c % p for c in ws.coeffs], dtype=np.int64)
    powers = [np.eye(1, height, dtype=np.int64)[0]]
    for _ in range(max(d1, d2)):
        powers.append(np.convolve(powers[-1], w)[:height] % p)
    shifted = []
    for power in powers[: d1 + 1]:
        v = np.zeros(height, dtype=np.int64)
        v[::n] = power[: len(v[::n])]
        shifted.append(v)
    return np.array([np.convolve(powers[i], shifted[j])[:height] % p
                     for i in range(d2 + 1) for j in range(d1 + 1)]).T


def echelon_mod(mat, p):
    """Row echelon form mod p with unit pivots, one pivot at a time: every
    step reduces the whole trailing block.  Returns (matrix, pivot cols)."""
    m = np.asarray(mat, dtype=np.int64) % p
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r, c:] = (m[r, c:] * pow(int(m[r, c]), -1, p)) % p
        hot = np.nonzero(m[r + 1:, c])[0]
        if hot.size:
            idx = hot + r + 1
            m[idx, c:] = (m[idx, c:] - np.outer(m[idx, c], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, pivots


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


def rank_mod(rows, p):
    """Rank of an integer matrix mod p, by forward elimination on Python ints
    (any p, no int64 bound), each pivot clearing only the rows below it
    and the columns from it on.  It is at most the rank over Q."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank][c:]
        inv = pow(top[0], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % p
            if f:
                m[i][c:] = [(a - f * b) % p for a, b in zip(m[i][c:], top)]
        rank += 1
    return rank
