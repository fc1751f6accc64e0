"""Small integer-arithmetic helpers shared across the package."""

from math import gcd


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out[p] = e
        p = 3 if p == 2 else p + 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def psi_index(n: int) -> int:
    """The index function n * prod_{p | n} (1 + 1/p), always an integer."""
    out = n
    for p in factorize(n):
        out = out // p * (p + 1)
    return out


def moebius(n: int) -> int:
    """The Moebius function: 0 unless n >= 1 is squarefree, else (-1)^(number
    of prime factors)."""
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def hecke_cosets(n: int) -> list[tuple[int, int, int]]:
    """The upper-triangular matrices (a b; 0 d) with ad = n, 0 <= b < d,
    gcd(a, b, d) = 1 and gcd(a, 6) = 1, as (a, b, d): the right cosets of
    Gamma0(18) in Gamma0(18) diag(1, n) Gamma0(18) (Shimura 1971, Prop.
    3.36, for Delta0(N)).  There are [Gamma0(18) : Gamma0(18n)] of them,
    psi_index(n) when gcd(n, 6) = 1."""
    return [(a, b, n // a) for a in divisors(n) if gcd(a, 6) == 1
            for b in range(n // a) if gcd(a, b, n // a) == 1]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(start: int):
    """Yield primes start, start-1, ... in descending order."""
    n = start
    while n > 2:
        if is_prime(n):
            yield n
        n -= 1


def sigma3_table(bound: int) -> list[int]:
    """sigma_3(n) = sum of cubes of divisors, for n in [0, bound); entry 0 is 0."""
    out = [0] * max(bound, 1)
    for d in range(1, bound):
        cube = d * d * d
        for m in range(d, bound, d):
            out[m] += cube
    return out


__all__ = [
    "gcd",
    "factorize",
    "divisors",
    "euler_phi",
    "psi_index",
    "moebius",
    "hecke_cosets",
    "is_prime",
    "primes_below",
    "sigma3_table",
]
