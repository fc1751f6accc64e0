import pytest

from ordersix.arith import factorize, is_prime, moebius


def test_is_prime_agrees_with_a_sieve():
    """Below 10^5 every composite prime to the Miller-Rabin bases reaches
    the witness loop, which must report it composite."""
    limit = 10 ** 5
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, limit, p))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_factorize_and_moebius():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    with pytest.raises(ValueError, match="n >= 1"):
        factorize(0)
    assert [moebius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
