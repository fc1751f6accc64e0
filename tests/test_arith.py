from ordersix.arith import is_prime


def test_is_prime_agrees_with_a_sieve():
    """Below 10^5 every composite prime to the Miller-Rabin bases reaches
    the witness loop, which must report it composite."""
    limit = 10 ** 5
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, limit, p))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
