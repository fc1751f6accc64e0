import random
from math import gcd

import pytest

from ordersix.arith import psi_index
from ordersix.cusps import (
    Cusp,
    INFINITY,
    ZERO,
    are_equivalent,
    canonical,
    cusp_count,
    cusp_set,
    denominator_in_level,
    width,
    width_sum,
)


def names(level):
    return [str(x) for x in cusp_set(level)]


def test_cusp_construction():
    assert Cusp.make(7, -2) == Cusp(-7, 2)
    assert Cusp.make(4, 6) == Cusp(2, 3)
    assert Cusp.make(5, 0) == INFINITY
    with pytest.raises(ValueError):
        Cusp(2, 4)
    with pytest.raises(ValueError):
        Cusp(3, 0)


def test_cusp_set_18_is_the_published_list():
    assert names(18) == ["inf", "0", "1/2", "1/3", "2/3", "1/6", "5/6", "1/9"]


def test_cusp_set_36_is_the_published_list():
    assert names(36) == [
        "inf", "0", "1/2", "1/3", "2/3", "1/4", "1/6", "5/6", "1/9",
        "1/12", "5/12", "1/18",
    ]


def test_cusp_set_54_is_the_published_list():
    assert names(54) == [
        "inf", "0", "1/2", "1/3", "2/3", "1/6", "5/6", "1/9", "5/9",
        "1/18", "5/18", "1/27",
    ]


def test_cusp_set_level_one():
    assert cusp_set(1) == (INFINITY,)


def test_level_below_one_is_refused():
    with pytest.raises(ValueError, match="positive"):
        cusp_set(0)
    with pytest.raises(ValueError, match="positive"):
        are_equivalent(0, INFINITY, ZERO)


def test_cusp_set_90_matches_published_classes():
    got = cusp_set(90)
    assert len(got) == 16
    published = [INFINITY, ZERO, Cusp(1, 2), Cusp(1, 3), Cusp(2, 3), Cusp(1, 6),
                 Cusp(5, 6), Cusp(1, 9), Cusp(1, 18), Cusp(1, 5), Cusp(1, 10),
                 Cusp(1, 15), Cusp(2, 15), Cusp(1, 30), Cusp(11, 30), Cusp(1, 45)]
    for target in published:
        hits = [x for x in got if are_equivalent(90, x, target)]
        assert len(hits) == 1, f"{target} matched {hits}"


def test_cusp_counts_match_divisor_sum_formula():
    for n in range(1, 201):
        assert len(cusp_set(n)) == cusp_count(n)


def test_equivalence_examples():
    assert not are_equivalent(18, Cusp(1, 2), Cusp(5, 6))
    assert are_equivalent(18, Cusp(7, 2), Cusp(1, 2))
    for x in cusp_set(18):
        assert are_equivalent(18, x, x)


def test_members_pairwise_inequivalent():
    for n in (12, 18, 36, 54, 90):
        members = cusp_set(n)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                assert not are_equivalent(n, x, y), (n, str(x), str(y))


def test_canonical_examples():
    assert canonical(18, Cusp(1, 20)) == Cusp(1, 2)
    assert are_equivalent(18, Cusp(1, 20), Cusp(1, 2))
    assert canonical(18, INFINITY) == INFINITY
    assert canonical(18, Cusp(1, 18)) == INFINITY


def test_equivalence_is_an_equivalence_relation():
    rng = random.Random(42)
    for n in (14, 18, 27, 40):
        pool = []
        while len(pool) < 14:
            c = rng.randint(0, 2 * n)
            a = 1 if c == 0 else rng.randint(-2 * n, 2 * n)
            if gcd(a, c) == 1 and (c > 0 or a == 1):
                pool.append(Cusp.make(a, c))
        labels = {x: canonical(n, x) for x in pool}
        for x in pool:
            assert are_equivalent(n, x, x)
            for y in pool:
                same = are_equivalent(n, x, y)
                assert same == are_equivalent(n, y, x)
                assert same == (labels[x] == labels[y])


def test_partition_property_small_levels():
    # exhaustive windows at the smaller levels; the acceptance suite runs
    # the full N <= 60 sweep
    for n in range(1, 31):
        members = cusp_set(n)
        for c in range(0, 2 * n + 1):
            for a in range(-2 * n, 2 * n + 1):
                if c == 0 and a != 1:
                    continue
                if gcd(a, c) != 1:
                    continue
                x = Cusp.make(a, c)
                hits = sum(1 for m in members if are_equivalent(n, x, m))
                assert hits == 1, (n, str(x), hits)


def test_denominator_in_level_is_the_gcd():
    """Equivalence preserves gcd(c, N) and each representative has c | N,
    so no equivalence search is needed."""
    for n in range(1, 61):
        for c in range(0, 2 * n + 3):
            for a in range(-n, n + 1):
                if (c == 0 and a != 1) or gcd(a, c) != 1:
                    continue
                x = Cusp(a, c)
                assert denominator_in_level(n, x) == (canonical(n, x).c or n), (n, str(x))


def test_width_examples():
    assert width(18, INFINITY) == 1
    assert width(18, ZERO) == 18
    assert width(18, Cusp(1, 2)) == 9


def test_width_sum_equals_index():
    for n in range(1, 201):
        assert width_sum(n) == psi_index(n), n
