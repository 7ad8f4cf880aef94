"""Arithmetic kernel against independent oracles.

The oracles here share no code with the implementation: binomials are
rebuilt from the Pascal triangle recurrence, factorials by iterated
products, and factorial valuations through base-p digit sums.
"""

from __future__ import annotations

import random

import pytest

from tevdeg import binom, factorial, is_prime, legendre_valuation, padic_valuation
from tevdeg.errors import DomainError, TevError


def _pascal_rows(n_max):
    """Triangle built from the additive recurrence only."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        rows.append(row)
    return rows


def _product_factorial(m):
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def _digit_sum(m, p):
    total = 0
    while m:
        total += m % p
        m //= p
    return total


def test_binom_matches_pascal_triangle():
    rows = _pascal_rows(30)
    for n in range(31):
        for k in range(-3, n + 4):
            expected = rows[n][k] if 0 <= k <= n else 0
            assert binom(n, k) == expected, (n, k)


def test_binom_spot_values():
    assert binom(5, 2) == 10
    assert binom(3, -1) == 0
    assert binom(3, 5) == 0
    assert binom(0, 0) == 1


def test_binom_rejects_negative_n():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_row_sums_are_powers_of_two():
    # exhaustive for every row up to n = 64
    for n in range(65):
        assert sum(binom(n, k) for k in range(n + 1)) == 2 ** n


def test_binom_symmetry():
    for n in range(40):
        for k in range(n + 1):
            assert binom(n, k) == binom(n, n - k)


def test_factorial_matches_iterated_product():
    for m in range(0, 40):
        assert factorial(m) == _product_factorial(m)


def test_factorial_spot_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(2) == 2


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-3)


def test_legendre_spot_values():
    # 10! = 3628800 carries 3^4: floor(10/3) + floor(10/9) = 3 + 1
    assert legendre_valuation(10, 3) == 4
    assert legendre_valuation(0, 7) == 0
    assert legendre_valuation(4, 2) == 3


def test_legendre_agrees_with_direct_factorial_valuation():
    for m in range(0, 60):
        for p in (2, 3, 5, 7, 11):
            fact = _product_factorial(m)
            direct = 0
            while fact % p == 0:
                fact //= p
                direct += 1
            assert legendre_valuation(m, p) == direct, (m, p)


def test_legendre_digit_sum_identity():
    rng = random.Random(4021)
    primes = (2, 3, 5, 7, 11, 13, 101, 997)
    for _ in range(2000):
        m = rng.randrange(0, 10 ** 6)
        p = rng.choice(primes)
        assert legendre_valuation(m, p) == (m - _digit_sum(m, p)) // (p - 1)


def test_legendre_rejects_composite_p():
    with pytest.raises(ValueError):
        legendre_valuation(4, 6)
    with pytest.raises(ValueError):
        legendre_valuation(4, 1)


def test_padic_spot_values():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(7, 7) == 1
    assert padic_valuation(5, 3) == 0
    assert padic_valuation(-8, 2) == 3


def test_padic_rejects_zero_and_composite():
    with pytest.raises(ValueError):
        padic_valuation(0, 5)
    with pytest.raises(ValueError):
        padic_valuation(10, 4)


def test_padic_additivity():
    rng = random.Random(90111)
    primes = (2, 3, 5, 7, 13)
    for _ in range(2000):
        p = rng.choice(primes)
        a = rng.randrange(1, 10 ** 9) * rng.choice((1, -1))
        b = rng.randrange(1, 10 ** 9) * rng.choice((1, -1))
        assert padic_valuation(a * b, p) == padic_valuation(a, p) + padic_valuation(b, p)


def test_padic_recovers_planted_valuations():
    rng = random.Random(777)
    for _ in range(500):
        p = rng.choice((2, 3, 5, 11))
        k = rng.randrange(0, 12)
        unit = rng.randrange(1, 10 ** 6)
        while unit % p == 0:
            unit += 1
        assert padic_valuation(unit * p ** k, p) == k


def test_is_prime_small_range_against_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(limit + 1):
        assert is_prime(n) == sieve[n], n


def test_is_prime_known_hard_cases():
    assert is_prime(2 ** 61 - 1)          # Mersenne prime
    assert not is_prime(561)              # Carmichael number
    assert not is_prime(2 ** 61 + 1)      # 3 * 768614336404564651
    assert is_prime(10 ** 18 + 9)
    assert not is_prime((2 ** 61 - 1) ** 2)  # above the deterministic bound
    # a prime above 2**64 passes every round, the seeded ones too
    assert is_prime(2 ** 89 - 1)
    assert not is_prime((2 ** 61 - 1) * (2 ** 89 - 1))
    # 399165290221 * 798330580441 passes every fixed witness, 2..37;
    # only the seeded rounds above 2**64 reject it
    assert not is_prime(318665857834031151167461)


@pytest.mark.parametrize(
    "call, args",
    [
        (binom, (-1, 0)),
        (factorial, (-3,)),
        (legendre_valuation, (-1, 3)),
        (legendre_valuation, (4, 6)),
        (padic_valuation, (0, 5)),
        (padic_valuation, (10, 4)),
        # non-integers raise rather than giving a float valuation
        (legendre_valuation, (5.0, 2)),
        (legendre_valuation, (5, 2.0)),
        (padic_valuation, (8.0, 2)),
        (padic_valuation, (8, 2.0)),
    ],
)
def test_domain_violations_are_tev_errors(call, args):
    # the taxonomy's DomainError, so a caller catching TevError sees them
    # too; it stays a ValueError for callers that catch that
    with pytest.raises(TevError) as exc:
        call(*args)
    assert type(exc.value) is DomainError
    assert isinstance(exc.value, ValueError)
