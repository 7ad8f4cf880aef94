"""Exact integer combinatorics: binomials, factorials, p-adic valuations.

Python integers are arbitrary precision, so they serve directly as the
exact scalar type, and `fractions.Fraction` plays the role of the
reduced rational where one is needed. No floating point is used
anywhere in this package.
"""

from __future__ import annotations

import math
import operator

from .errors import DomainError

__all__ = [
    "binom",
    "factorial",
    "is_prime",
    "legendre_valuation",
    "padic_valuation",
]

# The first 12 primes as witnesses: Miller-Rabin with them is proven
# deterministic only below 318665857834031151167461 (about 3.2e23), a
# composite that passes all 12; is_prime trusts them below 2**64 alone.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 1 << 64
_MR_EXTRA_ROUNDS = 24


def _integer(value, what: str, error: type = DomainError) -> int:
    """`value` as an int through `__index__`, so that a float or a
    string raises `error` instead of being truncated; a bool is an int.
    Shared by every public door that takes an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), zero whenever k < 0 or k > n.

    The vanishing convention makes truncated binomial sums collapse
    cleanly; the enumerativity threshold identity for degrees of the
    line (see `schubert.tev_p1_binomial`) relies on it.
    """
    if n < 0:
        raise DomainError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(m: int) -> int:
    """m! for m >= 0."""
    if m < 0:
        raise DomainError(f"factorial requires m >= 0, got {m}")
    return math.factorial(m)


def _strong_probable_prime(n: int, base: int) -> bool:
    """True when odd n passes the strong test to a base in [2, n - 2]."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n < 2**64 via a fixed witness set; above that,
    24 extra rounds with bases drawn from a generator seeded by n, so
    the answer is reproducible and the function stays pure.
    """
    n = _integer(n, "n")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    bases = list(_MR_WITNESSES)
    if n >= _MR_DETERMINISTIC_BOUND:
        import random  # kept off the CLI's import path

        rng = random.Random(n)
        bases += [rng.randrange(2, n - 1) for _ in range(_MR_EXTRA_ROUNDS)]
    return all(_strong_probable_prime(n, b) for b in bases)


def legendre_valuation(m: int, p: int) -> int:
    """v_p(m!) as the floor sum over powers of p.

    Never materializes m!, so m in the millions is fine.
    """
    if _integer(m, "m") < 0:
        raise DomainError(f"legendre_valuation requires m >= 0, got {m}")
    _require_prime(p)
    total = 0
    power = p
    while power <= m:
        total += m // power
        power *= p
    return total


def padic_valuation(x: int, p: int) -> int:
    """Largest k with p**k dividing x, for nonzero x."""
    if _integer(x, "x") == 0:
        raise DomainError("padic_valuation(0, p) is infinite")
    _require_prime(p)
    x = abs(x)
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def _require_prime(p: int) -> None:
    if not is_prime(_integer(p, "p")):
        raise DomainError(f"expected a prime, got {p}")
