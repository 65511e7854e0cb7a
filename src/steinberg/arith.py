"""Exact integer arithmetic: prime sieves, Kronecker symbols, trial-division factoring.

Everything works on arbitrary-precision Python ints; nothing here assumes a
fixed word size.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

__all__ = [
    "PrimeList",
    "primes_up_to",
    "is_prime",
    "kronecker",
    "sqrt_mod_p_exists",
    "factorize",
]


@dataclass(frozen=True)
class PrimeList:
    """All primes <= bound, ascending."""

    bound: int
    primes: tuple[int, ...]

    def __iter__(self):
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)


def primes_up_to(bound: int) -> PrimeList:
    """Sieve of Eratosthenes up to and including ``bound``."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound < 2:
        return PrimeList(bound, ())
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, bound + 1, q)))
    return PrimeList(bound, tuple(i for i in range(bound + 1) if sieve[i]))


# Witnesses making Miller-Rabin deterministic for n < 3.317e24 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
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


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), extending the Jacobi symbol to every integer n.

    Conventions: (a|0) = 1 iff a = +-1 else 0; (a|-1) = -1 iff a < 0;
    (a|2) = 0 for even a, +1 for a = +-1 (mod 8), -1 for a = +-3 (mod 8).
    Completely multiplicative in both arguments.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # split off the even part of n
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    # Jacobi symbol (a|n) for odd n >= 1 via quadratic reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def sqrt_mod_p_exists(a: int, p: int) -> bool:
    """Whether a is a square mod the odd prime p (0 counts as a square)."""
    if p == 2 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return a % p == 0 or kronecker(a, p) == 1


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor |n| by trial division; returns ascending (prime, exponent) pairs.

    The sign of n is the caller's to track.  Any cofactor left after dividing
    out everything below sqrt(|n|) is itself prime.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: list[tuple[int, int]] = []

    def strip(m: int, q: int) -> int:
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        if e:
            out.append((q, e))
        return m

    n = strip(n, 2)
    n = strip(n, 3)
    f = 5
    while f * f <= n:
        n = strip(n, f)
        n = strip(n, f + 2)
        f += 6
    if n > 1:
        out.append((n, 1))
    return out
