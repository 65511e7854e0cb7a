"""Exact integer arithmetic: prime sieves, Kronecker symbols, primality proofs
and factoring by trial division and Pollard-Brent rho.

Everything works on arbitrary-precision Python ints; nothing here assumes a
fixed word size.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt

__all__ = [
    "MAX_SIEVE_BOUND",
    "SieveLimitError",
    "check_sieve_bound",
    "primes_up_to",
    "PROVEN_PRIME_LIMIT",
    "is_prime",
    "kronecker",
    "FactorizationError",
    "RHO_MAX_STEPS",
    "MAX_COFACTOR_DIGITS",
    "factorize",
]


# The largest bound the sieve accepts.  At 10^7 it takes 0.7 s and raises
# peak RSS by 34 MB (a 10 MB bytearray and 664579 primes) on a 2-core Xeon
# VM under Python 3.11; a bound near 10^10 would need gigabytes.  Every
# bound the package needs in practice (Sturm bounds of twisted levels,
# a_p tables, witness searches) lies far below it.
MAX_SIEVE_BOUND = 10 ** 7


class SieveLimitError(ValueError):
    """A sieve bound above MAX_SIEVE_BOUND."""


def check_sieve_bound(bound: int) -> None:
    """Refuse a negative bound, or one above MAX_SIEVE_BOUND (SieveLimitError)."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound > MAX_SIEVE_BOUND:
        raise SieveLimitError(f"bound {bound} is above the sieve limit {MAX_SIEVE_BOUND}")


def primes_up_to(bound: int) -> tuple[int, ...]:
    """The primes <= bound, ascending, by the sieve of Eratosthenes.

    Raises SieveLimitError, before allocating anything, when bound exceeds
    MAX_SIEVE_BOUND.
    """
    check_sieve_bound(bound)
    if bound < 2:
        return ()
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, isqrt(bound) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, bound + 1, q)))
    return tuple(i for i in range(bound + 1) if sieve[i])


# The 13 prime bases 2..41 make Miller-Rabin exact below psi_13, the least
# strong pseudoprime to all of them (Sorenson-Webster 2017).  The 12 bases
# 2..37 alone are exact only below psi_12 = 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PROVEN_PRIME_LIMIT = 3317044064679887385961981  # psi_13


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: whether the odd n > 2 is a strong probable prime to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality proof, exact for n < PROVEN_PRIME_LIMIT.

    Raises ValueError at or above the limit, where no answer would be proven.
    """
    if n < 2:
        return False
    if n >= PROVEN_PRIME_LIMIT:
        raise ValueError(f"{n} is at or above {PROVEN_PRIME_LIMIT}, where primality is not proven here")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    return all(_strong_probable_prime(n, a) for a in _MR_BASES)


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


class FactorizationError(ValueError):
    """An integer whose factorization cannot be completed and proven."""


# Trial division runs over the primes below _TRIAL_BOUND, so a cofactor below
# its square that is left over is prime.
_TRIAL_BOUND = 1000
_TRIAL_PRIMES = primes_up_to(_TRIAL_BOUND - 1)
# Steps (evaluations of x -> x^2 + c) one Pollard-Brent run may take before
# factorize gives up.  A prime factor q turns up after about 2·sqrt(q) steps:
# two 12-digit factors took 1.0M steps in the median and 4.0M at most over 30
# random semiprimes, so they still split, while a cofactor whose factors all
# have 20 digits fails after about 5 s (0.6 µs per step on a 2-core VM).
# The cap holds for cofactors up to _RHO_FULL_BITS; a step on a larger one
# costs more (1.2 µs at 192 bits, 57 µs at 3322), and the cap shrinks with
# the square of the size, so a run that finds nothing ends within seconds
# whatever the size.
RHO_MAX_STEPS = 1 << 23
_RHO_FULL_BITS = 192
_RHO_BATCH = 128  # steps per gcd
# Cofactors with more digits than this are refused before any work on them:
# the primality proof and the perfect-power check alone would take minutes
# on the largest discriminants the command line accepts.
MAX_COFACTOR_DIGITS = 1000
_MAX_COFACTOR = 10 ** MAX_COFACTOR_DIGITS


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_root(n: int) -> int | None:
    """r with r^k = n for some prime k, or None; n has no prime factor below
    _TRIAL_BOUND, so only k with _TRIAL_BOUND^k <= n can occur."""
    for k in _TRIAL_PRIMES:
        if _TRIAL_BOUND ** k > n:
            return None
        root = _iroot(n, k)
        if root ** k == n:
            return root
    return None


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n, which is not a perfect power,
    by Pollard's rho with Brent's cycle search (Brent, BIT 20, 1980).

    The map is x -> x^2 + c from x = 2, for c = 1, 2, ... in turn.
    Differences are multiplied together and reduced by one gcd per
    _RHO_BATCH steps; a batch whose gcd is n is replayed one gcd at a time.
    """
    max_steps = RHO_MAX_STEPS * _RHO_FULL_BITS ** 2 // max(n.bit_length(), _RHO_FULL_BITS) ** 2
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            # a round takes 2r steps: r to move x on, then r compared with x
            if steps + 2 * r > max_steps:
                raise FactorizationError(
                    f"Pollard rho found no factor of a {len(str(n))}-digit cofactor "
                    f"within {max_steps} steps"
                )
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _prime_factor(n: int) -> int:
    """A proven prime factor of n > 1, which has no prime factor below _TRIAL_BOUND."""
    while n >= _TRIAL_BOUND * _TRIAL_BOUND:
        if n < PROVEN_PRIME_LIMIT and is_prime(n):
            break
        root = _perfect_root(n)
        if root is not None:
            n = root
            continue
        if n >= PROVEN_PRIME_LIMIT and _strong_probable_prime(n, 2):
            raise FactorizationError(
                f"a {len(str(n))}-digit cofactor is a probable prime at or above "
                f"{PROVEN_PRIME_LIMIT}, so its primality cannot be proven"
            )
        d = _rho(n)
        n = min(d, n // d)  # the smaller part is the cheaper to split further
    return n


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor |n| into proven primes; returns ascending (prime, exponent) pairs.

    Trial division by the primes below _TRIAL_BOUND comes first.  Each prime
    factor of what is left is found by a perfect-power check or by Pollard
    rho, proven prime (below _TRIAL_BOUND^2 it must be, above that `is_prime`
    decides) and divided out completely.  Raises FactorizationError when the
    cofactor after trial division has more than MAX_COFACTOR_DIGITS digits,
    when a cofactor is a probable prime at or above PROVEN_PRIME_LIMIT, or
    when a rho run passes its cap (RHO_MAX_STEPS, less for cofactors above
    _RHO_FULL_BITS).  The sign of n is the caller's to track.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: list[tuple[int, int]] = []

    def strip(q: int) -> None:
        nonlocal n
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            out.append((q, e))

    for q in _TRIAL_PRIMES:
        if q * q > n:
            break
        strip(q)
    else:  # every prime factor left is at least _TRIAL_BOUND
        if n >= _MAX_COFACTOR:
            raise FactorizationError(
                f"the cofactor left after trial division has more than {MAX_COFACTOR_DIGITS} digits"
            )
        while n > 1:
            strip(_prime_factor(n))
    if n > 1:  # no factor below sqrt(n): prime
        out.append((n, 1))
    return sorted(out)
