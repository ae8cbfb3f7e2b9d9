"""Integer arithmetic for the rest of the package: primality and factoring.

Stdlib only on the common path. Primality is trial division, then
Miller-Rabin on the first 13 prime bases, which is deterministic below
3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86 (2017)).
Factoring is trial division, then Brent's variant of Pollard rho (Brent,
BIT 20 (1980)). sympy is imported lazily, and only for what these cannot
settle: primality above that bound, and a composite that survives the
rho budget.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt


def primes_up_to(n: int) -> list[int]:
    """The primes p <= n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


_TRIAL_BOUND = 1000
_SMALL_PRIMES = primes_up_to(_TRIAL_BOUND)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_MR_BASES = _SMALL_PRIMES[:13]
# the least strong pseudoprime to all of _MR_BASES
_MR_BOUND = 3317044064679887385961981
# modular squarings rho may spend on one cofactor before handing it to sympy
_RHO_BUDGET = 1 << 18


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """True iff n is a prime; deterministic for every integer n."""
    if n <= _TRIAL_BOUND:
        return n in _SMALL_PRIME_SET
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    if n < _TRIAL_BOUND * _TRIAL_BOUND:
        return True
    if n >= _MR_BOUND:
        from sympy import isprime

        return bool(isprime(n))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int | None:
    """A proper divisor of the odd composite n by Brent's rho, or None."""
    spent = 0
    for c in range(1, 20):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            spent += 2 * r
            r *= 2
            if spent > _RHO_BUDGET:
                return None
        if g == n:
            # the batched product overshot: step again one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


@lru_cache(maxsize=4096)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Factorization of |n| as ascending (prime, exponent) pairs.

    factor(1) == factor(-1) == (); n = 0 raises ValueError.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("factorization of 0 is undefined")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _rho(m)
        if d is None:
            from sympy import factorint

            for p, e in factorint(m).items():
                out[int(p)] = out.get(int(p), 0) + e
            continue
        pending += [d, m // d]
    return tuple(sorted(out.items()))


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n != 0, ascending."""
    return [p for p, _ in factor(n)]
