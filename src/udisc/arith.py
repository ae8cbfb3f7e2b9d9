"""Integer arithmetic for the rest of the package: primality and factoring.

Stdlib only. Primality is trial division, then Miller-Rabin on the first 13
prime bases, deterministic below 3317044064679887385961981 (Sorenson and
Webster, Math. Comp. 86 (2017)); above it a strong Lucas test follows, which
with base 2 makes Baillie-PSW (Baillie and Wagstaff, Math. Comp. 35 (1980)).
Factoring returns a prime known to the cached primality test at once, else
runs trial division, Brent's rho (BIT 20 (1980)), then stage-1 ECM (Lenstra,
Ann. Math. 126 (1987)) on Montgomery curves with Suyama's parametrization
(Montgomery, Math. Comp. 48 (1987)) under a fixed budget.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt


class FactoringLimit(ValueError):
    """A composite had no factor found within the factoring budget."""


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
# modular squarings rho may spend on one cofactor before ECM takes over
_RHO_BUDGET = 1 << 18
# (curves, B1) of stage-1 ECM on a cofactor that rho did not split; fixed
# sigma = 6, 7, ... make every outcome, FactoringLimit included, reproducible
_ECM_BUDGET = (80, 11000)


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """True iff n is a prime; deterministic below _MR_BOUND, Baillie-PSW above."""
    if n <= _TRIAL_BOUND:
        return n in _SMALL_PRIME_SET
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    if n < _TRIAL_BOUND * _TRIAL_BOUND:
        return True
    return _miller_rabin(n) and (n < _MR_BOUND or _strong_lucas(n))


def _miller_rabin(n: int) -> bool:
    """True iff the odd n > 41 is a strong probable prime to all _MR_BASES."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
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


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a|n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """True iff the odd n > 1 is a strong Lucas probable prime, with P = 1,
    Q = (1 - D)/4 and D the first of 5, -7, 9, -11, ... with (D|n) = -1."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if j == 0:
        return n == abs(D)
    Q, half = (1 - D) // 4, (n + 1) // 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_k, V_k and Q^k for k running through the leading bits of (n + 1)/2^s
    U, V, Qk = 1, 1, Q
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * half % n, (D * U + V) * half % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


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


@lru_cache(maxsize=4)
def _ladder_bits(b1: int) -> str:
    """The binary digits of lcm(1, ..., b1), the product of the largest
    power of each prime p <= b1 that is at most b1.

    Built on the first ECM call for each b1, never at import.
    """
    k = 1
    for p in primes_up_to(b1):
        q = p
        while q * p <= b1:
            q *= p
        k *= q
    return bin(k)[2:]


def _ecm(n: int) -> int | None:
    """A proper divisor of the odd composite n by stage-1 ECM, or None."""
    curves, b1 = _ECM_BUDGET
    # the ladder multiplies by lcm(1, ..., B1), which holds every prime
    # power up to B1
    bits = _ladder_bits(b1)
    for sigma in range(6, 6 + curves):
        # Suyama: the point (u^3 : v^3) on the curve with (A + 2)/4 = a24
        u, v = sigma * sigma - 5, 4 * sigma
        den = 16 * u**3 * v
        if (g := gcd(den, n)) != 1:
            return g if g < n else None
        a24 = (v - u) ** 3 * (3 * u + v) * pow(den, -1, n) % n
        x0, z0 = u**3 % n, v**3 % n
        # Montgomery ladder from O: (xa : za) = kP, (xb : zb) = (k + 1)P
        xa, za, xb, zb = 1, 0, x0, z0
        for bit in bits:
            if bit == "1":
                xa, za, xb, zb = xb, zb, xa, za
            s, t = (xa - za) * (xb + zb) % n, (xa + za) * (xb - zb) % n
            xb, zb = z0 * (s + t) ** 2 % n, x0 * (s - t) ** 2 % n
            s, t = (xa + za) ** 2 % n, (xa - za) ** 2 % n
            xa, za = s * t % n, (s - t) * (t + a24 * (s - t)) % n
            if bit == "1":
                xa, za, xb, zb = xb, zb, xa, za
        g = gcd(za, n)
        if 1 < g < n:
            return g
    return None


def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Factorization of |n| as ascending (prime, exponent) pairs.

    factor(1) == factor(-1) == (); n = 0 raises ValueError. A composite
    that neither rho nor the ECM budget splits raises FactoringLimit.
    """
    # one cache entry for n and -n, so no composite is split twice
    return _factor_abs(abs(n))


@lru_cache(maxsize=4096)
def _factor_abs(n: int) -> tuple[tuple[int, int], ...]:
    if n == 0:
        raise ValueError("factorization of 0 is undefined")
    if is_prime(n):
        return ((n, 1),)
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
        d = _rho(m) or _ecm(m)
        if d is None:
            raise FactoringLimit("no factor of a %d-digit composite found within"
                                 " the budget of %d ECM curves at B1 = %d"
                                 % (len(str(m)), *_ECM_BUDGET))
        pending += [d, m // d]
    return tuple(sorted(out.items()))


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n != 0, ascending."""
    return [p for p, _ in factor(n)]
