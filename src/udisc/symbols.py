"""Residue symbols and Hilbert symbols over Q, exactly.

Everything downstream (norm classes, Brauer classes, discriminants)
reduces to the local symbols computed here.  All arithmetic is exact:
rationals are ``fractions.Fraction``, integers are factored by
``udisc.arith``.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import factor, is_prime, prime_factors

# The infinite place of Q.  Finite places are the primes themselves.
INF = "inf"

Place = int | str
SquareClassQ = int

Rational = int | Fraction


def _as_fraction(q: Rational) -> Fraction:
    return q if isinstance(q, Fraction) else Fraction(q)


def squarefree_part(*qs: Rational) -> SquareClassQ:
    """Signed squarefree integer representing the square class of prod(qs).

    prod(qs) / squarefree_part(*qs) is always the square of a rational.
    Each numerator and denominator is factored on its own, never the product.
    """
    t = 1
    odd = set()
    for q in qs:
        q = _as_fraction(q)
        if q == 0:
            raise ValueError("square class of 0 is undefined")
        if q < 0:
            t = -t
        for n in (q.numerator, q.denominator):
            odd.symmetric_difference_update(p for p, e in factor(n) if e % 2)
    for p in odd:
        t *= p
    return t


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p: 0, +1 or -1."""
    if p <= 2 or not is_prime(p):
        raise ValueError(f"legendre needs an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), multiplicative in n.

    Extended to n = 2 by the mod 8 rule and to negative n through
    (a|-1) = sign(a), the standard convention.
    """
    if n == 0:
        raise ValueError("kronecker symbol needs n != 0")
    result = 1
    if n < 0:
        result = -1 if a < 0 else 1
        n = -n
    for p, e in factor(n):
        if p == 2:
            if a % 2 == 0:
                return 0
            s = 1 if a % 8 in (1, 7) else -1
        else:
            s = legendre(a, p)
        if s == 0:
            return 0
        result *= s**e
    return result


def _val_unit(q: Fraction, p: int) -> tuple[int, Fraction]:
    """Write q = p^alpha * u with u a p-unit; returns (alpha, u)."""
    alpha = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        alpha += 1
    while den % p == 0:
        den //= p
        alpha -= 1
    return alpha, Fraction(num, den)


def _unit_mod(u: Fraction, p_power: int) -> int:
    # u has numerator and denominator prime to p_power
    return u.numerator * pow(u.denominator, -1, p_power) % p_power


def _eps(u: Fraction) -> int:
    # (u - 1)/2 mod 2 for a 2-adic unit u
    return 0 if _unit_mod(u, 4) == 1 else 1


def _omega(u: Fraction) -> int:
    # (u^2 - 1)/8 mod 2 for a 2-adic unit u
    return 0 if _unit_mod(u, 8) in (1, 7) else 1


def hilbert(a: Rational, b: Rational, v: Place) -> int:
    """Local Hilbert symbol (a,b)_v: +1 if split, -1 if division algebra."""
    a, b = _as_fraction(a), _as_fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if v == INF:
        return -1 if a < 0 and b < 0 else 1
    p = v
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"not a place of Q: {v!r}")
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    if p == 2:
        e = _eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)
        return -1 if e % 2 else 1
    s = 1
    if (alpha * beta) % 2:
        s *= legendre(-1, p)
    if beta % 2:
        s *= legendre(_unit_mod(u, p), p)
    if alpha % 2:
        s *= legendre(_unit_mod(w, p), p)
    return s


def relevant_places(*qs: Rational) -> list[Place]:
    """INF plus 2 and the primes dividing a numerator or denominator of qs.

    Away from these, (a,b)_v is +1 for any a, b among the qs.  Each
    numerator and denominator is factored on its own, never the product.
    """
    primes = {2}
    for q in qs:
        q = _as_fraction(q)
        primes.update(prime_factors(q.numerator), prime_factors(q.denominator))
    return [INF] + sorted(primes)


def hilbert_reciprocity_check(a: Rational, b: Rational) -> bool:
    """Product formula self-test: prod of (a,b)_v over all places is +1."""
    prod = 1
    for v in relevant_places(a, b):
        prod *= hilbert(a, b, v)
    return prod == 1


def place_sort_key(v: Place) -> tuple[int, int]:
    """Canonical ordering: the infinite place first, then primes ascending."""
    if v == INF:
        return (0, 0)
    return (1, v)


def render_places(places) -> str:
    """Render a set of places like ``ram{inf,3}``."""
    inner = ",".join(str(v) for v in sorted(places, key=place_sort_key))
    return "ram{" + inner + "}"
