"""Residue symbols and Hilbert symbols over Q, exactly.

Everything downstream (norm classes, Brauer classes, discriminants)
reduces to the local symbols computed here.  One kernel evaluates them:
``hasse_symbol`` folds the signs, valuation parities and unit residues of
integer coefficients at one place, and ``hilbert`` is its two-coefficient
case.  This module also owns what every caller needs around that kernel:
the check that a value is a place of Q (``_place``), the set of places a
symbol may be -1 at (``relevant_places``), and the set where it is -1
(``_symbol_set``).  All arithmetic is exact: rationals are
``fractions.Fraction``, integers are factored by ``udisc.arith``.
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


def hasse_symbol(zs, v: Place) -> int:
    """Hasse symbol prod_{i<j} (z_i, z_j)_v of the diagonal form <z_1, ..., z_m>.

    The z are nonzero integers; a rational x/y enters as z = x*y, of the
    same square class.  v is INF or a prime and is not checked.  By
    bilinearity the symbol is the product over j of (h, z_j)_v with
    h = z_1...z_{j-1}, so each z is read once: its sign at INF, and at a
    prime p its valuation parity a and unit residue u (mod p, or mod 8 at
    2).  h is kept as (ha, hu), and at 2 as eps and omega sums (he, hw).
    """
    if v == INF:
        neg = sum(1 for z in zs if z < 0)
        return -1 if neg * (neg - 1) // 2 % 2 else 1
    p = v
    t = ha = he = hw = 0
    hu = g = 1
    for z in zs:
        a = 0
        while z % p == 0:
            z, a = z // p, a ^ 1
        u = z % (8 if p == 2 else p)
        if p == 2:
            e, w = u >> 1 & 1, u in (3, 5)
            t += (he & e) + (ha & w) + (a & hw)
            he, hw = he ^ e, hw ^ w
        else:
            # (h, z)_p = ((-1)^(ha*a) * hu^a * u^ha | p)
            if a:
                g = g * (-hu if ha else hu) % p
            if ha:
                g = g * u % p
            hu = hu * u % p
        ha ^= a
    if p == 2:
        return -1 if t % 2 else 1
    # g is a unit mod p: Euler's criterion
    return 1 if pow(g, (p - 1) // 2, p) == 1 else -1


def _place(v) -> Place:
    """v itself, when it is INF or a prime; the one check of a place of Q."""
    if v != INF and (not isinstance(v, int) or not is_prime(v)):
        raise ValueError(f"not a place of Q: {v!r}")
    return v


def _brief(s) -> str:
    """repr(s) for a message; a string over 40 characters is shown as its
    first 40 and its length, so no refusal echoes a huge argument whole."""
    if isinstance(s, str) and len(s) > 40:
        return "%r... (%d characters)" % (s[:40], len(s))
    return repr(s)


def _square_classes(a: Rational, b: Rational) -> tuple[int, int]:
    # each rational enters hasse_symbol as numerator times denominator
    a, b = _as_fraction(a), _as_fraction(b)
    za, zb = a.numerator * a.denominator, b.numerator * b.denominator
    if not (za and zb):
        raise ValueError("hilbert symbol needs nonzero arguments")
    return za, zb


def hilbert(a: Rational, b: Rational, v: Place) -> int:
    """Local Hilbert symbol (a,b)_v: +1 if split, -1 if division algebra.

    It is the Hasse symbol of <a, b>."""
    return hasse_symbol(_square_classes(a, b), _place(v))


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


def _symbol_set(a: Rational, b: Rational, places: list | None = None) -> frozenset:
    """The places v where (a,b)_v = -1, among places when given (they must
    hold every such place) or else relevant_places(a, b). A zero argument
    is refused the same way in both cases."""
    zs = _square_classes(a, b)
    places = places or relevant_places(a, b)
    return frozenset(v for v in places if hasse_symbol(zs, _place(v)) == -1)


def hilbert_reciprocity_check(a: Rational, b: Rational) -> bool:
    """Product formula self-test: (a,b)_v is -1 at an even number of places."""
    return len(_symbol_set(a, b)) % 2 == 0


def place_sort_key(v: Place) -> tuple[int, int]:
    """Canonical ordering: the infinite place first, then primes ascending."""
    if v == INF:
        return (0, 0)
    return (1, v)


def render_places(places) -> str:
    """Render a set of places like ``ram{inf,3}``."""
    inner = ",".join(str(v) for v in sorted(places, key=place_sort_key))
    return "ram{" + inner + "}"
