"""Independent arithmetic the benchmark checks udisc's answers against.

Nothing here imports udisc or sympy. The Hilbert symbol follows the
textbook formulas (Serre, A Course in Arithmetic, III.1.2), determinants are
exact Fraction elimination over Q(sqrt(-d)), and integers are factored by
trial division, Miller-Rabin and Pollard-Brent rho.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

INF = "inf"

_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:25]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
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


def _rho(n: int, rng: random.Random) -> int:
    # Brent's cycle finding with batched gcds; returns a proper factor of n
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor(n: int) -> dict:
    """Prime factorisation {p: e} of |n| >= 1."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    rng = random.Random(n)
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        d = _rho(m, rng)
        stack += [d, m // d]
    return out


def squarefree_part(q) -> int:
    q = Fraction(q)
    if q == 0:
        raise ValueError("square class of 0")
    t = 1 if q > 0 else -1
    for p, e in factor(q.numerator * q.denominator).items():
        if e % 2:
            t *= p
    return t


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def field_disc(d0: int) -> int:
    return -d0 if (-d0) % 4 == 1 else -4 * d0


def behaviour(d0: int, p: int) -> str:
    """How the prime p decomposes in Q(sqrt(-d0)): split, inert or ramified."""
    D = field_disc(d0)
    if D % p == 0:
        return "ramified"
    if p == 2:
        return "split" if D % 8 == 1 else "inert"
    return "split" if legendre(D, p) == 1 else "inert"


def _split(q: Fraction, p: int):
    # q = p^v * num/den with num and den prime to p; returns (v, num, den)
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v, num, den


def hilbert(a, b, v) -> int:
    """(a, b)_v for nonzero rationals a, b and a place v of Q."""
    a, b = Fraction(a), Fraction(b)
    if v == INF:
        return -1 if a < 0 and b < 0 else 1
    p = v
    al, an, ad = _split(a, p)
    be, bn, bd = _split(b, p)
    if p == 2:
        u = an * ad % 8  # ad is odd, so ad^-1 = ad mod 8
        w = bn * bd % 8
        eps = lambda x: ((x - 1) // 2) % 2
        omega = lambda x: ((x * x - 1) // 8) % 2
        e = eps(u) * eps(w) + al * omega(w) + be * omega(u)
        return -1 if e % 2 else 1
    u = an * pow(ad, -1, p) % p
    w = bn * pow(bd, -1, p) % p
    s = -1 if (al * be * ((p - 1) // 2)) % 2 else 1
    if be % 2:
        s *= legendre(u, p)
    if al % 2:
        s *= legendre(w, p)
    return s


def places_of(*qs) -> list:
    """INF and the primes dividing 2 and the numerators and denominators."""
    primes = {2}
    for q in qs:
        q = Fraction(q)
        primes |= set(factor(q.numerator * q.denominator))
    return [INF] + sorted(primes)


def pair_class(a, b) -> frozenset:
    """Ramification set of the quaternion algebra (a, b)_Q."""
    return frozenset(v for v in places_of(a, b) if hilbert(a, b, v) == -1)


def place_key(v):
    return (0, 0) if v == INF else (1, v)


# --- Hermitian forms -------------------------------------------------------


def _mul(x, y, d0):
    return (x[0] * y[0] - d0 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _div(x, y, d0):
    n = y[0] * y[0] + d0 * y[1] * y[1]
    num = _mul(x, (y[0], -y[1]), d0)
    return (num[0] / n, num[1] / n)


def determinant(entries, d0):
    """det of a matrix over Q(sqrt(-d0)), entries as (x, y) Fraction pairs."""
    m = [list(row) for row in entries]
    n = len(m)
    det = (Fraction(1), Fraction(0))
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != (0, 0)), None)
        if piv is None:
            return (Fraction(0), Fraction(0))
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = (-det[0], -det[1])
        det = _mul(det, m[c][c], d0)
        for r in range(c + 1, n):
            f = _div(m[r][c], m[c][c], d0)
            if f != (0, 0):
                for j in range(c, n):
                    x = _mul(f, m[c][j], d0)
                    m[r][j] = (m[r][j][0] - x[0], m[r][j][1] - x[1])
    return det


def pivots(entries, d0) -> list:
    """Pivots of elimination without row exchanges, as rationals.

    The i-th pivot is D_i / D_(i-1) for the leading principal minors D_i.
    For a positive definite Hermitian matrix every pivot is a positive
    rational, and diag(pivots) is isometric to the form.
    """
    m = [list(row) for row in entries]
    n = len(m)
    out = []
    for c in range(n):
        piv = m[c][c]
        if piv[1] != 0 or piv[0] == 0:
            raise ValueError("pivot %d is not a nonzero rational" % c)
        out.append(piv[0])
        for r in range(c + 1, n):
            f = _div(m[r][c], piv, d0)
            if f != (0, 0):
                for j in range(c, n):
                    x = _mul(f, m[c][j], d0)
                    m[r][j] = (m[r][j][0] - x[0], m[r][j][1] - x[1])
    return out


def hasse(coeffs, v) -> int:
    s = 1
    for i, j in combinations(range(len(coeffs)), 2):
        s *= hilbert(coeffs[i], coeffs[j], v)
    return s


# --- norms and discriminant representatives --------------------------------


def is_norm_brute(a: int, d0: int) -> bool:
    """Conclusive search for x^2 + d0*y^2 = a*z^2 with z != 0.

    a > 0 is reduced to its squarefree part s; with g = gcd(s, d0),
    d = d0/g and e = s/g the equation becomes g*x^2 + d*y^2 = e*z^2, and a
    solvable one of that shape has a solution with |x| <= sqrt(d*e) and
    |y| <= sqrt(g*e) (Legendre's descent bound), so the box decides it.
    """
    if a < 0:
        return False
    s = squarefree_part(a)
    g = math.gcd(s, d0)
    d, e = d0 // g, s // g
    for x in range(math.isqrt(d * e) + 2):
        for y in range(math.isqrt(g * e) + 2):
            val = g * x * x + d * y * y
            if val and val % e == 0:
                z2 = val // e
                if math.isqrt(z2) ** 2 == z2:
                    return True
    return False


def _spf_table(n: int) -> list:
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


class MinimalReps:
    """Smallest signed squarefree t with |t| <= bound for each norm class.

    The class of t is the ramification set of (field_disc, t)_Q. A reported
    representative t of class R is minimal if it equals the table entry of R,
    or if |t| > bound and R has no entry at all.
    """

    def __init__(self, d0: int, bound: int):
        self.bound = bound
        D = field_disc(d0)
        spf = _spf_table(bound)
        d_primes = {2} | set(factor(D))
        self.table: dict = {}
        for m in range(1, bound + 1):
            primes, x, sq = [], m, True
            while x > 1:
                p = spf[x]
                x //= p
                if x % p == 0:
                    sq = False
                    break
                primes.append(p)
            if not sq:
                continue
            places = [INF] + sorted(d_primes | set(primes))
            for t in (m, -m):
                cls = frozenset(v for v in places if hilbert(D, t, v) == -1)
                self.table.setdefault(cls, t)

    def is_minimal(self, cls: frozenset, t: int) -> bool:
        if cls in self.table:
            return self.table[cls] == t
        return abs(t) > self.bound


def candidate_classes(base: frozenset, free: list) -> list:
    """Every even-size completion of base by a subset of the free places."""
    out = []
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            cls = base | frozenset(extra)
            if len(cls) % 2 == 0:
                out.append(cls)
    return out
