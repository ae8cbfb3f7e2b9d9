"""The imaginary quadratic field L = Q(sqrt(-delta0)) over K = Q.

Elements, conjugation and norms, splitting behavior of rational
primes, and membership in the norm group N(L*) <= Q*.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .arith import factor, is_prime
from .symbols import (
    Place,
    Rational,
    _as_fraction,
    _val_unit,
    hilbert,
    kronecker,
    legendre,
    relevant_places,
)


class PrimeBehavior(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class ImagQuadField:
    """L = Q(sqrt(-delta0)) for squarefree delta0 > 0."""

    delta0: int

    def __post_init__(self):
        d = self.delta0
        if not isinstance(d, int) or d <= 0:
            raise ValueError(f"delta0 must be a positive integer, got {d!r}")
        if any(e > 1 for _, e in factor(d)):
            raise ValueError(f"delta0 must be squarefree, got {d}")

    @property
    def field_disc(self) -> int:
        # -delta0 when that is 1 mod 4, else -4*delta0
        if (-self.delta0) % 4 == 1:
            return -self.delta0
        return -4 * self.delta0

    def sqrt_gen(self) -> "QuadElem":
        """The element sqrt(-delta0)."""
        return QuadElem(Fraction(0), Fraction(1), self)

    def elem(self, x: Rational, y: Rational = 0) -> "QuadElem":
        return QuadElem(_as_fraction(x), _as_fraction(y), self)

    def __repr__(self):
        return f"Q(sqrt(-{self.delta0}))"


@dataclass(frozen=True)
class QuadElem:
    """x + y*sqrt(-delta0), with exact rational coordinates."""

    x: Fraction
    y: Fraction
    field: ImagQuadField

    def conj(self) -> "QuadElem":
        return QuadElem(self.x, -self.y, self.field)

    def norm(self) -> Fraction:
        return self.x * self.x + self.field.delta0 * self.y * self.y

    def trace(self) -> Fraction:
        return 2 * self.x

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.field != self.field:
                raise ValueError("mixed fields")
            return other
        return QuadElem(_as_fraction(other), Fraction(0), self.field)

    def __add__(self, other):
        o = self._coerce(other)
        return QuadElem(self.x + o.x, self.y + o.y, self.field)

    def __sub__(self, other):
        o = self._coerce(other)
        return QuadElem(self.x - o.x, self.y - o.y, self.field)

    def __neg__(self):
        return QuadElem(-self.x, -self.y, self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.field.delta0
        return QuadElem(
            self.x * o.x - d * self.y * o.y,
            self.x * o.y + self.y * o.x,
            self.field,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        c = o.conj()
        num = self * c
        return QuadElem(num.x / n, num.y / n, self.field)

    def __repr__(self):
        return f"({self.x} + {self.y}*sqrt(-{self.field.delta0}))"


def prime_behavior(L: ImagQuadField, p: int) -> PrimeBehavior:
    """How the rational prime p decomposes in L."""
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    d = L.field_disc
    if d % p == 0:
        return PrimeBehavior.RAMIFIED
    if kronecker(d, p) == 1:
        return PrimeBehavior.SPLIT
    return PrimeBehavior.INERT


def norm_class(a: Rational, L: ImagQuadField) -> frozenset[Place]:
    """The places where (a, field_disc)_v = -1.

    This finite even set determines the class of a in Q*/N(L*); it is
    empty exactly when a is a norm, and never meets a split place.
    """
    a = _as_fraction(a)
    if a == 0:
        raise ValueError("norm class of 0 is undefined")
    d = L.field_disc
    return frozenset(v for v in relevant_places(a, d) if hilbert(a, d, v) == -1)


def is_norm(a: Rational, L: ImagQuadField) -> bool:
    """True iff a is a norm from L, i.e. all local symbols are +1."""
    return not norm_class(a, L)


def is_norm_by_criteria(a: Rational, L: ImagQuadField) -> bool:
    """Independent norm test by the three valuation criteria.

    a is a norm iff (i) a > 0, (ii) a has even valuation at every
    inert prime, (iii) a is a local norm at every ramified prime.
    At an odd ramified p, after multiplying by powers of -field_disc
    (itself the norm of sqrt(field_disc)) to clear the valuation, the
    criterion is that the residue is a square mod p.  At p = 2 the
    dyadic Hilbert symbol decides.
    """
    a = _as_fraction(a)
    if a == 0:
        raise ValueError("norm test of 0 is undefined")
    if a < 0:
        return False
    d = L.field_disc
    for p in relevant_places(a, d)[1:]:  # the finite places
        behavior = prime_behavior(L, p)
        if behavior == PrimeBehavior.SPLIT:
            continue
        k, u = _val_unit(a, p)
        if behavior == PrimeBehavior.INERT:
            if k % 2:
                return False
            continue
        # ramified
        if p == 2:
            if hilbert(a, d, 2) == -1:
                return False
            continue
        # scale by (-d)^(-k): -d is a norm and has valuation 1 at p
        _, m = _val_unit(Fraction(-d), p)
        u_adj = u * m ** (-k % 2)  # only the parity of k matters
        res = u_adj.numerator * pow(u_adj.denominator, -1, p) % p
        if legendre(res, p) == -1:
            return False
    return True
