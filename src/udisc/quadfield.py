"""The imaginary quadratic field L = Q(sqrt(-delta0)) over K = Q.

The field and its elements as value types (Gram matrices and the demos
build them; udisc does no arithmetic in L), the splitting behavior
of rational primes, and membership in the norm group N(L*) <= Q*.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .arith import factor, is_prime
from .symbols import (
    Place,
    Rational,
    _as_fraction,
    _brief,
    _symbol_set,
    _unit_mod,
    _val_unit,
    hilbert,
    legendre,
    relevant_places,
)


class PrimeBehavior(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


class ImagQuadField:
    """L = Q(sqrt(-delta0)) for squarefree delta0 > 0.

    Equal and hashed by delta0, so fields serve as cache keys; the hash is
    kept, since the caches look a field up many times per answer.
    """

    __slots__ = ("delta0", "_hash")

    def __init__(self, delta0: int):
        if not isinstance(delta0, int) or isinstance(delta0, bool) or delta0 <= 0:
            raise ValueError(f"delta0 must be a positive integer, got {_brief(delta0)}")
        if any(e > 1 for _, e in factor(delta0)):
            raise ValueError(f"delta0 must be squarefree, got {delta0}")
        self.delta0 = delta0
        self._hash = hash((delta0,))

    def __eq__(self, other):
        if other.__class__ is not ImagQuadField:
            return NotImplemented
        return self.delta0 == other.delta0

    def __hash__(self):
        return self._hash

    @property
    def field_disc(self) -> int:
        # -delta0 when that is 1 mod 4, else -4*delta0
        if (-self.delta0) % 4 == 1:
            return -self.delta0
        return -4 * self.delta0

    def elem(self, x: Rational, y: Rational = 0) -> "QuadElem":
        return QuadElem(_as_fraction(x), _as_fraction(y), self)

    def __repr__(self):
        return f"Q(sqrt(-{self.delta0}))"


class QuadElem:
    """x + y*sqrt(-delta0), with exact rational coordinates; equal and
    hashed by value. A value type: HermitianGram reads x and y."""

    __slots__ = ("x", "y", "field")

    def __init__(self, x: Fraction, y: Fraction, field: ImagQuadField):
        self.x = x
        self.y = y
        self.field = field

    def __eq__(self, other):
        if other.__class__ is not QuadElem:
            return NotImplemented
        return (self.x, self.y, self.field) == (other.x, other.y, other.field)

    def __hash__(self):
        return hash((self.x, self.y, self.field))

    def __repr__(self):
        return f"({self.x} + {self.y}*sqrt(-{self.field.delta0}))"


@lru_cache(maxsize=4096)
def prime_behavior(L: ImagQuadField, p: int) -> PrimeBehavior:
    """How the rational prime p decomposes in L; cached per (L, p)."""
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")
    d = L.field_disc
    if d % p == 0:
        return PrimeBehavior.RAMIFIED
    # an unramified 2 meets an odd d = 1 mod 4, and splits iff d = 1 mod 8
    if (d % 8 == 1) if p == 2 else legendre(d, p) == 1:
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
    return _symbol_set(a, L.field_disc)


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
        if legendre(_unit_mod(u_adj, p), p) == -1:
            return False
    return True
