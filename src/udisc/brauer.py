"""Brauer classes of quaternion algebras over Q and their field discriminants.

An order-2 class in the rational Brauer group is determined by its set of
ramified places, which is finite, even in size, and contains no complex
place. We store that set directly; the class of a symbol algebra (a,b)_Q
ramifies exactly where the Hilbert symbol is -1.

For an imaginary quadratic splitting field L, `l_disc` picks the canonical
signed squarefree integer t with (field_disc, t)_Q in the given class,
minimal in absolute value and positive on ties.
"""

from dataclasses import dataclass
from itertools import combinations

from .arith import prime_factors, primes_up_to
from .quadfield import ImagQuadField, PrimeBehavior, norm_class, prime_behavior
from .symbols import (
    INF,
    Rational,
    hilbert,
    relevant_places,
    render_places,
)


@dataclass(frozen=True)
class BrauerClassQ:
    """Order-2 Brauer class over Q, as its ramification set."""

    ram: frozenset

    def __post_init__(self):
        if len(self.ram) % 2 != 0:
            raise ValueError(f"ramification set must have even size: {set(self.ram)}")
        for v in self.ram:
            if v != INF and (not isinstance(v, int) or v < 2):
                raise ValueError(f"not a place of Q: {v!r}")

    def is_split(self) -> bool:
        return not self.ram

    def mul(self, other: "BrauerClassQ") -> "BrauerClassQ":
        return BrauerClassQ(self.ram ^ other.ram)

    def pow(self, k: int) -> "BrauerClassQ":
        return self if k % 2 else BrauerClassQ(frozenset())

    def render(self) -> str:
        return render_places(self.ram)


def from_pair(a: Rational, b: Rational) -> BrauerClassQ:
    """Class of the symbol algebra (a,b)_Q."""
    ram = frozenset(v for v in relevant_places(a, b) if hilbert(a, b, v) == -1)
    return BrauerClassQ(ram)


def splits_in(c: BrauerClassQ, L: ImagQuadField) -> bool:
    """True when L splits c: no finite ramified place of c splits in L.

    The infinite place never obstructs since L is imaginary.
    """
    return all(
        v == INF or prime_behavior(L, v) != PrimeBehavior.SPLIT for v in c.ram
    )


def _candidate_reps(c: BrauerClassQ, L: ImagQuadField):
    # any representative's prime support lies in the primes of
    # 2 * field_disc * (finite ramified places of c)
    primes = set(prime_factors(2 * L.field_disc))
    primes.update(v for v in c.ram if v != INF)
    primes = sorted(primes)
    seen = set()
    for r in range(len(primes) + 1):
        for combo in combinations(primes, r):
            t = 1
            for p in combo:
                t *= p
            for cand in (t, -t):
                if cand not in seen:
                    seen.add(cand)
                    yield cand


def l_disc(c: BrauerClassQ, L: ImagQuadField) -> int:
    """Canonical signed squarefree t with norm class of t in L equal to c.ram.

    Minimal |t| wins; positive wins a sign tie. Raises when L does not
    split c (no such t exists then).
    """
    if not splits_in(c, L):
        raise ValueError("L is not a splitting field")
    best = None
    for t in _candidate_reps(c, L):
        if norm_class(t, L) == c.ram:
            if best is None or (abs(t), t < 0) < (abs(best), best < 0):
                best = t
    if best is None:
        raise RuntimeError(
            f"no representative found for {c.render()} over Q(sqrt(-{L.delta0}))"
        )
    return best


def pair_presentation(c: BrauerClassQ) -> tuple | None:
    """Small (a,b) with (a,b)_Q = c, for display; None if the search misses.

    Candidates are signed squarefree products of 2 and the odd ramified
    primes of c, ordered to prefer small and positive entries. Some classes
    (e.g. {inf, p} with p = 1 mod 8) need an entry outside that pool, so
    failing rounds retry with one auxiliary small prime added.
    """
    base = [2] + sorted(v for v in c.ram if v != INF and v != 2)
    aux_choices = [None] + [q for q in primes_up_to(99) if q not in base]
    for aux in aux_choices:
        primes = sorted(base + [aux]) if aux else base
        pool = set()
        for r in range(len(primes) + 1):
            for combo in combinations(primes, r):
                t = 1
                for p in combo:
                    t *= p
                pool.add(t)
                pool.add(-t)
        cands = sorted(pool, key=lambda t: (abs(t), t < 0))

        def pair_key(ab):
            a, b = ab
            return (max(abs(a), abs(b)), abs(a) + abs(b), (a < 0) + (b < 0), a, b)

        pairs = [(a, b) for a in cands for b in cands if abs(a) <= abs(b)]
        for a, b in sorted(pairs, key=pair_key):
            if from_pair(a, b) == c:
                return (a, b)
    return None
