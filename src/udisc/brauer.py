"""Brauer classes of quaternion algebras over Q and their field discriminants.

An order-2 class in the rational Brauer group is determined by its set of
ramified places, which is finite, even in size, and contains no complex
place. We store that set directly; the class of a symbol algebra (a,b)_Q
ramifies exactly where the Hilbert symbol is -1.

For an imaginary quadratic splitting field L, `l_disc` picks the canonical
signed squarefree integer t with (field_disc, t)_Q in the given class,
minimal in absolute value and positive on ties.
"""

from functools import lru_cache
from itertools import combinations
from math import prod
from typing import NamedTuple

from .arith import prime_factors, primes_up_to
from .quadfield import ImagQuadField, PrimeBehavior, norm_class, prime_behavior
from .symbols import INF, Rational, _place, _symbol_set, hilbert, place_sort_key, render_places


class BrauerClassQ:
    """Order-2 Brauer class over Q, as its ramification set; equal and
    hashed by that set."""

    __slots__ = ("ram",)

    def __init__(self, ram):
        ram = frozenset(map(_place, ram))
        if len(ram) % 2 != 0:
            raise ValueError("ramification set must have even size: {%s}"
                             % ", ".join(repr(v) for v in sorted(ram, key=place_sort_key)))
        self.ram = ram

    def __eq__(self, other):
        if other.__class__ is not BrauerClassQ:
            return NotImplemented
        return self.ram == other.ram

    def __hash__(self):
        return hash((self.ram,))

    def __repr__(self):
        return f"BrauerClassQ(ram={self.ram!r})"

    def mul(self, other: "BrauerClassQ") -> "BrauerClassQ":
        return BrauerClassQ(self.ram ^ other.ram)

    def pow(self, k: int) -> "BrauerClassQ":
        return self if k % 2 else BrauerClassQ(frozenset())

    def render(self) -> str:
        return render_places(self.ram)


def from_pair(a: Rational, b: Rational, places: list | None = None) -> BrauerClassQ:
    """Class of the symbol algebra (a,b)_Q; places, when given, must hold
    every place where it may ramify (relevant_places(a, b) does)."""
    return BrauerClassQ(_symbol_set(a, b, places))


def splits_in(c: BrauerClassQ, L: ImagQuadField) -> bool:
    """True when L splits c: no finite ramified place of c splits in L.

    The infinite place never obstructs since L is imaginary.
    """
    for v in c.ram:
        if v != INF and prime_behavior(L, v) is PrimeBehavior.SPLIT:
            return False
    return True


# the norm class of one basis element: -1 or a prime
_column = lru_cache(maxsize=4096)(norm_class)


def _mask(places, bit: dict) -> int:
    # a set of places as a bitmask over bit
    m = 0
    for v in places:
        m |= bit[v]
    return m


def _split_products(L: ImagQuadField, bit: dict) -> dict:
    """Smallest product of distinct odd split primes in each norm class,
    keyed by the class as a bitmask over bit.

    A split prime's class lies on the primes dividing field_disc and has
    even size there; by genus theory every such set is the class of some
    split prime, so the 2^(r-1) classes (r primes dividing field_disc) are
    all reached. Primes are taken in ascending order, so the search stops
    at the first split prime above every entry's product.
    """
    want = 1 << (len(prime_factors(L.field_disc)) - 1)
    best = {0: 1}
    lo, hi = 2, 64
    while True:
        for p in primes_up_to(hi):
            if p <= lo or prime_behavior(L, p) != PrimeBehavior.SPLIT:
                continue
            if len(best) == want and p > max(best.values()):
                return best
            col = _mask(_column(p, L), bit)
            for w, m in list(best.items()):
                if w ^ col not in best or m * p < best[w ^ col]:
                    best[w ^ col] = m * p
        lo, hi = hi, 2 * hi


def _echelon(columns: list) -> tuple[list, list]:
    """Reduce bitmask columns over F2.

    Returns the pivots as (pivot bit, reduced column, combination) and the
    kernel as combinations, where a combination is a bitmask over the
    column indices.
    """
    pivots, kernel = [], []
    for j, col in enumerate(columns):
        comb = 1 << j
        for bit, vec, c in pivots:
            if col & bit:
                col ^= vec
                comb ^= c
        if col:
            pivots.append((col & -col, col, comb))
        else:
            kernel.append(comb)
    return pivots, kernel


def _solve(pivots: list, target: int) -> int | None:
    # one combination of the columns summing to target, or None
    x = 0
    for bit, vec, c in pivots:
        if target & bit:
            target ^= vec
            x ^= c
    return None if target else x


class _NormSystem(NamedTuple):
    """The norm classes of L as linear algebra over F2.

    basis: -1 and the primes of 2 * field_disc (2 even when inert), whose
    products s are the signed part of a representative. bit: one bit for
    each of inf, 2 and the primes of field_disc, the places where such an s
    or a split prime can have a nonzero symbol. pivots and kernel: the
    echelon form of the basis columns. splits: the table of
    _split_products. smallest: the smallest s * m of each class solved so
    far, None where there is none, keyed like splits.
    """

    basis: list
    bit: dict
    pivots: list
    kernel: list
    splits: dict
    smallest: dict


@lru_cache(maxsize=256)
def _system(L: ImagQuadField) -> _NormSystem:
    basis = [-1] + prime_factors(2 * L.field_disc)
    bit = {v: 1 << i for i, v in enumerate(dict.fromkeys([INF, 2] + basis[1:]))}
    pivots, kernel = _echelon([_mask(_column(b, L), bit) for b in basis])
    return _NormSystem(basis, bit, pivots, kernel, _split_products(L, bit), {})


def _smallest(system: _NormSystem, target: int) -> int | None:
    # the smallest s * m whose class is target: for each class w of the
    # split products, solve class(s) = target + w and walk the kernel coset
    basis, _, pivots, kernel, splits, _ = system
    best = None
    for w, m in splits.items():
        x = _solve(pivots, target ^ w)
        if x is None:
            continue
        for k in range(1 << len(kernel)):
            y = x
            for i, comb in enumerate(kernel):
                if k >> i & 1:
                    y ^= comb
            t = m
            for j, b in enumerate(basis):
                if y >> j & 1:
                    t *= b
            if best is None or (abs(t), t < 0) < (abs(best), best < 0):
                best = t
    return best


def l_disc(c: BrauerClassQ, L: ImagQuadField) -> int:
    """Canonical signed squarefree t with norm class of t in L equal to c.ram.

    Minimal |t| wins; positive wins a sign tie. Raises when L does not
    split c (no such t exists then).

    The norm class is a homomorphism on square classes, so t is linear
    algebra over F2. Write t = f * s * m. At an odd inert q,
    (t, field_disc)_q = (-1)^v_q(t), and no other factor below has the bit
    q, so q divides the squarefree t exactly when q is in c.ram: f is the
    product of those q. The part s is a signed product over the basis of
    L's cached _system: -1 and the primes of 2 * field_disc. The part m is
    a product of split primes outside that basis, and a split prime moves
    the class only on the primes dividing field_disc. So the class c.ram
    minus the class of f, the target, is solved against the system's
    echelon form once for each class w of its table of smallest split
    products m, class(s) = target + w, and the smallest s * m in the kernel
    cosets wins. The system keeps that for the next class with the same
    target, so each target is searched once per field.
    """
    if not splits_in(c, L):
        raise ValueError("L is not a splitting field")
    system = _system(L)
    bit = system.bit
    target, f = 0, 1
    for v in c.ram:
        if v in bit:
            target ^= bit[v]
        else:  # odd and inert: v itself is the one place without a bit
            f *= v
            target ^= _mask(_column(v, L) - {v}, bit)
    if target not in system.smallest:
        system.smallest[target] = _smallest(system, target)
    best = system.smallest[target]
    if best is None:
        raise RuntimeError(
            f"no representative found for {c.render()} over Q(sqrt(-{L.delta0}))"
        )
    return f * best


def pair_presentation(c: BrauerClassQ) -> tuple | None:
    """Small (a,b) with (a,b)_Q = c, for display; None if the search misses.

    Candidates are signed squarefree products of 2 and the odd ramified
    primes of c, ordered to prefer small and positive entries. Some classes
    (e.g. {inf, p} with p = 1 mod 8) need an entry outside that pool, so
    failing rounds retry with one auxiliary small prime added. Each
    candidate keeps the primes it is made of, so the class of (a,b) is read
    at inf, 2 and those primes without factoring a or b.
    """
    base = [2] + sorted(v for v in c.ram if v != INF and v != 2)
    aux_choices = [None] + [q for q in primes_up_to(99) if q not in base]
    for aux in aux_choices:
        primes = sorted(base + [aux]) if aux else base
        pool = {}
        for r in range(len(primes) + 1):
            for combo in combinations(primes, r):
                t = prod(combo)
                pool[t] = pool[-t] = combo
        cands = sorted(pool, key=lambda t: (abs(t), t < 0))

        def pair_key(ab):
            a, b = ab
            return (max(abs(a), abs(b)), abs(a) + abs(b), (a < 0) + (b < 0), a, b)

        pairs = [(a, b) for a in cands for b in cands if abs(a) <= abs(b)]
        for a, b in sorted(pairs, key=pair_key):
            places = {INF, 2, *pool[a], *pool[b]}
            if {v for v in places if hilbert(a, b, v) == -1} == c.ram:
                return (a, b)
    return None
