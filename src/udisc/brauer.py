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
from math import inf, prod

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


@lru_cache(maxsize=256)
def _representatives(L: ImagQuadField) -> tuple[dict, dict]:
    """The smallest signed squarefree t in each norm class of L whose
    places all have a bit, keyed by the class as a bitmask over bit.

    bit: one bit for inf and for each prime of 2 * field_disc except a
    split 2, which no symbol (t, field_disc)_2 reaches (field_disc is a
    square in Q_2 then). Such a t is s * m: s a signed product of the basis
    -1 and the primes of 2 * field_disc (2 even when inert), m a product of
    distinct odd split primes. The table starts from the smallest s of each
    class and takes the split primes in ascending order, each times every
    entry so far. Each class of even size over bit is the norm class of
    some such t (L splits it, so it is (field_disc, t)_Q, and t has no
    other inert prime), so the table fills; once it is full, a split prime
    above its largest entry improves none, and the search stops.
    """
    basis = [-1] + prime_factors(2 * L.field_disc)
    places = [INF] + [p for p in basis[1:] if prime_behavior(L, p) is not PrimeBehavior.SPLIT]
    bit = {v: 1 << i for i, v in enumerate(places)}
    # each t as (|t|, t < 0), the order in which the smallest wins
    products = [((1, False), 0)]
    for b in basis:
        col = _mask(_column(b, L), bit)
        products += [((a * abs(b), neg ^ (b < 0)), w ^ col) for (a, neg), w in products]
    # written largest first, so the smallest of each class stays
    table = {w: t for t, w in sorted(products, reverse=True)}
    lo, hi = 2, 64
    while True:
        for p in primes_up_to(hi):
            if p <= lo or prime_behavior(L, p) is not PrimeBehavior.SPLIT:
                continue
            # once the table is full, p times an entry helps only up to its
            # largest entry
            cap = max(table.values())[0] if len(table) == 1 << (len(places) - 1) else inf
            if p > cap:
                return bit, {w: -a if neg else a for w, (a, neg) in table.items()}
            col = _mask(_column(p, L), bit)
            for w, (a, neg) in [(w, t) for w, t in table.items() if t[0] * p <= cap]:
                t = (a * p, neg)
                table[w ^ col] = min(table.get(w ^ col, t), t)
        lo, hi = hi, 2 * hi


def l_disc(c: BrauerClassQ, L: ImagQuadField) -> int:
    """Canonical signed squarefree t with norm class of t in L equal to c.ram.

    Minimal |t| wins; positive wins a sign tie. Raises when L does not
    split c (no such t exists then).

    The norm class is a homomorphism on square classes. Write t = f * s * m.
    At an odd inert q, (t, field_disc)_q = (-1)^v_q(t), and no other factor
    has the bit q, so q divides the squarefree t exactly when q is in
    c.ram: f is the product of those q. The rest, s * m, is the entry of
    L's cached _representatives table at the class c.ram minus the class
    of f, which has even size, so the table holds it. A place of c.ram
    outside the table's bits that is not in its own norm class splits in
    L, so L does not split c.
    """
    bit, table = _representatives(L)
    target, f = 0, 1
    for v in c.ram:
        if v in bit:
            target ^= bit[v]
            continue
        col = _column(v, L)
        if v not in col:  # a split prime, 2 included
            raise ValueError("L is not a splitting field")
        f *= v  # odd and inert: v itself is the one place without a bit
        target ^= _mask(col - {v}, bit)
    return f * table[target]


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
