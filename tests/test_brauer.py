"""Tests for order-2 Brauer classes over Q and their L-discriminants.

l_disc answers are frozen from direct local computations and checked
against the op's own defining property: the returned t has the right
norm class, and no integer of smaller absolute value does.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udisc.arith import is_prime, prime_factors, primes_up_to
from udisc.brauer import BrauerClassQ, from_pair, l_disc, pair_presentation, splits_in
from udisc.deduce import CharacterFactSheet, FactStatus, ModFact, resolve
from udisc.quadfield import ImagQuadField, PrimeBehavior, norm_class, prime_behavior
from udisc.symbols import INF, hilbert, relevant_places

Q1 = ImagQuadField(1)
Q2 = ImagQuadField(2)
Q3 = ImagQuadField(3)
Q7 = ImagQuadField(7)
Q10 = ImagQuadField(10)
Q15 = ImagQuadField(15)
Q19 = ImagQuadField(19)
SPLIT = PrimeBehavior.SPLIT

nonzero = st.fractions(min_value=-200, max_value=200, max_denominator=20).filter(
    lambda q: q != 0
)
# ints and Fractions of both signs, whose numerators and denominators share
# primes with each other and with the field discriminants
rationals = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4),
).filter(lambda q: q != 0)


def brute_minimality_check(t, cls, L, bound=None):
    """No signed squarefree integer smaller than |t| has norm class cls."""
    bound = abs(t) if bound is None else bound
    for m in range(1, bound):
        for cand in (m, -m):
            if norm_class(cand, L) == cls.ram:
                return False
    return True


@lru_cache(maxsize=None)
def cached_norm_class(t, L):
    return norm_class(t, L)


def s_span_l_disc(c, L):
    """The exhaustive l_disc this package used before its linear solve.

    It tries every signed product over S = primes(2 * field_disc) together
    with the finite ramified places of c, so it misses a representative
    that needs a split prime outside S. None when nothing in the span fits.
    """
    primes = set(prime_factors(2 * L.field_disc))
    primes.update(v for v in c.ram if v != INF)
    primes = sorted(primes)
    best = None
    for r in range(len(primes) + 1):
        for combo in combinations(primes, r):
            t = 1
            for p in combo:
                t *= p
            for cand in (t, -t):
                if cached_norm_class(cand, L) == c.ram:
                    if best is None or (abs(cand), cand < 0) < (abs(best), best < 0):
                        best = cand
    return best


@lru_cache(maxsize=None)
def split_products_by_class(L):
    """The smallest product of distinct odd split primes in each norm class,
    keyed by the class as a set of places: the split part of a
    representative, as l_disc searched it before it read one table per
    field from each norm class to its smallest representative."""
    want = 1 << (len(prime_factors(L.field_disc)) - 1)
    best = {frozenset(): 1}
    lo, hi = 2, 64
    while True:
        for p in primes_up_to(hi):
            if p <= lo or prime_behavior(L, p) != SPLIT:
                continue
            if len(best) == want and p > max(best.values()):
                return best
            col = cached_norm_class(p, L)
            for w, m in list(best.items()):
                if w ^ col not in best or m * p < best[w ^ col]:
                    best[w ^ col] = m * p
        lo, hi = hi, 2 * hi


def per_class_l_disc(c, L):
    """l_disc as this package ran it before its per-field table: each call
    builds its own basis, -1 and the primes of 2 * field_disc together with
    the finite ramified places of c, reduces its columns over F2, and
    walks the kernel coset for every class of the split-product table.
    None when nothing fits."""
    if not splits_in(c, L):
        raise ValueError("L is not a splitting field")
    primes = set(prime_factors(2 * L.field_disc))
    primes.update(v for v in c.ram if v != INF)
    basis = [-1] + sorted(primes)
    bits = {}

    def mask(places):
        m = 0
        for v in places:
            m |= 1 << bits.setdefault(v, len(bits))
        return m

    pivots, kernel = [], []
    for j, col in enumerate(mask(cached_norm_class(b, L)) for b in basis):
        comb = 1 << j
        for bit, vec, cb in pivots:
            if col & bit:
                col ^= vec
                comb ^= cb
        if col:
            pivots.append((col & -col, col, comb))
        else:
            kernel.append(comb)
    best = None
    for w, m in split_products_by_class(L).items():
        target, x = mask(c.ram ^ w), 0
        for bit, vec, cb in pivots:
            if target & bit:
                target ^= vec
                x ^= cb
        if target:
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


def search_by_factoring(c):
    """The pair search as this package ran it before its candidates kept
    their primes: the same pool, order and auxiliary-prime retry, with each
    pair's class found by from_pair."""
    base = [2] + sorted(v for v in c.ram if v != INF and v != 2)
    for aux in [None] + [q for q in primes_up_to(99) if q not in base]:
        primes = sorted(base + [aux]) if aux else base
        pool = set()
        for r in range(len(primes) + 1):
            for combo in combinations(primes, r):
                t = 1
                for p in combo:
                    t *= p
                pool |= {t, -t}
        cands = sorted(pool, key=lambda t: (abs(t), t < 0))
        pairs = [(a, b) for a in cands for b in cands if abs(a) <= abs(b)]
        pairs.sort(key=lambda ab: (max(abs(ab[0]), abs(ab[1])), abs(ab[0]) + abs(ab[1]),
                                   (ab[0] < 0) + (ab[1] < 0), ab[0], ab[1]))
        for a, b in pairs:
            if from_pair(a, b) == c:
                return (a, b)
    return None


def smallest_by_scan(L, bound):
    """{norm class: smallest t by (|t|, t < 0)} over 0 < |t| <= bound."""
    first = {}
    for a in range(1, bound + 1):
        for t in (a, -a):
            first.setdefault(norm_class(t, L), t)
    return first


class TestConstruction:
    def test_pinned_values(self):
        assert from_pair(-1, -1).ram == {INF, 2}
        assert from_pair(-10, 5).ram == {2, 5}
        assert from_pair(1, 17).ram == frozenset()

    def test_even_enforced(self):
        with pytest.raises(ValueError):
            BrauerClassQ(frozenset([3]))

    @pytest.mark.parametrize("ram", [{4, INF}, {1, 3}, {True, 3}, {3.0, 5}, {"2", 3}])
    def test_finite_places_must_be_primes(self, ram):
        with pytest.raises(ValueError, match="not a place of Q"):
            BrauerClassQ(ram)

    def test_odd_set_is_named_in_place_order(self):
        with pytest.raises(ValueError) as e:
            BrauerClassQ([13, 2, INF, 11, 7, 5, 3])
        assert str(e.value) == ("ramification set must have even size:"
                                " {'inf', 2, 3, 5, 7, 11, 13}")

    @pytest.mark.parametrize("ram", [{"x", 3, 5}, {"x", INF, 3}, {4.5, "x", 3}])
    def test_odd_set_with_a_non_place_is_a_value_error(self, ram):
        # a string beside the primes must not make sorting the message fail
        with pytest.raises(ValueError):
            BrauerClassQ(ram)

    @settings(max_examples=300)
    @given(nonzero, nonzero)
    def test_even_and_symmetric(self, a, b):
        c = from_pair(a, b)
        assert len(c.ram) % 2 == 0
        assert c == from_pair(b, a)

    @given(nonzero, nonzero, nonzero)
    def test_multiplicative_in_second_argument(self, a, b, c):
        assert from_pair(a, b * c) == from_pair(a, b).mul(from_pair(a, c))


class TestIntegerPath:
    """from_pair and norm_class read each argument as the integer numerator
    times denominator; hilbert, the rational door, is the reference."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rationals, rationals, st.sampled_from([1, 2, 3, 5, 7, 10, 15, 19]))
    def test_symbols_match_hilbert(self, a, b, d):
        want = {v for v in relevant_places(a, b) if hilbert(a, b, v) == -1}
        assert from_pair(a, b).ram == want
        assert from_pair(a, b, relevant_places(a, b)).ram == want
        D = ImagQuadField(d).field_disc
        want = {v for v in relevant_places(a, D) if hilbert(a, D, v) == -1}
        assert norm_class(a, ImagQuadField(d)) == want

    @pytest.mark.parametrize("args,msg", [
        ((0, 3), "hilbert symbol needs nonzero arguments"),
        ((3, Fraction(0)), "hilbert symbol needs nonzero arguments"),
        ((0, 3, [INF, 2, 3]), "hilbert symbol needs nonzero arguments"),
        ((3, Fraction(0, 7), [INF]), "hilbert symbol needs nonzero arguments"),
        ((3, 5, [INF, 4]), "not a place of Q: 4"),
        ((3, 5, [1]), "not a place of Q: 1"),
    ])
    def test_from_pair_keeps_its_errors(self, args, msg):
        # hasse_symbol never ends on a zero coefficient or the place 1, and
        # a zero is named the same way whether or not places are passed
        with pytest.raises(ValueError) as e:
            from_pair(*args)
        assert str(e.value) == msg

    @pytest.mark.parametrize("a", [0, Fraction(0, 3)])
    def test_norm_class_of_zero(self, a):
        with pytest.raises(ValueError, match="^norm class of 0 is undefined$"):
            norm_class(a, Q3)


class TestValueSemantics:
    # classes are dict keys and compared throughout: equal and hashed by ram
    def test_equal_and_hashed_by_ram(self):
        c = BrauerClassQ(frozenset([INF, 3]))
        d = from_pair(-1, -3)
        assert c == d and c is not d and hash(c) == hash(d)
        assert {c: "x"}[d] == "x"
        assert c != BrauerClassQ(frozenset([INF, 2]))
        assert c != c.ram and c != (c.ram,)
        assert repr(BrauerClassQ(frozenset([2, 3]))) == "BrauerClassQ(ram=frozenset({2, 3}))"

    def test_stores_a_frozen_copy(self):
        ram = {3, 5}
        c = BrauerClassQ(ram)
        ram.add(7)
        assert type(c.ram) is frozenset and c.ram == {3, 5}
        assert hash(c) == hash(BrauerClassQ(frozenset([3, 5])))
        assert BrauerClassQ([INF, 2]) == from_pair(-1, -1)


class TestGroupLaw:
    def test_pinned_values(self):
        c1 = BrauerClassQ(frozenset([INF, 2]))
        c2 = BrauerClassQ(frozenset([INF, 5]))
        assert c1.mul(c2).ram == {2, 5}
        assert not BrauerClassQ(frozenset([INF, 3])).pow(4).ram
        assert not c1.mul(c1).ram

    @given(nonzero, nonzero, st.integers(-9, 9))
    def test_pow_parity(self, a, b, k):
        c = from_pair(a, b)
        assert c.pow(k) == (c if k % 2 else BrauerClassQ(frozenset()))


class TestSplitsIn:
    def test_pinned_values(self):
        assert splits_in(BrauerClassQ(frozenset([INF, 2])), Q1)
        assert not splits_in(BrauerClassQ(frozenset([7, 19])), Q3)
        assert splits_in(BrauerClassQ(frozenset()), Q10)

    @given(nonzero, st.sampled_from([1, 2, 3, 5, 7, 10, 15, 19]))
    def test_field_pair_always_splits(self, t, d):
        L = ImagQuadField(d)
        assert splits_in(from_pair(L.field_disc, t), L)


class TestLDisc:
    def test_minimality_pins_rep(self):
        # {inf,5} is the class of -5 over Q(sqrt(-3)); -10 has class
        # {inf,2,3,5}, so minimality forces -5 here
        c = BrauerClassQ(frozenset([INF, 5]))
        assert l_disc(c, Q3) == -5
        assert l_disc(BrauerClassQ(frozenset([INF, 2, 3, 5])), Q3) == -10

    def test_trivial(self):
        assert l_disc(BrauerClassQ(frozenset()), Q10) == 1

    def test_o10p2_row(self):
        assert l_disc(BrauerClassQ(frozenset([INF, 3])), Q15) == -1

    def test_frozen_table(self):
        assert l_disc(BrauerClassQ(frozenset([INF, 5])), Q15) == -2
        assert l_disc(BrauerClassQ(frozenset([INF, 3])), Q7) == -3
        assert l_disc(BrauerClassQ(frozenset([5, 11])), Q3) == 55
        assert l_disc(BrauerClassQ(frozenset([INF, 11])), Q3) == -11
        assert l_disc(BrauerClassQ(frozenset([INF, 7])), Q1) == -7
        assert l_disc(BrauerClassQ(frozenset([INF, 7])), Q2) == -7
        assert l_disc(BrauerClassQ(frozenset([3, 7])), Q1) == 21
        assert l_disc(BrauerClassQ(frozenset([INF, 2])), Q3) == -2
        assert l_disc(BrauerClassQ(frozenset([INF, 3])), Q19) == -3
        assert l_disc(BrauerClassQ(frozenset([3, 5])), Q10) == 3
        # 10 is a norm from Q(sqrt(-10)), so 2 and 5 share a class; 2 wins
        assert l_disc(BrauerClassQ(frozenset([2, 5])), Q10) == 2
        assert l_disc(BrauerClassQ(frozenset([INF, 5])), Q10) == -2
        assert l_disc(BrauerClassQ(frozenset([INF, 2])), Q10) == -1

    @pytest.mark.parametrize(
        "d0,ram,span,rep",
        [
            (14, {2, 7}, None, 3),
            (17, {2, 17}, None, 3),
            (21, {3, 7}, 6, 5),
            (35, {5, 7}, 5, 3),
            (105, {2, 3}, 14, 11),
        ],
        ids=["q14", "q17", "q21", "q35", "q105"],
    )
    def test_needs_a_split_prime(self, d0, ram, span, rep):
        # the smallest representative is a split prime outside
        # {-1, 2} u primes(d_L) u ram; the span has nothing or a larger one
        L = ImagQuadField(d0)
        c = BrauerClassQ(frozenset(ram))
        assert from_pair(L.field_disc, rep) == c
        assert s_span_l_disc(c, L) == span
        assert l_disc(c, L) == rep

    def test_not_split_is_error(self):
        c = BrauerClassQ(frozenset([7, 19]))  # both split in Q(sqrt(-3))
        with pytest.raises(ValueError, match="not a splitting field"):
            l_disc(c, Q3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-80, 80).filter(lambda t: t != 0),
        st.sampled_from([1, 2, 3, 5, 7, 10, 15, 19]),
    )
    def test_round_trip_and_minimality(self, t, d):
        L = ImagQuadField(d)
        c = from_pair(L.field_disc, t)
        rep = l_disc(c, L)
        assert norm_class(rep, L) == c.ram
        assert from_pair(L.field_disc, rep) == c
        assert brute_minimality_check(rep, c, L)
        if norm_class(-abs(rep), L) == c.ram and norm_class(abs(rep), L) == c.ram:
            assert rep > 0  # ties broken toward positive


class TestLDiscReference:
    @pytest.mark.parametrize("d0", [1, 2, 3, 7, 10, 15, 43])
    def test_matches_s_span_enumerator(self, d0):
        # every class split by L with at most 6 places among inf and the
        # primes below 60; no split prime helps on these fields
        L = ImagQuadField(d0)
        places = [INF] + [p for p in primes_up_to(59) if prime_behavior(L, p) != SPLIT]
        for r in (0, 2, 4, 6):
            for ram in combinations(places, r):
                c = BrauerClassQ(frozenset(ram))
                assert l_disc(c, L) == s_span_l_disc(c, L), c.render()

    @pytest.mark.parametrize("d0", [1, 2, 3, 7, 10, 11, 15, 19, 23, 31, 43, 105, 1155, 15015])
    def test_matches_per_class_solve(self, d0):
        # the classes of test_matches_s_span_enumerator; 2 is inert for
        # d0 = 3, 11, 19, 43 and 1155, ramified for 1, 2, 10 and 105, and
        # split for 7, 15, 23, 31 and 15015; 2 * field_disc has 4 to 6
        # primes for 105, 1155 and 15015
        L = ImagQuadField(d0)
        places = [INF] + [p for p in primes_up_to(59) if prime_behavior(L, p) != SPLIT]
        for r in (0, 2, 4, 6):
            for ram in combinations(places, r):
                c = BrauerClassQ(frozenset(ram))
                assert l_disc(c, L) == per_class_l_disc(c, L), c.render()

    @pytest.mark.parametrize("d0", [3, 7, 15, 23, 1155, 15015])
    def test_split_place_is_refused_whatever_else_ramifies(self, d0):
        # a class holding a split prime, 2 when it splits (d0 = 7, 15, 23
        # and 15015), has no representative: the table has no bit for it,
        # and it is not in its own norm class
        L = ImagQuadField(d0)
        split = [p for p in primes_up_to(60) if prime_behavior(L, p) is SPLIT][:3]
        places = [INF] + [p for p in primes_up_to(30) if prime_behavior(L, p) is not SPLIT]
        assert (2 in split) == (d0 in (7, 15, 23, 15015))
        for q in split:
            for r in (1, 3):
                for ram in combinations(places, r):
                    c = BrauerClassQ(frozenset(ram + (q,)))
                    for f in (l_disc, per_class_l_disc):
                        with pytest.raises(ValueError, match="^L is not a splitting field$"):
                            f(c, L)

    @pytest.mark.parametrize("d0", [1, 2, 3, 7, 10, 11, 15, 19, 43])
    def test_matches_per_class_solve_at_a_large_inert_prime(self, d0):
        # the deltas of Gram matrices ramify at inert primes of any size;
        # only q itself carries the bit q, so q divides the representative
        L = ImagQuadField(d0)
        q = next(p for p in range(10 ** 12 + 1, 10 ** 12 + 10 ** 4, 2)
                 if is_prime(p) and prime_behavior(L, p) is PrimeBehavior.INERT)
        small = [INF] + [p for p in primes_up_to(23) if prime_behavior(L, p) != SPLIT]
        for r in (1, 3):
            for ram in combinations(small, r):
                c = BrauerClassQ(frozenset(ram + (q,)))
                t = l_disc(c, L)
                assert t == per_class_l_disc(c, L), c.render()
                assert t % q == 0 and norm_class(t, L) == c.ram

    def test_matches_per_class_solve_on_every_candidate(self):
        # the u = 9 sheet of the benchmark's sheets ladder: inf ramifies, 13
        # splits, 107 is stable, and 2 and eight inert primes are free
        factors = {p: 1 for p in (2, 7, 11, 13, 19, 31, 43, 67, 79, 103, 107)}
        stable = ModFact(107, FactStatus.UNITARY_STABLE)
        report = resolve(CharacterFactSheet("u9", 2, Q1, factors, mod_facts=[stable]))
        assert len(report.result.items) == 256
        for c, t in report.result.items:
            assert t == per_class_l_disc(c, Q1), c.render()

    @pytest.mark.parametrize("d0", [1, 5, 14, 17, 21, 35, 105, 210])
    def test_matches_integer_scan(self, d0):
        L = ImagQuadField(d0)
        for cls, t in smallest_by_scan(L, 400).items():
            assert l_disc(BrauerClassQ(cls), L) == t, cls


class TestRendering:
    def test_ram_rendering(self):
        assert BrauerClassQ(frozenset([INF, 3])).render() == "ram{inf,3}"
        assert BrauerClassQ(frozenset()).render() == "ram{}"
        assert BrauerClassQ(frozenset([2, 5])).render() == "ram{2,5}"

    def test_pair_presentation(self):
        assert pair_presentation(BrauerClassQ(frozenset([INF, 3]))) == (-1, -3)
        assert pair_presentation(BrauerClassQ(frozenset([INF, 2]))) == (-1, -1)
        assert pair_presentation(BrauerClassQ(frozenset([INF, 5]))) == (-2, -5)
        assert pair_presentation(BrauerClassQ(frozenset())) == (1, 1)

    def test_matches_the_search_by_factoring(self):
        # the search reads each pair's class at inf, 2 and the primes it
        # was built from; from_pair factors a and b to find the same places.
        # Nine of these 163 classes, {inf, 17} among them, need the retry
        # with an auxiliary prime
        places = [INF] + primes_up_to(19)
        for r in (0, 2, 4):
            for ram in combinations(places, r):
                c = BrauerClassQ(ram)
                pair = pair_presentation(c)
                assert pair is not None, c
                assert pair == search_by_factoring(c), c

    def test_large_primes_need_no_factoring(self, monkeypatch):
        # 26-digit primes, 2 mod 3; their product is beyond the factoring budget
        p, q = 25080330703369597437700091, 78801772797767169992055857

        def refuse(*args):
            raise AssertionError("pair_presentation factored a number")

        monkeypatch.setattr("udisc.brauer.from_pair", refuse)
        monkeypatch.setattr("udisc.symbols.prime_factors", refuse)
        assert pair_presentation(BrauerClassQ([p, q])) == (3 * p, -q)

    @given(
        st.integers(-60, 60).filter(lambda t: t != 0),
        st.sampled_from([1, 2, 3, 7, 10, 15]),
    )
    def test_presentation_reproduces_class(self, t, d):
        L = ImagQuadField(d)
        c = from_pair(L.field_disc, t)
        pair = pair_presentation(c)
        assert pair is not None
        assert from_pair(*pair) == c
