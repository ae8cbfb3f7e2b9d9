"""Tests for order-2 Brauer classes over Q and their L-discriminants.

l_disc answers are frozen from direct local computations and checked
against the op's own defining property: the returned t has the right
norm class, and no integer of smaller absolute value does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udisc.brauer import BrauerClassQ, from_pair, l_disc, pair_presentation, splits_in
from udisc.quadfield import ImagQuadField, norm_class
from udisc.symbols import INF

Q1 = ImagQuadField(1)
Q2 = ImagQuadField(2)
Q3 = ImagQuadField(3)
Q7 = ImagQuadField(7)
Q10 = ImagQuadField(10)
Q15 = ImagQuadField(15)
Q19 = ImagQuadField(19)

nonzero = st.fractions(min_value=-200, max_value=200, max_denominator=20).filter(
    lambda q: q != 0
)


def brute_minimality_check(t, cls, L, bound=None):
    """No signed squarefree integer smaller than |t| has norm class cls."""
    bound = abs(t) if bound is None else bound
    for m in range(1, bound):
        for cand in (m, -m):
            if norm_class(cand, L) == cls.ram:
                return False
    return True


class TestConstruction:
    def test_pinned_values(self):
        assert from_pair(-1, -1).ram == {INF, 2}
        assert from_pair(-10, 5).ram == {2, 5}
        assert from_pair(1, 17).ram == frozenset()

    def test_even_enforced(self):
        with pytest.raises(ValueError):
            BrauerClassQ(frozenset([3]))

    @settings(max_examples=300)
    @given(nonzero, nonzero)
    def test_even_and_symmetric(self, a, b):
        c = from_pair(a, b)
        assert len(c.ram) % 2 == 0
        assert c == from_pair(b, a)

    @given(nonzero, nonzero, nonzero)
    def test_multiplicative_in_second_argument(self, a, b, c):
        assert from_pair(a, b * c) == from_pair(a, b).mul(from_pair(a, c))


class TestGroupLaw:
    def test_pinned_values(self):
        c1 = BrauerClassQ(frozenset([INF, 2]))
        c2 = BrauerClassQ(frozenset([INF, 5]))
        assert c1.mul(c2).ram == {2, 5}
        assert BrauerClassQ(frozenset([INF, 3])).pow(4).is_split()
        assert c1.mul(c1).is_split()

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
