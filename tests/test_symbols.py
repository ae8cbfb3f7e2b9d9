"""Tests for residue and Hilbert symbols.

Derived expectations are checked against independent oracles:
squares are enumerated directly for legendre, the integer kernel behind
hilbert is checked against the textbook formula on Fractions
(oracle_hilbert), and the full local Hilbert system is checked against
rational solvability of a*x^2 + b*y^2 = z^2 (sympy's Legendre-equation
solver, local-global principle).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, prevprime
from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic

from udisc.symbols import (
    INF,
    hasse_symbol,
    hilbert,
    hilbert_reciprocity_check,
    legendre,
    relevant_places,
    squarefree_part,
)


def oracle_legendre(a, p):
    # direct enumeration of nonzero squares mod p
    if a % p == 0:
        return 0
    squares = {(x * x) % p for x in range(1, p)}
    return 1 if a % p in squares else -1


def oracle_hilbert(a, b, v):
    """(a,b)_v by the textbook formula on Fractions (Serre, A Course in
    Arithmetic, Ch. III, Thm. 1): a = p^alpha*u, b = p^beta*w with u, w
    p-adic units, then eps and omega at 2 and Legendre symbols at odd p.
    No fold over coefficients, so it checks the kernel behind hilbert."""
    a, b = Fraction(a), Fraction(b)
    if v == INF:
        return -1 if a < 0 and b < 0 else 1
    p = v
    m = 8 if p == 2 else p

    def val_unit(q):
        # q = p^alpha * u; returns alpha and u mod m
        alpha, num, den = 0, q.numerator, q.denominator
        while num % p == 0:
            num //= p
            alpha += 1
        while den % p == 0:
            den //= p
            alpha -= 1
        return alpha, num * pow(den, -1, m) % m

    alpha, u = val_unit(a)
    beta, w = val_unit(b)
    if p == 2:
        def eps(x):  # (x - 1)/2 mod 2
            return 0 if x % 4 == 1 else 1

        def omega(x):  # (x^2 - 1)/8 mod 2
            return 0 if x in (1, 7) else 1

        e = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
        return -1 if e % 2 else 1

    def leg(x):
        return 1 if pow(x, (p - 1) // 2, p) == 1 else -1

    s = 1
    if (alpha * beta) % 2:
        s *= leg(p - 1)
    if beta % 2:
        s *= leg(u)
    if alpha % 2:
        s *= leg(w)
    return s


def oracle_conic_has_rational_point(a, b):
    # a*x^2 + b*y^2 = z^2 solvable nontrivially over Q?
    from sympy.abc import x, y, z

    sol = diop_ternary_quadratic(a * x**2 + b * y**2 - z**2)
    return sol is not None and sol != (None, None, None) and any(sol)


nonzero_rationals = st.fractions(
    min_value=-400, max_value=400, max_denominator=40
).filter(lambda q: q != 0)

# 2 three times, so that high powers of 2 come up often
SMALL_PRIMES = [2, 2, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@st.composite
def wide_ints(draw):
    """Positive integers of up to 30 digits that factor fast: small primes
    times at most one prime of up to 30 digits.  A random 30-digit integer
    can take seconds to factor."""
    n = math.prod(draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=10)))
    big = draw(st.integers(0, (10**30 - 1) // n))
    return n * prevprime(big + 1) if big >= 2 else n


wide_rationals = st.builds(
    lambda s, x, y: s * Fraction(x, y), st.sampled_from([1, -1]), wide_ints(), wide_ints()
)
random_wide_rationals = st.builds(
    Fraction,
    st.integers(-(10**30) + 1, 10**30 - 1).filter(lambda x: x != 0),
    st.integers(1, 10**30 - 1),
)


class TestSquarefreePart:
    def test_pinned_values(self):
        assert squarefree_part(18) == 2
        assert squarefree_part(Fraction(-4, 9)) == -1
        assert squarefree_part(55) == 55

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(0)

    @given(nonzero_rationals)
    def test_quotient_is_square(self, q):
        t = squarefree_part(q)
        r = q / t
        assert r > 0
        # r = (num/den) must be the square of num*den over den^2
        assert squarefree_part(r) == 1
        assert all(e == 1 for e in factorint(abs(t)).values())


class TestLegendre:
    def test_pinned_values(self):
        assert legendre(1, 7) == 1
        assert legendre(-1, 7) == -1
        assert legendre(2, 5) == -1

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            legendre(3, 2)
        with pytest.raises(ValueError):
            legendre(3, 9)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97])
    def test_against_enumeration(self, p):
        for a in range(-2 * p, 2 * p + 1):
            assert legendre(a, p) == oracle_legendre(a, p), (a, p)


# Hand-frozen local values.  The negative entries come straight from
# worked ramification sets: (-1,-1) ramifies at inf and 2, (-10,-5)
# at inf and 5, (-10,-3) at inf, 2, 3 and 5, (-3,-2) at inf and 2.
HILBERT_TABLE = [
    (-1, -1, INF, -1),
    (-1, -1, 2, -1),
    (-1, -1, 3, 1),
    (-10, -5, 5, -1),
    (-10, -5, INF, -1),
    (-10, -5, 2, 1),
    (-10, -3, INF, -1),
    (-10, -3, 2, -1),
    (-10, -3, 3, -1),
    (-10, -3, 5, -1),
    (-3, -2, INF, -1),
    (-3, -2, 2, -1),
    (-3, -2, 3, 1),
    (-1, -3, 2, 1),
    (-1, -3, 3, -1),
    (-1, -3, INF, -1),
    (-2, -5, 2, 1),
    (-2, -5, 5, -1),
    (-2, -5, INF, -1),
    (2, 5, 2, -1),
    (2, 5, 5, -1),
    (2, 5, INF, 1),
    (-7, -4, 2, 1),
    (-7, -4, 7, -1),
    (Fraction(1, 5), -40, 5, -1),
    (Fraction(-1, 2), Fraction(-1, 2), 2, -1),
]


class TestHilbert:
    @pytest.mark.parametrize("a,b,v,expected", HILBERT_TABLE)
    def test_frozen_values(self, a, b, v, expected):
        assert hilbert(a, b, v) == expected

    @given(nonzero_rationals, st.sampled_from([INF, 2, 3, 5, 7, 11, 13]))
    def test_one_splits(self, b, v):
        assert hilbert(1, b, v) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hilbert(0, 3, 2)

    @pytest.mark.parametrize("v", [4, 1, -3, "2", 2.0])
    def test_bad_place_rejected(self, v):
        with pytest.raises(ValueError, match="not a place of Q"):
            hilbert(3, 5, v)

    def test_argument_checks_in_order(self):
        # conversion to Fraction, then the nonzero check, then the place
        with pytest.raises(TypeError):
            hilbert(None, 0, 4)
        for a, b, v in [(3, 0, INF), (Fraction(0), 5, 7), (0, 3, 4), (0, 3, "2")]:
            with pytest.raises(ValueError, match="hilbert symbol needs nonzero arguments"):
                hilbert(a, b, v)

    @settings(max_examples=150, deadline=None)
    @given(wide_rationals, wide_rationals)
    def test_against_oracle_at_relevant_places(self, a, b):
        for v in relevant_places(a, b):
            assert hilbert(a, b, v) == oracle_hilbert(a, b, v), (a, b, v)

    @settings(max_examples=150, deadline=None)
    @given(random_wide_rationals, random_wide_rationals,
           st.sampled_from([INF, 2, 3, 5, 7, 11, 13, 1000003]))
    def test_against_oracle_on_random_wide_rationals(self, a, b, v):
        assert hilbert(a, b, v) == oracle_hilbert(a, b, v)

    def test_dyadic_edge_cases(self):
        # units 1, 3, 5 and 7 mod 8 (two lifts each, both signs) times 2^k,
        # and over powers of 2
        units = [s * u for s in (1, -1) for u in (1, 3, 5, 7, 9, 11, 13, 15)]
        qs = [Fraction(u * 2**k) for u in units for k in range(4)]
        qs += [Fraction(u, 2**j) for u in units for j in range(1, 4)]
        for a in qs:
            for b in qs:
                for v in (INF, 2):
                    assert hilbert(a, b, v) == oracle_hilbert(a, b, v), (a, b, v)

    @given(nonzero_rationals, nonzero_rationals, st.sampled_from([INF, 2, 3, 5, 7, 11, 13, 17]))
    def test_symmetry(self, a, b, v):
        assert hilbert(a, b, v) == hilbert(b, a, v)

    @given(
        nonzero_rationals,
        nonzero_rationals,
        nonzero_rationals,
        st.sampled_from([INF, 2, 3, 5, 7, 11]),
    )
    def test_bimultiplicative(self, a, b, c, v):
        assert hilbert(a, b * c, v) == hilbert(a, b, v) * hilbert(a, c, v)

    @given(nonzero_rationals, st.sampled_from([INF, 2, 3, 5, 7, 11, 13]))
    def test_a_minus_a(self, a, v):
        assert hilbert(a, -a, v) == 1

    @given(
        nonzero_rationals.filter(lambda a: a != 1),
        st.sampled_from([INF, 2, 3, 5, 7, 11, 13]),
    )
    def test_a_one_minus_a(self, a, v):
        assert hilbert(a, 1 - a, v) == 1

    @given(
        nonzero_rationals,
        nonzero_rationals,
        st.sampled_from([INF, 2, 3, 5, 7]),
        st.integers(1, 30),
        st.integers(1, 30),
    )
    def test_square_class_invariance(self, a, b, v, s, t):
        assert hilbert(a * s * s, b * t * t, v) == hilbert(a, b, v)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-30, 30).filter(lambda a: a != 0),
        st.integers(-30, 30).filter(lambda b: b != 0),
    )
    def test_against_conic_solvability(self, a, b):
        # local-global: the conic has a rational point iff every
        # local symbol is +1 (reciprocity makes the check finite)
        a, b = squarefree_part(a), squarefree_part(b)
        everywhere_split = all(hilbert(a, b, v) == 1 for v in relevant_places(a, b))
        assert everywhere_split == oracle_conic_has_rational_point(a, b)


class TestHasseSymbol:
    @pytest.mark.parametrize("v", [INF, 2, 3, 7])
    def test_short_forms_are_split(self, v):
        assert hasse_symbol([], v) == 1
        for z in (1, -1, 2, -8, 3, -21, 49, -98):
            assert hasse_symbol([z], v) == 1


class TestReciprocity:
    def test_pinned_values(self):
        assert hilbert_reciprocity_check(-1, -1)
        assert hilbert_reciprocity_check(-10, -5)
        assert hilbert_reciprocity_check(3, 7)

    @given(nonzero_rationals, nonzero_rationals)
    def test_always_true(self, a, b):
        assert hilbert_reciprocity_check(a, b)

    @pytest.mark.parametrize("a, b", [(0, 3), (3, 0), (Fraction(0, 5), -1)])
    def test_zero_is_refused_as_hilbert_refuses_it(self, a, b):
        with pytest.raises(ValueError, match="hilbert symbol needs nonzero arguments"):
            hilbert_reciprocity_check(a, b)

    def test_relevant_places_order(self):
        assert relevant_places(-1, -1) == [INF, 2]
        assert relevant_places(3, 7) == [INF, 2, 3, 7]
        assert relevant_places(Fraction(1, 5), 6) == [INF, 2, 3, 5]
        assert relevant_places(1000003, -30) == [INF, 2, 3, 5, 1000003]
        assert relevant_places(1) == [INF, 2]
        assert relevant_places(Fraction(7, 1000003), -1) == [INF, 2, 7, 1000003]
