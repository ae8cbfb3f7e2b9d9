"""Tests for imaginary quadratic field arithmetic.

The norm-membership oracle here is pure integer search, independent
of every Hilbert-symbol code path: a rational a is a norm from
Q(sqrt(-d0)) iff a = (x^2 + d0*y^2)/z^2 for integers x, y, z != 0.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udisc.quadfield import (
    ImagQuadField,
    PrimeBehavior,
    QuadElem,
    is_norm,
    is_norm_by_criteria,
    norm_class,
    prime_behavior,
)
from udisc.symbols import INF

from quadarith import norm

FIELDS = {d: ImagQuadField(d) for d in (1, 2, 3, 5, 7, 10, 15, 19)}


def _squarefree_reduce(n):
    # signed squarefree part by trial division; |n| stays small here
    sign = 1 if n > 0 else -1
    n = abs(n)
    t = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        d += 1
    return sign * n


def oracle_is_norm(a: int, delta0: int) -> bool:
    """Decide a in N(L*) for L = Q(sqrt(-delta0)) by bounded search.

    Norms of L* are the values (x^2 + delta0*y^2)/z^2.  Scaling by
    squares reduces a to its signed squarefree part n; negatives are
    never norms.  For positive squarefree n the equation
    x^2 + delta0*y^2 = n*z^2, after dividing out g = gcd(delta0, n)
    (which must divide x), becomes g*X^2 + (delta0/g)*y^2 = (n/g)*z^2
    with pairwise coprime squarefree coefficients.  The classical
    minimal-solution bound for such a ternary form puts a solution,
    when one exists, at |z| <= sqrt(g * delta0/g) = sqrt(delta0),
    and delta0 <= 19 here.  Searching z up to 8 is therefore more
    than exhaustive for every field under test.
    """
    n = _squarefree_reduce(a)
    if n < 0:
        return False
    for z in range(1, 9):
        rhs = n * z * z
        y = 0
        while delta0 * y * y <= rhs:
            x2 = rhs - delta0 * y * y
            r = int(x2**0.5)
            for cand in (r - 1, r, r + 1):
                if cand >= 0 and cand * cand == x2:
                    return True
            y += 1
    return False


class TestFieldBasics:
    def test_field_disc(self):
        assert FIELDS[3].field_disc == -3
        assert FIELDS[7].field_disc == -7
        assert FIELDS[15].field_disc == -15
        assert FIELDS[19].field_disc == -19
        assert FIELDS[1].field_disc == -4
        assert FIELDS[2].field_disc == -8
        assert FIELDS[5].field_disc == -20
        assert FIELDS[10].field_disc == -40

    def test_rejects_bad_delta0(self):
        with pytest.raises(ValueError):
            ImagQuadField(0)
        with pytest.raises(ValueError):
            ImagQuadField(-3)
        with pytest.raises(ValueError):
            ImagQuadField(12)  # not squarefree

    @pytest.mark.parametrize("delta0", [True, False, 3.0, "3"])
    def test_rejects_non_integer_delta0(self, delta0):
        with pytest.raises(ValueError, match="positive integer"):
            ImagQuadField(delta0)


class TestValueSemantics:
    # fields and elements are cache and dict keys: equal and hashed by value

    def test_fields(self):
        a, b = ImagQuadField(3), ImagQuadField(3)
        assert a == b and a is not b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert a != ImagQuadField(7)
        assert a != 3 and a != (3,) and a != a.elem(3)
        assert repr(a) == str(a) == "Q(sqrt(-3))"

    def test_elements(self):
        L = FIELDS[3]
        e = QuadElem(Fraction(1, 2), Fraction(-3), L)
        f = L.elem(Fraction(1, 2), -3)
        assert e == f and e is not f and hash(e) == hash(f)
        assert {e: "x"}[f] == "x"
        assert e != L.elem(Fraction(1, 2), 3)
        assert e != QuadElem(Fraction(1, 2), Fraction(-3), FIELDS[7])
        assert e != (Fraction(1, 2), Fraction(-3), L)
        assert repr(e) == "(1/2 + -3*sqrt(-3))"


class TestPrimeBehavior:
    def test_pinned_values(self):
        assert prime_behavior(FIELDS[3], 7) == PrimeBehavior.SPLIT
        assert prime_behavior(FIELDS[3], 3) == PrimeBehavior.RAMIFIED
        # -15 = 1 mod 8, so x^2 - x + 4 factors mod 2: split, not inert
        assert prime_behavior(FIELDS[15], 2) == PrimeBehavior.SPLIT

    def test_more_fixed_behaviors(self):
        assert prime_behavior(FIELDS[3], 2) == PrimeBehavior.INERT
        assert prime_behavior(FIELDS[3], 5) == PrimeBehavior.INERT
        assert prime_behavior(FIELDS[3], 19) == PrimeBehavior.SPLIT
        assert prime_behavior(FIELDS[10], 2) == PrimeBehavior.RAMIFIED
        assert prime_behavior(FIELDS[10], 3) == PrimeBehavior.INERT
        assert prime_behavior(FIELDS[10], 11) == PrimeBehavior.SPLIT
        assert prime_behavior(FIELDS[19], 2) == PrimeBehavior.INERT
        assert prime_behavior(FIELDS[19], 5) == PrimeBehavior.SPLIT
        assert prime_behavior(FIELDS[7], 2) == PrimeBehavior.SPLIT
        assert prime_behavior(FIELDS[15], 7) == PrimeBehavior.INERT

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 10, 15, 19])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 31, 43])
    def test_against_square_enumeration(self, d, p):
        """Oracle: p ramifies iff p | disc; otherwise an odd p splits
        iff disc is a nonzero square mod p, and 2 splits iff disc = 1
        mod 8.  Squares are enumerated, no symbol code involved."""
        L = FIELDS[d]
        got = prime_behavior(L, p)
        if L.field_disc % p == 0:
            assert got == PrimeBehavior.RAMIFIED
        elif p == 2:
            expect = PrimeBehavior.SPLIT if L.field_disc % 8 == 1 else PrimeBehavior.INERT
            assert got == expect
        else:
            squares = {(x * x) % p for x in range(1, p)}
            expect = PrimeBehavior.SPLIT if L.field_disc % p in squares else PrimeBehavior.INERT
            assert got == expect


class TestIsNorm:
    def test_pinned_values(self):
        assert not is_norm(-1, FIELDS[3])
        assert is_norm(7, FIELDS[3])
        assert not is_norm(5, FIELDS[3])

    def test_oracle_smoke(self):
        assert oracle_is_norm(7, 3)       # 7 = (2^2 + 3*1^2)/1
        assert oracle_is_norm(4, 3)
        assert not oracle_is_norm(5, 3)
        assert not oracle_is_norm(-1, 3)
        assert oracle_is_norm(5, 1)       # 5 = 2^2 + 1
        assert not oracle_is_norm(7, 1)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-200, 200).filter(lambda a: a != 0),
        st.sampled_from([1, 2, 3, 5, 7, 10, 15, 19]),
    )
    def test_against_brute_force(self, a, d):
        assert is_norm(a, FIELDS[d]) == oracle_is_norm(a, d)

    @settings(max_examples=300, deadline=None)
    @given(
        st.fractions(min_value=-150, max_value=150, max_denominator=20).filter(
            lambda q: q != 0
        ),
        st.sampled_from([1, 2, 3, 5, 7, 10, 15, 19]),
    )
    def test_two_routes_agree(self, a, d):
        L = FIELDS[d]
        assert is_norm(a, L) == is_norm_by_criteria(a, L)

    @given(
        st.integers(-80, 80).filter(lambda a: a != 0),
        st.integers(-80, 80).filter(lambda b: b != 0),
        st.sampled_from([1, 2, 3, 5, 7, 10, 15]),
    )
    def test_norms_closed_under_product(self, a, b, d):
        L = FIELDS[d]
        if is_norm(a, L) and is_norm(b, L):
            assert is_norm(a * b, L)

    @given(
        st.fractions(min_value=-15, max_value=15, max_denominator=6),
        st.fractions(min_value=-15, max_value=15, max_denominator=6),
        st.sampled_from([1, 2, 3, 5, 7, 10, 15, 19]),
    )
    def test_norm_of_element_is_norm(self, x, y, d):
        n = norm(QuadElem(x, y, FIELDS[d]))
        if n != 0:
            assert is_norm(n, FIELDS[d])


class TestNormClass:
    def test_pinned_values(self):
        assert norm_class(1, FIELDS[7]) == frozenset()
        # direct local computation; the symbol is -1 at inf, 2, 3 and 5
        assert norm_class(-10, FIELDS[3]) == {INF, 2, 3, 5}
        assert norm_class(-5, FIELDS[10]) == {INF, 5}

    def test_more_fixed_classes(self):
        assert norm_class(-5, FIELDS[3]) == {INF, 5}
        assert norm_class(-1, FIELDS[3]) == {INF, 3}
        assert norm_class(-2, FIELDS[3]) == {INF, 2}
        assert norm_class(2, FIELDS[3]) == {2, 3}
        assert norm_class(-1, FIELDS[15]) == {INF, 3}
        assert norm_class(-2, FIELDS[15]) == {INF, 5}
        assert norm_class(-7, FIELDS[1]) == {INF, 7}
        assert norm_class(-7, FIELDS[2]) == {INF, 7}
        assert norm_class(21, FIELDS[1]) == {3, 7}
        assert norm_class(-33, FIELDS[19]) == {INF, 3}
        assert norm_class(33, FIELDS[10]) == {3, 5}
        assert norm_class(55, FIELDS[3]) == {5, 11}
        assert norm_class(-11, FIELDS[3]) == {INF, 11}
        assert norm_class(10, FIELDS[3]) == {2, 5}

    @settings(max_examples=500, deadline=None)
    @given(
        st.fractions(min_value=-300, max_value=300, max_denominator=30).filter(
            lambda q: q != 0
        ),
        st.sampled_from([1, 2, 3, 5, 7, 10, 15, 19]),
    )
    def test_even_no_split_empty_iff_norm(self, a, d):
        L = FIELDS[d]
        cls = norm_class(a, L)
        assert len(cls) % 2 == 0
        for v in cls:
            if v != INF:
                assert prime_behavior(L, v) != PrimeBehavior.SPLIT
        assert (len(cls) == 0) == is_norm(a, L)

    @given(
        st.fractions(min_value=-60, max_value=60, max_denominator=10).filter(
            lambda q: q != 0
        ),
        st.fractions(min_value=-60, max_value=60, max_denominator=10).filter(
            lambda q: q != 0
        ),
        st.sampled_from([1, 2, 3, 5, 7, 10, 15]),
    )
    def test_multiplicative_symmetric_difference(self, a, b, d):
        L = FIELDS[d]
        assert norm_class(a * b, L) == norm_class(a, L) ^ norm_class(b, L)
