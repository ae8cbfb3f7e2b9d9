"""Tests for the field arithmetic in `quadarith`, the helper that the Gram
builders and oracles of `test_hermforms` compute with."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from udisc.quadfield import ImagQuadField, QuadElem

from quadarith import add, conj, div, is_zero, mul, neg, norm, sqrt_gen, sub, trace

FIELDS = {d: ImagQuadField(d) for d in (1, 2, 3, 5, 7, 10)}

small = st.fractions(min_value=-20, max_value=20, max_denominator=8)


class TestQuadElem:
    def test_pinned_values(self):
        L = FIELDS[5]
        e = QuadElem(Fraction(3), Fraction(2), L)
        assert conj(e) == QuadElem(Fraction(3), Fraction(-2), L)
        assert norm(QuadElem(Fraction(1), Fraction(1), FIELDS[3])) == 4
        assert trace(e) == 6

    @given(
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        st.sampled_from([1, 2, 3, 5, 10]),
    )
    def test_conj_norm_trace_identities(self, x, y, d):
        e = QuadElem(x, y, FIELDS[d])
        assert conj(conj(e)) == e
        assert norm(e) == mul(e, conj(e)).x
        assert mul(e, conj(e)).y == 0
        assert norm(e) >= 0
        assert (norm(e) == 0) == (e == QuadElem(Fraction(0), Fraction(0), FIELDS[d]))
        assert trace(e) == 2 * x

    @given(small, small, small, small)
    def test_norm_multiplicative(self, x1, y1, x2, y2):
        L = FIELDS[7]
        e, f = QuadElem(x1, y1, L), QuadElem(x2, y2, L)
        assert norm(mul(e, f)) == norm(e) * norm(f)

    @given(small, small, small, small, st.sampled_from([1, 2, 3, 5, 10]))
    def test_field_operations(self, x1, y1, x2, y2, d):
        L = FIELDS[d]
        e, f = QuadElem(x1, y1, L), QuadElem(x2, y2, L)
        assert sub(add(e, f), f) == e
        assert is_zero(add(e, neg(e)))
        assert mul(e, f) == mul(f, e)
        assert add(e, 3) == add(e, L.elem(3)) and mul(e, 3) == mul(e, L.elem(3))
        if not is_zero(f):
            assert mul(div(e, f), f) == e
        else:
            with pytest.raises(ZeroDivisionError):
                div(e, f)

    def test_sqrt_gen_squares_to_minus_delta0(self):
        for d, L in FIELDS.items():
            assert mul(sqrt_gen(L), sqrt_gen(L)) == L.elem(-d)

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError, match="mixed fields"):
            add(FIELDS[3].elem(1), FIELDS[7].elem(1))
