"""Arithmetic in an imaginary quadratic field L = Q(sqrt(-delta0)).

udisc keeps `QuadElem` as a value type with no arithmetic in L: the public
`HermitianGram` constructor reads its coordinates, and the Gram loader and
the elimination work on integer matrices.
The tests' Gram builders and oracles (`oracle_det`, the Fraction-coordinate
congruence elimination, the G^T sigma(G) forms) do compute in L; they use
these functions. Rationals stand for elements with y = 0 wherever an
element is expected as the second argument.
"""

from fractions import Fraction
from functools import reduce

from udisc.quadfield import QuadElem
from udisc.symbols import _as_fraction


def sqrt_gen(field) -> QuadElem:
    """The element sqrt(-delta0)."""
    return QuadElem(Fraction(0), Fraction(1), field)


def conj(e: QuadElem) -> QuadElem:
    return QuadElem(e.x, -e.y, e.field)


def norm(e: QuadElem) -> Fraction:
    return e.x * e.x + e.field.delta0 * e.y * e.y


def trace(e: QuadElem) -> Fraction:
    return 2 * e.x


def is_zero(e: QuadElem) -> bool:
    return e.x == 0 and e.y == 0


def _coerce(e: QuadElem, other) -> QuadElem:
    if isinstance(other, QuadElem):
        if other.field != e.field:
            raise ValueError("mixed fields")
        return other
    return QuadElem(_as_fraction(other), Fraction(0), e.field)


def add(e: QuadElem, other) -> QuadElem:
    o = _coerce(e, other)
    return QuadElem(e.x + o.x, e.y + o.y, e.field)


def sub(e: QuadElem, other) -> QuadElem:
    o = _coerce(e, other)
    return QuadElem(e.x - o.x, e.y - o.y, e.field)


def neg(e: QuadElem) -> QuadElem:
    return QuadElem(-e.x, -e.y, e.field)


def mul(e: QuadElem, other) -> QuadElem:
    o = _coerce(e, other)
    d = e.field.delta0
    return QuadElem(e.x * o.x - d * e.y * o.y, e.x * o.y + e.y * o.x, e.field)


def div(e: QuadElem, other) -> QuadElem:
    o = _coerce(e, other)
    n = norm(o)
    if n == 0:
        raise ZeroDivisionError("division by zero element")
    num = mul(e, conj(o))
    return QuadElem(num.x / n, num.y / n, e.field)


def qsum(es, start: QuadElem) -> QuadElem:
    """start + e_1 + e_2 + ..., the left fold of `sum(es, start)`."""
    return reduce(add, es, start)
