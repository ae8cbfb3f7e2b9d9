"""Tour of the rational local machinery: Hilbert symbols, reciprocity,
squarefree parts, and norm classes of imaginary quadratic fields.

Run with: python3 demos/symbols_tour.py
"""
from fractions import Fraction

from udisc.brauer import from_pair, l_disc, pair_presentation
from udisc.quadfield import ImagQuadField, is_norm, norm_class, prime_behavior
from udisc.symbols import (
    INF,
    hilbert,
    hilbert_reciprocity_check,
    relevant_places,
    render_places,
    squarefree_part,
)


def show_symbol(a, b):
    places = relevant_places(a, b)
    values = {v: hilbert(a, b, v) for v in places}
    nontrivial = sorted(
        (v for v, s in values.items() if s == -1),
        key=lambda v: (0, 0) if v == INF else (1, v),
    )
    print("  (%s, %s): -1 at %s" % (a, b, nontrivial or "no place"))
    assert hilbert_reciprocity_check(a, b)


print("Hilbert symbols (a, b) and the places where they are -1:")
show_symbol(-1, -1)
show_symbol(2, 3)
show_symbol(Fraction(-7, 5), 15)
show_symbol(5, 13)

print()
print("squarefree_part keeps the sign and drops square factors:")
for x in (Fraction(12), Fraction(-50), Fraction(9, 49), Fraction(8, 27)):
    print("  %s -> %s" % (x, squarefree_part(x)))

print()
print("Quaternion algebras over Q as ramification sets:")
c = from_pair(-1, -1)
print("  (-1,-1) ramifies at %s" % render_places(c.ram))
print("  squared it is trivial: %s" % render_places(c.pow(2).ram))
d = c.mul(from_pair(2, 3))
a, b = pair_presentation(d)
print("  product with (2,3) is (%s,%s), %s" % (a, b, render_places(d.ram)))

print()
L = ImagQuadField(10)
print("Norms of L = Q(sqrt(-10)): a is a norm iff its class is empty.")
for a in (2, -2, 7, 10, 49):
    cls = norm_class(a, L)
    print("  a=%3d  norm=%-5s  obstruction at %s"
          % (a, is_norm(a, L), render_places(cls)))

print()
print("Prime behavior in L and minimal discriminants of split classes:")
for p in (2, 3, 5, 7, 11, 13):
    print("  p=%2d  %s" % (p, prime_behavior(L, p).value))
cls = from_pair(-1, -1)
print("  (-1,-1) is split by L, minimal representative %d" % l_disc(cls, L))
