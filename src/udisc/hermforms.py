"""Hermitian forms over an imaginary quadratic field, given by Gram matrices.

Convention: H is linear in the first argument and conjugate-linear in the
second, so Gram matrices satisfy entries[j][i] = conj(entries[i][j]) and
change under a basis matrix G as G^T M sigma(G). All arithmetic is exact.

The discriminant of an n-dimensional form is the square class of
(-1)^(n(n-1)/2) det(H), read modulo norms of L; its discriminant algebra
is the quaternion class (field_disc, disc)_Q. Transfer to a 2n-dimensional
rational quadratic form preserves that class as the Clifford invariant.

A HermitianGram keeps H as integer matrices, scaled here from QuadElem
entries or from the fact-file loader's checked cells alike, and runs one
fraction-free congruence elimination when it is built; det(H) is the
diagonal's product, and form_invariants takes it once: it is the one
computation of delta, disc and the transfer's invariants, and delta(h)
and disc(h) read their parts of it. The transfer is
<1, delta0> (x) <a_1, ..., a_n>, so its Hasse symbol at v is
(det, -delta0)_v (delta0, -1)_v^(n(n-1)/2).
Only det(H) and delta0 are factored; ``symbols.hasse_symbol`` reads each
pivot a/b as the integers a*b and delta0*a*b, at the places where that
symbol or delta may be -1, a set isometries keep.
"""

import enum
import math
from fractions import Fraction
from typing import NamedTuple

from .arith import factor
from .brauer import BrauerClassQ, from_pair, l_disc
from .quadfield import ImagQuadField, PrimeBehavior, QuadElem, prime_behavior
from .symbols import (
    _as_fraction,
    _unit_mod,
    _val_unit,
    hasse_symbol,
    legendre,
    relevant_places,
)


class SquareTest(enum.Enum):
    SQUARE = "Square"
    NONSQUARE = "Nonsquare"


class HermitianGram:
    """Gram matrix of a nondegenerate Hermitian form, kept as the entries'
    least common denominator s and integer matrices X, Y (tuples of rows):
    entries = (X + Y sqrt(-delta0)) / s."""

    __slots__ = ("field", "_s", "_x", "_y", "diagonal")

    def __init__(self, field: ImagQuadField, entries: tuple):
        for row in entries:
            if len(row) != len(entries):
                raise ValueError("Gram matrix must be square")
            if not all(isinstance(e, QuadElem) and e.field == field for e in row):
                raise ValueError("entries must be elements of the given field")
        self._build(field, [[(a.x.numerator, a.x.denominator, a.y.numerator, a.y.denominator)
                             for a in row] for row in entries])

    @classmethod
    def _from_cells(cls, field: ImagQuadField, cells: list) -> "HermitianGram":
        # the loader's constructor, from its checked cells: it builds no entry
        h = cls.__new__(cls)
        h._build(field, cells)
        return h

    def _build(self, field, cells):
        # cells are [x_num, x_den, y_num, y_den] with nonzero denominators, of
        # any sign and not reduced; s is the lcm of the reduced denominators
        s = math.lcm(*{b // math.gcd(a, b) for row in cells for a, b, _, _ in row if b != 1},
                     *{d // math.gcd(c, d) for row in cells for _, _, c, d in row if d != 1})
        X = tuple(tuple(c[0] * s // c[1] for c in row) for row in cells)
        Y = tuple(tuple(c[2] * s // c[3] for c in row) for row in cells)
        self.field, self._s, self._x, self._y = field, s, X, Y
        # the one elimination's pivots; it also rejects non-Hermitian or degenerate H
        self.diagonal = _congruence_diagonal(s, X, Y, field.delta0)

    @property
    def entries(self) -> tuple:
        s, L = self._s, self.field
        return tuple(tuple(QuadElem(Fraction(x, s), Fraction(y, s), L) for x, y in zip(*r))
                     for r in zip(self._x, self._y))

    @property
    def n(self) -> int:
        return len(self._x)


def identity_gram(field: ImagQuadField, n: int) -> HermitianGram:
    return diagonal_gram(field, [1] * n)


def diagonal_gram(field: ImagQuadField, coeffs) -> HermitianGram:
    zero = field.elem(0, 0)
    ent = tuple(
        tuple(field.elem(c, 0) if i == j else zero for j, c in enumerate(coeffs))
        for i in range(len(coeffs))
    )
    return HermitianGram(field, ent)


def _congruence_diagonal(s: int, X: tuple, Y: tuple, d: int) -> tuple:
    # H = (X + Y r)/s with r = sqrt(-d) -> G^T H sigma(G) with N(det G) = 1, so
    # the pivots multiply to det(H). Bareiss on B = s*H as integer pairs: after
    # step e, B_ij for i, j > e is the minor on rows 0..e,i and columns 0..e,j,
    # so dividing by prev, the previous leading minor, is exact (Sylvester's
    # identity); rows and columns before e are not read.
    n = len(X)
    if n < 1:
        raise ValueError("empty Gram matrix")
    X, Y = [list(r) for r in X], [list(r) for r in Y]
    for i in range(n):
        for j in range(i, n):
            if X[j][i] != X[i][j] or Y[j][i] != -Y[i][j]:
                raise ValueError("not Hermitian: entry (%d,%d) is not the conjugate"
                                 " of entry (%d,%d)" % (j, i, i, j))
    prev, diag = 1, []
    for e in range(n):
        if not (X[e][e] or Y[e][e]):
            f = next((f for f in range(e + 1, n) if X[f][f] or Y[f][f]), None)
            if f is not None:
                for M in (X, Y):
                    M[e], M[f] = M[f], M[e]
                    for row in M[e:]:
                        row[e], row[f] = row[f], row[e]
        xe, ye = X[e], Y[e]
        if not (xe[e] or ye[e]):
            f = next((f for f in range(e + 1, n) if xe[f] or ye[f]), None)
            if f is None:
                raise ValueError("degenerate Hermitian Gram matrix")
            # all remaining diagonal values vanish; v_e + c v_f has H-value
            # Tr(conj(c) H(v_e,v_f)), nonzero for c = 1 or c = r
            xf, yf = X[f], Y[f]
            cx, cy = (1, 0) if xe[f] + xf[e] or ye[f] + yf[e] else (0, 1)
            for j in range(e, n):
                xe[j], ye[j] = (xe[j] + cx * xf[j] - d * cy * yf[j],
                                ye[j] + cx * yf[j] + cy * xf[j])
            for xi, yi in zip(X[e:], Y[e:]):
                xi[e], yi[e] = (xi[e] + cx * xi[f] + d * cy * yi[f],
                                yi[e] + cx * yi[f] - cy * xi[f])
        p = xe[e]
        assert ye[e] == 0
        diag.append(Fraction(p, prev * s))
        if not any(xi[e] or yi[e] for xi, yi in zip(X[e + 1:], Y[e + 1:])):
            # e is orthogonal to the rest, so the later pivots are those of H
            # without e, from the same block and prev
            continue
        # the trailing block becomes p/prev times its Schur complement
        bx, by = xe[e + 1:], ye[e + 1:]
        for xi, yi in zip(X[e + 1:], Y[e + 1:]):
            ax, ay = xi[e], yi[e]
            day = d * ay
            xi[e + 1:] = [(p * x - ax * u + day * v) // prev
                          for x, u, v in zip(xi[e + 1:], bx, by)]
            yi[e + 1:] = [(p * y - ax * v - ay * u) // prev
                          for y, u, v in zip(yi[e + 1:], bx, by)]
        prev = p
    return tuple(diag)


def diagonalize(h: HermitianGram) -> list:
    """Rationals a_1..a_n with h isometric to diag(a_1..a_n).

    Unit-determinant (up to norms) basis changes only, so the product of
    the outputs equals det(h) exactly. The elimination runs once, when h
    is built; this returns its pivots.
    """
    return list(h.diagonal)


def _disc_sign(n: int) -> int:
    # (-1)^(n(n-1)/2)
    return -1 if (n * (n - 1) // 2) % 2 else 1


def signed_det(h: HermitianGram) -> Fraction:
    return _disc_sign(h.n) * math.prod(h.diagonal)


def delta(h: HermitianGram) -> BrauerClassQ:
    """Discriminant algebra class (field_disc, signed det)_Q, as
    form_invariants computes it."""
    return form_invariants(h).delta


def disc(h: HermitianGram) -> int:
    """Canonical representative of the signed determinant modulo norms."""
    return form_invariants(h).disc


def is_positive_definite(h: HermitianGram) -> bool:
    return all(a > 0 for a in h.diagonal)


def isometric(h1: HermitianGram, h2: HermitianGram) -> bool:
    """Definite forms are isometric iff dimensions and disc classes agree."""
    if h1.field != h2.field:
        raise ValueError("forms must live over the same field")
    if not (is_positive_definite(h1) and is_positive_definite(h2)):
        raise ValueError("corollary applies to definite forms only")
    return h1.n == h2.n and delta(h1) == delta(h2)


def transfer_quadratic(h: HermitianGram) -> tuple:
    """Q_H(v) = H(v,v) as a rational form on the 2n-dimensional Q-space.

    On the basis (b_i, sqrt(-delta0) b_i) for a diagonalizing basis (b_i),
    the Gram is diagonal; this returns its coefficients
    (a_1, delta0 a_1, ..., a_n, delta0 a_n).
    """
    d0 = h.field.delta0
    return tuple(c for a in h.diagonal for c in (a, d0 * a))


class QuadInvariants(NamedTuple):
    dim: int
    disc: int
    hasse: dict
    signature: tuple


def quad_invariants(cs: tuple, places: list | None = None) -> QuadInvariants:
    """Dimension, signed squarefree disc, Hasse symbols, and signature of
    the diagonal rational form with coefficients cs (ints or Fractions), read
    at relevant_places(*cs) or at places: INF, then every prime where the
    Hasse symbol may be -1 or prod(cs) may have odd valuation."""
    if not cs or 0 in cs:
        raise ValueError("coefficients must be nonzero")
    places = places or relevant_places(*cs)
    m, zs = len(cs), [c.numerator * c.denominator for c in cs]
    neg = sum(1 for z in zs if z < 0)
    t, P = _disc_sign(m) * (-1) ** neg, abs(math.prod(zs))
    for p in places[1:]:
        k = 0
        while P % p == 0:
            P, k = P // p, k ^ 1
        t *= p if k else 1
    hasse = {v: hasse_symbol(zs, v) for v in places}
    return QuadInvariants(m, t, hasse, (m - neg, neg))


def clifford_invariant(cs: tuple, inv: QuadInvariants | None = None) -> BrauerClassQ:
    """Clifford (Witt) invariant, as a Brauer class, of the diagonal
    rational form with coefficients cs: the class of its Clifford algebra
    C(q) in even dimension, and of the even part C_0(q) in odd dimension.

    With s the product of the symbol classes (c_i, c_j) over i < j, d the
    signed disc and r = dim mod 8, the class is s for r = 1, 2, s*(-1,d)
    for 3, 0, s*(-1,-d) for 4, 7 and s*(-1,-1) for 5, 6 (Lam, Introduction
    to Quadratic Forms over Fields, Ch. V). By bilinearity the correction
    is one symbol (-1, c): c takes a factor -1 when r is 4, 5, 6 or 7, and
    d when r is 0, 3, 4 or 7. s ramifies where the Hasse symbol is -1;
    pass quad_invariants(cs) when it is at hand.
    """
    if inv is None:
        inv = quad_invariants(cs)
    s = BrauerClassQ(frozenset(v for v, e in inv.hasse.items() if e == -1))
    r = inv.dim % 8
    c = (-1 if r >= 4 else 1) * (inv.disc if r in (0, 3, 4, 7) else 1)
    return s if c == 1 else s.mul(from_pair(-1, c))


class FormInvariants(NamedTuple):
    """What `udisc hform` reports about one form, each part computed once."""

    delta: BrauerClassQ
    disc: int
    definite: bool
    transfer: QuadInvariants
    clifford: BrauerClassQ


def form_invariants(h: HermitianGram) -> FormInvariants:
    """delta and disc from det(h), the product of the diagonal h built, and
    the transfer's invariants from that diagonal, a pivot a/b read as a*b.
    The places read are inf, 2, the primes of delta0 and the inert primes
    where det has odd valuation: at any other p, det is a local norm from L
    and delta0, -1 are units, so delta and the Hasse symbol are +1 there.

    clifford == delta (`clifford_ok` in the report) checks the transfer
    identity, not the diagonalization: that is `oracle_det` in the tests
    and `oracle.determinant` in the benchmark."""
    det, L = signed_det(h), h.field
    inert = {p for m in (det.numerator, det.denominator) for p, e in factor(m)
             if e % 2 and prime_behavior(L, p) is PrimeBehavior.INERT}
    places = relevant_places(L.delta0, *inert)
    dlt = from_pair(L.field_disc, det, places)
    q = tuple(a.numerator * a.denominator * e for a in h.diagonal for e in (1, L.delta0))
    inv = quad_invariants(q, places)
    return FormInvariants(dlt, l_disc(dlt, L), is_positive_definite(h), inv,
                          clifford_invariant(q, inv))


def squarefree_reduce_at(diag, L: ImagQuadField, p: int):
    """Scale entries by even p-powers to valuations {0,1} at an inert p.

    Returns (scaled diagonal, k) with k the number of valuation-1 entries;
    the p-valuation of disc is congruent to k mod 2.
    """
    if prime_behavior(L, p) != PrimeBehavior.INERT:
        raise ValueError(f"{p} is not inert in Q(sqrt(-{L.delta0}))")
    scaled = []
    k = 0
    for a in diag:
        a = _as_fraction(a)
        nu, _ = _val_unit(a, p)
        a = a * Fraction(p) ** (-2 * (nu // 2))
        if nu % 2:
            k += 1
        scaled.append(a)
    return scaled, k


def unimodular_reduce_at(diag, L: ImagQuadField, p: int) -> SquareTest:
    """Square test of the unimodular rescaling of disc at an odd ramified p.

    Entries are scaled by powers of delta0 (valuation 1 at p, trivial on
    the class modulo norms up to squares) to clear their p-valuation; the
    verdict is the Legendre symbol of the signed product mod p, and is
    NONSQUARE exactly when p ramifies in the discriminant algebra.
    """
    if p == 2:
        raise ValueError("dyadic place excluded")
    if prime_behavior(L, p) != PrimeBehavior.RAMIFIED:
        raise ValueError(f"{p} is not ramified in Q(sqrt(-{L.delta0}))")
    t = Fraction(_disc_sign(len(diag)))
    for a in diag:
        a = _as_fraction(a)
        nu, _ = _val_unit(a, p)
        t *= a * Fraction(L.delta0) ** (-nu)
    verdict = legendre(_unit_mod(t, p), p)
    return SquareTest.SQUARE if verdict == 1 else SquareTest.NONSQUARE
