"""Hermitian forms over an imaginary quadratic field, given by Gram matrices.

Convention: H is linear in the first argument and conjugate-linear in the
second, so Gram matrices satisfy entries[j][i] = conj(entries[i][j]) and
change under a basis matrix G as G^T M sigma(G). All arithmetic is exact.

The discriminant of an n-dimensional form is the square class of
(-1)^(n(n-1)/2) det(H), read modulo norms of L; its discriminant algebra
is the quaternion class (field_disc, disc)_Q. Transfer to a 2n-dimensional
rational quadratic form preserves that class as the Clifford invariant.
"""

import dataclasses
import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .brauer import BrauerClassQ, from_pair, l_disc
from .quadfield import ImagQuadField, PrimeBehavior, QuadElem, prime_behavior
from .symbols import (
    _as_fraction,
    _unit_mod,
    _val_unit,
    hilbert,
    legendre,
    relevant_places,
    squarefree_part,
)


class SquareTest(enum.Enum):
    SQUARE = "Square"
    NONSQUARE = "Nonsquare"


@dataclass(frozen=True)
class HermitianGram:
    """Gram matrix of a nondegenerate Hermitian form."""

    field: ImagQuadField
    entries: tuple
    # computed once by the nondegeneracy check below
    det: QuadElem = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.entries)
        if n < 1:
            raise ValueError("empty Gram matrix")
        for row in self.entries:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
            for e in row:
                if not isinstance(e, QuadElem) or e.field != self.field:
                    raise ValueError("entries must be elements of the given field")
        for i in range(n):
            for j in range(n):
                if self.entries[j][i] != self.entries[i][j].conj():
                    raise ValueError(
                        "not Hermitian: entry (%d,%d) is not the conjugate "
                        "of entry (%d,%d)" % (j, i, i, j)
                    )
        det = _determinant(self.entries, self.field)
        if det.is_zero():
            raise ValueError("degenerate Hermitian Gram matrix")
        object.__setattr__(self, "det", det)

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DiagQuadFormQ:
    """Diagonal quadratic form over Q."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(_as_fraction(c) for c in self.coefficients)
        if not coeffs or any(c == 0 for c in coeffs):
            raise ValueError("coefficients must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dim(self) -> int:
        return len(self.coefficients)


def identity_gram(field: ImagQuadField, n: int) -> HermitianGram:
    return diagonal_gram(field, [1] * n)


def diagonal_gram(field: ImagQuadField, coeffs) -> HermitianGram:
    zero = field.elem(0, 0)
    ent = tuple(
        tuple(field.elem(c, 0) if i == j else zero for j, c in enumerate(coeffs))
        for i in range(len(coeffs))
    )
    return HermitianGram(field, ent)


def _determinant(entries, field: ImagQuadField) -> QuadElem:
    n = len(entries)
    m = [list(row) for row in entries]
    det = field.elem(1, 0)
    for col in range(n):
        pivot = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if pivot is None:
            return field.elem(0, 0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [m[r][j] - factor * m[col][j] for j in range(n)]
    return det


def _swap_basis(m, a, b):
    m[a], m[b] = m[b], m[a]
    for row in m:
        row[a], row[b] = row[b], row[a]


def _add_multiple(m, e, f, c: QuadElem):
    # v_e <- v_e + c v_f
    n = len(m)
    cc = c.conj()
    for j in range(n):
        m[e][j] = m[e][j] + c * m[f][j]
    for i in range(n):
        m[i][e] = m[i][e] + cc * m[i][f]


def diagonalize(h: HermitianGram) -> list:
    """Rationals a_1..a_n with h isometric to diag(a_1..a_n).

    Unit-determinant (up to norms) basis changes only, so the product of
    the outputs equals det(h) exactly.
    """
    n = h.n
    m = [list(row) for row in h.entries]
    field = h.field
    diag = []
    for e in range(n):
        if m[e][e].is_zero():
            swap = next((f for f in range(e + 1, n) if not m[f][f].is_zero()), None)
            if swap is not None:
                _swap_basis(m, e, swap)
            else:
                f = next(f for f in range(e + 1, n) if not m[e][f].is_zero())
                # all remaining diagonal values vanish; v_e + c v_f has
                # H-value Tr(conj(c) H(v_e,v_f)), nonzero for c = 1 or
                # c = sqrt(-delta0)
                for c in (field.elem(1, 0), field.sqrt_gen()):
                    if not (c.conj() * m[e][f] + c * m[f][e]).is_zero():
                        _add_multiple(m, e, f, c)
                        break
        pivot = m[e][e]
        for f in range(e + 1, n):
            if m[f][e].is_zero():
                continue
            r = m[f][e] / pivot
            rc = r.conj()
            for j in range(n):
                m[f][j] = m[f][j] - r * m[e][j]
            for i in range(n):
                m[i][f] = m[i][f] - rc * m[i][e]
        assert pivot.y == 0
        diag.append(pivot.x)
    return diag


def _disc_sign(n: int) -> int:
    # (-1)^(n(n-1)/2)
    return -1 if (n * (n - 1) // 2) % 2 else 1


def signed_det(h: HermitianGram) -> Fraction:
    return _disc_sign(h.n) * h.det.x


def delta(h: HermitianGram) -> BrauerClassQ:
    """Discriminant algebra class (field_disc, signed det)_Q."""
    return from_pair(h.field.field_disc, signed_det(h))


def disc(h: HermitianGram) -> int:
    """Canonical representative of the signed determinant modulo norms."""
    return l_disc(delta(h), h.field)


def is_positive_definite(h: HermitianGram) -> bool:
    return all(a > 0 for a in diagonalize(h))


def isometric(h1: HermitianGram, h2: HermitianGram) -> bool:
    """Definite forms are isometric iff dimensions and disc classes agree."""
    if h1.field != h2.field:
        raise ValueError("forms must live over the same field")
    if not (is_positive_definite(h1) and is_positive_definite(h2)):
        raise ValueError("corollary applies to definite forms only")
    return h1.n == h2.n and delta(h1) == delta(h2)


def transfer_quadratic(h: HermitianGram) -> DiagQuadFormQ:
    """Q_H(v) = H(v,v) as a rational form on the 2n-dimensional Q-space.

    On the basis (b_i, sqrt(-delta0) b_i) for a diagonalizing basis (b_i),
    the Gram is diag(a_1, delta0 a_1, ..., a_n, delta0 a_n).
    """
    coeffs = []
    for a in diagonalize(h):
        coeffs.append(a)
        coeffs.append(h.field.delta0 * a)
    return DiagQuadFormQ(tuple(coeffs))


class QuadInvariants(NamedTuple):
    dim: int
    disc: int
    hasse: dict
    signature: tuple


def quad_invariants(q: DiagQuadFormQ) -> QuadInvariants:
    """Dimension, signed squarefree disc, Hasse symbols, and signature."""
    cs = q.coefficients
    m = len(cs)
    # by bilinearity, the product over i < j of (c_i, c_j)_v is the
    # product over j of (c_1...c_{j-1}, c_j)_v
    heads = list(accumulate(cs, operator.mul))
    hasse = {
        v: math.prod(hilbert(a, c, v) for a, c in zip(heads, cs[1:]))
        for v in relevant_places(*cs)
    }
    pos = sum(1 for c in cs if c > 0)
    disc_val = squarefree_part(_disc_sign(m), *cs)
    return QuadInvariants(m, disc_val, hasse, (pos, m - pos))


def clifford_invariant(
    q: DiagQuadFormQ, inv: QuadInvariants | None = None
) -> BrauerClassQ:
    """Clifford (Witt) invariant of q as a Brauer class.

    Convention: with s the product of the symbol classes (c_i, c_j) over
    i < j and d the signed disc, the full Clifford algebra class is s for
    dim 1,2 mod 8, s*(-1,-d) for 3,4, s*(-1,-1) for 5,6, s*(-1,d) for 7,0.
    s ramifies where the Hasse symbol is -1; pass the invariants of q when
    they are at hand.
    """
    if inv is None:
        inv = quad_invariants(q)
    s = BrauerClassQ(frozenset(v for v, e in inv.hasse.items() if e == -1))
    d = inv.disc
    r = inv.dim % 8
    if r in (1, 2):
        return s
    if r in (3, 4):
        return s.mul(from_pair(-1, -d))
    if r in (5, 6):
        return s.mul(from_pair(-1, -1))
    return s.mul(from_pair(-1, d))


class FormInvariants(NamedTuple):
    """What `udisc hform` reports about one form, each part computed once."""

    delta: BrauerClassQ
    disc: int
    definite: bool
    transfer: QuadInvariants
    clifford: BrauerClassQ


def form_invariants(h: HermitianGram) -> FormInvariants:
    """Delta and disc from det(h), the transfer's invariants from one
    diagonalization. clifford == delta is the transfer identity, a check
    of the one computation against the other."""
    dlt = delta(h)
    q = transfer_quadratic(h)
    inv = quad_invariants(q)
    # h is positive definite iff its transfer is: q has coefficients a_i and
    # delta0 a_i for a diagonalization (a_i) of h
    definite = inv.signature[1] == 0
    return FormInvariants(
        dlt, l_disc(dlt, h.field), definite, inv, clifford_invariant(q, inv)
    )


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
