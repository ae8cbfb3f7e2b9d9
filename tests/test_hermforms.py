"""Tests for Hermitian Gram matrices, transfer, and local reductions.

The determinant oracle below is an independent cofactor expansion; the
implementation computes determinants as a pivot product during
diagonalization, so agreement is a real cross-check.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from udisc.brauer import from_pair, l_disc
from udisc.hermforms import (
    HermitianGram,
    SquareTest,
    _congruence_diagonal,
    clifford_invariant,
    delta,
    diagonal_gram,
    diagonalize,
    disc,
    form_invariants,
    identity_gram,
    is_positive_definite,
    isometric,
    quad_invariants,
    squarefree_reduce_at,
    transfer_quadratic,
    unimodular_reduce_at,
)
from udisc.quadfield import ImagQuadField, QuadElem, norm_class
from udisc.symbols import INF, hilbert, relevant_places, squarefree_part

from quadarith import add, conj, div, is_zero, mul, neg, qsum, sqrt_gen, sub
from test_symbols import oracle_hilbert

Q1 = ImagQuadField(1)
Q3 = ImagQuadField(3)
Q10 = ImagQuadField(10)
Q15 = ImagQuadField(15)


def oracle_det(entries):
    """Cofactor expansion along the first row."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = mul(entries[0][j], oracle_det(minor))
        if j % 2:
            term = neg(term)
        total = term if total is None else add(total, term)
    return total


def oracle_congruence_diagonal(entries, field):
    """The congruence elimination on Fraction coordinates, the reference
    for the fraction-free one: the same pivot rules, with the Schur
    complement computed by division at every step."""
    n = len(entries)
    m = [list(row) for row in entries]
    diag = []
    for e in range(n):
        if is_zero(m[e][e]):
            f = next((f for f in range(e + 1, n) if not is_zero(m[f][f])), None)
            if f is not None:
                m[e], m[f] = m[f], m[e]
                for row in m[e:]:
                    row[e], row[f] = row[f], row[e]
            else:
                f = next((f for f in range(e + 1, n) if not is_zero(m[e][f])), None)
                if f is None:
                    raise ValueError("degenerate Hermitian Gram matrix")
                c = next(c for c in (field.elem(1, 0), sqrt_gen(field))
                         if not is_zero(add(mul(conj(c), m[e][f]), mul(c, m[f][e]))))
                m[e][e:] = [add(a, mul(c, b)) for a, b in zip(m[e][e:], m[f][e:])]
                cc = conj(c)
                for row in m[e:]:
                    row[e] = add(row[e], mul(cc, row[f]))
        pivot = m[e][e]
        for row in m[e + 1:]:
            if not is_zero(row[e]):
                r = div(row[e], pivot)
                row[e + 1:] = [sub(a, mul(r, b)) for a, b in zip(row[e + 1:], m[e][e + 1:])]
        assert pivot.y == 0
        diag.append(pivot.x)
    return tuple(diag)


def gram(field, rows):
    n = len(rows)
    ent = []
    for i in range(n):
        ent.append([])
        for j in range(n):
            v = rows[i][j]
            if isinstance(v, QuadElem):
                ent[i].append(v)
            else:
                ent[i].append(field.elem(v, 0))
    return HermitianGram(field, tuple(tuple(r) for r in ent))


def rand_quadelem(rng, field, span=4):
    return field.elem(
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        Fraction(rng.randint(-span, span), rng.randint(1, 3)),
    )


def rand_hermitian(rng, field, n):
    """Random nondegenerate Hermitian Gram, by rejection."""
    while True:
        ent = [[None] * n for _ in range(n)]
        for i in range(n):
            ent[i][i] = field.elem(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), 0)
            for j in range(i + 1, n):
                ent[i][j] = rand_quadelem(rng, field)
                ent[j][i] = conj(ent[i][j])
        det = oracle_det(ent)
        if not is_zero(det):
            return HermitianGram(field, tuple(tuple(r) for r in ent))


def rand_pos_def(rng, field, n, span=3):
    """G^T sigma(G) for random invertible G: positive definite by design."""
    while True:
        g = [[rand_quadelem(rng, field, span) for _ in range(n)] for _ in range(n)]
        if is_zero(oracle_det(g)):
            continue
        ent = [
            [
                qsum(
                    (mul(g[k][i], conj(g[k][j])) for k in range(n)),
                    field.elem(0, 0),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        return HermitianGram(field, tuple(tuple(r) for r in ent))


def rand_congruent(rng, field, n):
    """Entries of G^T J sigma(G) for a sparse, often singular G and a J of
    signs, zeros and hyperbolic planes: zero diagonal entries and
    degenerate matrices are both common."""
    zero = field.elem(0, 0)
    j = [[zero] * n for _ in range(n)]
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.9:
            w = rand_quadelem(rng, field)
            j[i][i + 1], j[i + 1][i] = w, conj(w)
            i += 2
        else:
            j[i][i] = field.elem(rng.choice([-1, 0, 1]), 0)
            i += 1
    g = [
        [rand_quadelem(rng, field) if rng.random() < 0.35 else zero for _ in range(n)]
        for _ in range(n)
    ]
    gj = [
        [qsum((mul(g[k][a], j[k][m]) for k in range(n)), zero) for m in range(n)]
        for a in range(n)
    ]
    return [
        [qsum((mul(gj[a][m], conj(g[m][b])) for m in range(n)), zero) for b in range(n)]
        for a in range(n)
    ]


class TestConstruction:
    def test_rejects_asymmetric(self):
        i = sqrt_gen(Q1)
        with pytest.raises(ValueError):
            gram(Q1, [[1, i], [i, 1]])  # lower entry must be conj

    def test_rejects_irrational_diagonal(self):
        i = sqrt_gen(Q1)
        with pytest.raises(ValueError):
            gram(Q1, [[i, 0], [0, 1]])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            gram(Q3, [[1, 1], [1, 1]])

    def test_helpers(self):
        assert identity_gram(Q3, 3).n == 3
        assert diagonal_gram(Q10, [1, Fraction(1, 5)]).n == 2


class TestDiagonalize:
    def test_identity(self):
        assert diagonalize(identity_gram(Q3, 4)) == [1, 1, 1, 1]

    def test_diag_passthrough(self):
        coeffs = [Fraction(1), Fraction(1), Fraction(1, 5)]
        assert diagonalize(diagonal_gram(Q10, coeffs)) == coeffs

    def test_zero_diagonal_pivot_fix(self):
        # hand-run: both basis vectors isotropic, H(e1,e2) = i; the
        # replacement e1 + i*e2 has H-value 2, elimination leaves -1/2
        i = sqrt_gen(Q1)
        h = gram(Q1, [[0, i], [neg(i), 0]])
        d = diagonalize(h)
        assert d == [2, Fraction(-1, 2)]
        assert d[0] * d[1] == -1  # = det exactly

    def test_product_equals_det(self):
        rng = random.Random(7)
        for _ in range(40):
            field = ImagQuadField(rng.choice([1, 2, 3, 5, 10]))
            h = rand_hermitian(rng, field, rng.randint(1, 4))
            expected = oracle_det(h.entries)
            assert expected.y == 0
            assert math.prod(diagonalize(h)) == expected.x
        # zero diagonal entries send the elimination through the swap and
        # the v_e + c v_f step
        checked = 0
        for _ in range(200):
            field = ImagQuadField(rng.choice([1, 2, 3, 5, 10]))
            ent = rand_congruent(rng, field, rng.randint(2, 5))
            expected = oracle_det(ent)
            if is_zero(expected) or all(
                not is_zero(ent[i][i]) for i in range(len(ent))
            ):
                continue
            h = HermitianGram(field, tuple(tuple(r) for r in ent))
            assert expected.y == 0
            assert math.prod(diagonalize(h)) == expected.x
            checked += 1
        assert checked >= 10


class TestDegeneracy:
    def test_rejected_exactly_when_det_is_zero(self):
        rng = random.Random(19)
        # degenerate inputs whose first pivot needs a swap, and ones whose
        # diagonal is all zero so the first pivot is v_1 + c v_f: both
        # reach the zero row only after that step
        swapped = isotropic = accepted = 0
        for _ in range(250):
            field = ImagQuadField(rng.choice([1, 2, 3, 5, 10]))
            ent = rand_congruent(rng, field, rng.randint(1, 5))
            n = len(ent)
            if not is_zero(oracle_det(ent)):
                HermitianGram(field, tuple(tuple(r) for r in ent))
                accepted += 1
                continue
            with pytest.raises(ValueError, match="degenerate Hermitian Gram"):
                HermitianGram(field, tuple(tuple(r) for r in ent))
            zero_diag = [is_zero(ent[i][i]) for i in range(n)]
            if zero_diag[0] and not all(zero_diag):
                swapped += 1
            elif all(zero_diag) and any(not is_zero(x) for x in ent[0]):
                isotropic += 1
        assert min(swapped, isotropic, accepted) >= 5

    def test_isotropic_pivot_then_zero_row(self):
        # H(e1,e1) = H(e2,e2) = 0 and H(e1,e2) = i, so the first pivot is
        # e1 + sqrt(-1) e2; e3 spans the radical
        i = sqrt_gen(Q1)
        with pytest.raises(ValueError, match="degenerate Hermitian Gram"):
            gram(Q1, [[0, i, 0], [neg(i), 0, 0], [0, 0, 0]])

    def test_swap_then_zero_row(self):
        with pytest.raises(ValueError, match="degenerate Hermitian Gram"):
            gram(Q3, [[0, 0, 0], [0, 2, 1], [0, 1, 5]])


class TestEliminationOracle:
    """The fraction-free elimination gives exactly the oracle's pivots."""

    @staticmethod
    def agree(ent, field):
        # the kernel's input: H = s^-1 (X + Y sqrt(-delta0)) on integers
        s = math.lcm(*(q.denominator for row in ent for a in row for q in (a.x, a.y)))
        X = tuple(tuple(int(a.x * s) for a in row) for row in ent)
        Y = tuple(tuple(int(a.y * s) for a in row) for row in ent)
        try:
            want = oracle_congruence_diagonal(ent, field)
        except ValueError as e:
            assert str(e) == "degenerate Hermitian Gram matrix"
            with pytest.raises(ValueError, match="^degenerate Hermitian Gram matrix$"):
                _congruence_diagonal(s, X, Y, field.delta0)
            return False
        got = _congruence_diagonal(s, X, Y, field.delta0)
        assert got == want
        assert all(type(a) is Fraction for a in got)
        return True

    def test_degeneracy_matrices(self):
        # the 250 matrices of TestDegeneracy, whose first pivot often needs
        # a swap or the v_1 + c v_f step
        rng = random.Random(19)
        cases = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}
        for _ in range(250):
            field = ImagQuadField(rng.choice([1, 2, 3, 5, 10]))
            ent = rand_congruent(rng, field, rng.randint(1, 5))
            accepted = self.agree(ent, field)
            zero_diag = [is_zero(row[i]) for i, row in enumerate(ent)]
            if zero_diag[0]:
                cases[accepted, all(zero_diag)] += 1
        assert min(cases.values()) >= 5, cases

    @pytest.mark.parametrize("d0", [1, 2, 3, 5, 7, 10, 15])
    def test_seeded_forms(self, d0):
        rng = random.Random(d0)
        field = ImagQuadField(d0)

        def q(span):
            return Fraction(rng.randint(-span, span), rng.randint(1, 12))

        for _ in range(12):
            n = rng.randint(1, 8)
            for dense in (True, False):
                ent = [[field.elem(0, 0)] * n for _ in range(n)]
                for i in range(n):
                    ent[i][i] = field.elem(q(30) or 1, 0)
                    for j in range(i + 1, n) if dense else ():
                        ent[i][j] = field.elem(q(6), q(6))
                        ent[j][i] = conj(ent[i][j])
                self.agree(ent, field)

    @staticmethod
    def orthogonal_sum(field, blocks):
        n = sum(len(b) for b in blocks)
        ent = [[field.elem(0, 0)] * n for _ in range(n)]
        k = 0
        for b in blocks:
            for i, row in enumerate(b):
                ent[k + i][k:k + len(b)] = row
            k += len(b)
        return ent

    @staticmethod
    def fill(n, make):
        # blocks from make(size) whose sizes add up to n
        blocks = []
        while (left := n - sum(len(b) for b in blocks)):
            blocks.append(make(left))
        return blocks

    @staticmethod
    def plane(rng, field, corner, imaginary):
        # [[0, w], [conj(w), corner]]: for corner 0 a hyperbolic plane, which
        # needs the v_e + c v_f step (c = sqrt(-delta0) when w has no rational
        # part) once every later diagonal entry vanishes; else a swap
        w = rand_quadelem(rng, field)
        w = field.elem(0 if imaginary else w.x or 1, w.y or 1)
        return [[field.elem(0, 0), w], [conj(w), field.elem(corner, 0)]]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32])
    def test_diagonal(self, n):
        rng = random.Random(n)
        field = ImagQuadField(rng.choice([1, 2, 3, 5, 10]))
        ent = self.orthogonal_sum(field, [
            [[field.elem(Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                                  rng.randint(1, 12)), 0)]]
            for _ in range(n)])
        assert self.agree(ent, field)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("d0", [1, 2, 3, 7])
    def test_block_diagonal(self, n, d0):
        # each pivot is decoupled from the rest until a swap or the
        # v_e + c v_f step brings in a row of another block
        rng = random.Random(n * d0)
        field = ImagQuadField(d0)

        def corner():
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))

        def mixed(left):
            k = rng.randint(1, min(left, 4))
            if k == 2 and rng.random() < 0.5:
                return self.plane(rng, field, rng.choice([0, corner()]), rng.random() < 0.5)
            return rand_congruent(rng, field, k)

        hyperbolic = self.fill(n, lambda left: self.plane(rng, field, 0, rng.random() < 0.5))
        swapped = self.fill(n, lambda left: self.plane(rng, field, corner(), False))
        assert self.agree(self.orthogonal_sum(field, hyperbolic), field)
        assert self.agree(self.orthogonal_sum(field, swapped), field)
        for _ in range(3):
            self.agree(self.orthogonal_sum(field, self.fill(n, mixed)), field)


class TestDisc:
    def test_pinned_values(self):
        assert disc(identity_gram(Q10, 2)) == -1
        assert disc(identity_gram(Q3, 4)) == 1
        assert disc(identity_gram(Q15, 4)) == 1

    def test_unimodular_example_form(self):
        # signed determinant is -1/5 ~ -5; the canonical class rep is -2
        # (10 is a norm so -2 and -5 agree mod norms, and |2| < |5|)
        h = diagonal_gram(Q10, [1, Fraction(1, 5)])
        assert disc(h) == -2
        assert norm_class(-5, Q10) == norm_class(-2, Q10) == delta(h).ram


class TestDelta:
    def test_paper_example_all_four_cases(self):
        assert delta(identity_gram(Q10, 2)).ram == {INF, 2}
        assert delta(identity_gram(Q10, 4)).ram == frozenset()
        assert delta(diagonal_gram(Q10, [1, Fraction(1, 5)])).ram == {INF, 5}
        assert delta(diagonal_gram(Q10, [1, 1, 1, Fraction(1, 5)])).ram == {2, 5}

    def test_equals_pair_class_of_signed_det(self):
        assert delta(identity_gram(Q10, 2)) == from_pair(-40, -1)
        assert delta(identity_gram(Q10, 2)) == from_pair(-1, -1)


class TestDefiniteness:
    def test_identity(self):
        assert is_positive_definite(identity_gram(Q3, 5))

    def test_indefinite(self):
        assert not is_positive_definite(diagonal_gram(Q3, [1, -1]))

    def test_unimodular_example(self):
        assert is_positive_definite(diagonal_gram(Q10, [1, Fraction(1, 5)]))


class TestIsometric:
    def test_scaling_by_norm(self):
        assert isometric(identity_gram(Q1, 2), diagonal_gram(Q1, [2, 2]))

    def test_distinct_lattice_example(self):
        assert not isometric(identity_gram(Q10, 2), diagonal_gram(Q10, [1, 5]))

    def test_reflexive(self):
        h = diagonal_gram(Q3, [1, 7, Fraction(2, 3)])
        assert isometric(h, h)

    def test_indefinite_error(self):
        with pytest.raises(ValueError, match="definite forms only"):
            isometric(diagonal_gram(Q3, [1, -1]), identity_gram(Q3, 2))

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            isometric(identity_gram(Q3, 2), identity_gram(Q1, 2))


class TestTransfer:
    def test_pinned_values(self):
        assert transfer_quadratic(identity_gram(Q3, 1)) == (1, 3)
        assert transfer_quadratic(identity_gram(Q10, 2)) == (1, 10, 1, 10)
        h = diagonal_gram(Q10, [1, Fraction(1, 5)])
        assert transfer_quadratic(h) == (1, 10, Fraction(1, 5), 2)


class TestQuadInvariants:
    def test_two_squares(self):
        inv = quad_invariants((1, 1))
        assert inv.dim == 2
        assert inv.disc == -1
        assert all(s == 1 for s in inv.hasse.values())
        assert inv.signature == (2, 0)

    def test_transfer_disc_is_square(self):
        q = transfer_quadratic(identity_gram(Q10, 2))
        inv = quad_invariants(q)
        assert inv.disc == 1  # (-1)^6 * 100 ~ 1

    def test_hyperbolic_plane(self):
        inv = quad_invariants((1, -1))
        assert inv.disc == 1
        assert all(s == 1 for s in inv.hasse.values())
        assert inv.signature == (1, 1)

    @pytest.mark.parametrize("cs", [(), (1, 0), (Fraction(0), 3)])
    def test_rejects_empty_or_zero(self, cs):
        with pytest.raises(ValueError, match="coefficients must be nonzero"):
            quad_invariants(cs)
        with pytest.raises(ValueError, match="coefficients must be nonzero"):
            clifford_invariant(cs)

    def test_hasse_against_direct_product(self):
        cs = (2, -3, Fraction(5, 7))
        inv = quad_invariants(cs)
        for v, s in inv.hasse.items():
            direct = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    direct *= oracle_hilbert(cs[i], cs[j], v)
            assert s == direct


    def test_hasse_kernel_against_hilbert(self):
        # entries +-a/b with a, b <= 200, often times a power of 2, so the
        # dyadic eps and omega terms and odd valuations all come up
        rng = random.Random(41)
        for _ in range(300):
            cs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 200) * 2 ** rng.randint(0, 3),
                           rng.randint(1, 200) * 2 ** rng.choice([0, 0, 1, 3]))
                  for _ in range(rng.randint(1, 12))]
            inv = quad_invariants(tuple(cs))
            places = relevant_places(*cs)
            assert list(inv.hasse) == places
            m = len(cs)
            assert inv.disc == (-1) ** (m * (m - 1) // 2) * squarefree_part(*cs)
            for v in places:
                assert inv.hasse[v] == math.prod(
                    oracle_hilbert(a, b, v) for i, a in enumerate(cs) for b in cs[i + 1:])


class TestTransferPlaces:
    """form_invariants reads the transfer at inf, 2, the primes of delta0 and
    the primes inert in L where det has odd valuation; the Hasse symbol is
    (det, -delta0)_v (delta0, -1)_v^(n(n-1)/2) at every place. delta and
    disc, which read form_invariants, are checked against the class
    (field_disc, signed det)_Q taken at every prime of det."""

    @pytest.mark.parametrize("d0", [1, 2, 3, 5, 7, 10, 15])
    def test_against_the_full_place_set(self, d0):
        rng = random.Random(200 + d0)
        field = ImagQuadField(d0)
        for _ in range(12):
            n = rng.randint(1, 6)
            h = rand_hermitian(rng, field, n)
            det = oracle_det(h.entries).x
            k = n * (n - 1) // 2
            full = quad_invariants(transfer_quadratic(h))
            got = form_invariants(h).transfer
            assert set(got.hasse) <= set(full.hasse)
            assert all(full.hasse[v] == 1 for v in full.hasse if v not in got.hasse)
            for v, s in got.hasse.items():
                assert s == hilbert(det, -d0, v) * hilbert(d0, -1, v) ** k
            assert got._replace(hasse=None) == full._replace(hasse=None)
            whole = from_pair(field.field_disc, (-1) ** k * det)
            assert delta(h) == whole
            assert disc(h) == l_disc(whole, field)


class TestCliffordInvariant:
    def test_transfer_identity_gram(self):
        q = transfer_quadratic(identity_gram(Q10, 2))
        assert clifford_invariant(q).ram == {INF, 2}

    def test_transfer_four_dim(self):
        q = transfer_quadratic(diagonal_gram(Q10, [1, 1, 1, Fraction(1, 5)]))
        assert clifford_invariant(q).ram == {2, 5}

    def test_hyperbolic(self):
        assert not clifford_invariant((1, -1, 1, -1)).ram

    def test_all_dims_mod_8(self):
        # a transfer of an n-dimensional form has dimension 2n, so the
        # transfer identity pins the table in the even residues only;
        # exercise each dimension 2..12 once with a definite form
        rng = random.Random(3)
        for n in range(1, 7):
            field = ImagQuadField(rng.choice([1, 2, 3, 5, 7, 10, 15]))
            h = rand_pos_def(rng, field, n, span=2)
            assert clifford_invariant(transfer_quadratic(h)) == delta(h)

    def test_hyperbolic_plane_changes_nothing(self):
        # the Witt invariant of q and of q + <x, -x> agree in every dimension,
        # which pins the odd residues too
        rng = random.Random(17)
        for dim in range(1, 17):
            for _ in range(8):
                cs = tuple(rng.choice((-1, 1)) * Fraction(rng.randint(1, 60), rng.randint(1, 6))
                           for _ in range(dim))
                x = rng.choice((-1, 1)) * rng.randint(1, 60)
                assert clifford_invariant(cs + (x, -x)) == clifford_invariant(cs), cs

    def test_ternary_is_its_even_clifford_algebra(self):
        # C_0(<a, b, c>) is the quaternion algebra (-ab, -bc)
        rng = random.Random(19)
        for _ in range(60):
            a, b, c = (rng.choice((-1, 1)) * rng.randint(1, 99) for _ in range(3))
            assert clifford_invariant((a, b, c)) == from_pair(-a * b, -b * c), (a, b, c)

    def test_sum_of_three_squares_gives_hamilton_quaternions(self):
        assert clifford_invariant((1, 1, 1)).ram == {INF, 2}


class TestSquarefreeReduce:
    def test_pinned_values(self):
        assert squarefree_reduce_at([1, 50], Q3, 5) == ([1, 2], 0)
        assert squarefree_reduce_at([1, 5], Q3, 5) == ([1, 5], 1)
        assert squarefree_reduce_at(
            [25, 5, Fraction(1, 5)], Q3, 5
        ) == ([1, 5, 5], 2)

    def test_requires_inert(self):
        with pytest.raises(ValueError):
            squarefree_reduce_at([1, 1], Q3, 3)  # ramified
        with pytest.raises(ValueError):
            squarefree_reduce_at([1, 1], Q3, 7)  # split

    def test_parity_random(self):
        rng = random.Random(11)
        inert = {3: [2, 5, 11], 10: [3, 17], 1: [3, 7], 7: [3, 5]}
        for _ in range(120):
            d0 = rng.choice(list(inert))
            field = ImagQuadField(d0)
            p = rng.choice(inert[d0])
            n = rng.randint(1, 5)
            coeffs = [
                Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(n)
            ]
            scaled, k = squarefree_reduce_at(coeffs, field, p)
            prod = Fraction(1)
            for a in coeffs:
                prod *= a
            disc_val = squarefree_part(Fraction((-1) ** (n * (n - 1) // 2)) * prod)
            nu = 1 if disc_val % p == 0 else 0
            assert nu % 2 == k % 2


class TestUnimodularReduce:
    def test_pinned_values(self):
        assert unimodular_reduce_at([1, 1], Q3, 3) is SquareTest.NONSQUARE
        assert unimodular_reduce_at([1, 1, 1, 1], Q3, 3) is SquareTest.SQUARE
        res = unimodular_reduce_at([1, Fraction(1, 5)], Q15, 5)
        assert res is SquareTest.NONSQUARE
        assert 5 in delta(diagonal_gram(Q15, [1, Fraction(1, 5)])).ram

    def test_dyadic_excluded(self):
        with pytest.raises(ValueError):
            unimodular_reduce_at([1, 1], Q15, 2)  # 2 ramified but dyadic

    def test_requires_ramified(self):
        with pytest.raises(ValueError):
            unimodular_reduce_at([1, 1], Q3, 5)

    def test_matches_delta_random(self):
        rng = random.Random(13)
        ram = {3: 3, 15: [3, 5], 7: 7, 5: 5, 10: 5}
        for _ in range(120):
            d0 = rng.choice(list(ram))
            field = ImagQuadField(d0)
            ps = ram[d0]
            p = rng.choice(ps) if isinstance(ps, list) else ps
            n = rng.randint(1, 5)
            coeffs = [
                Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(n)
            ]
            res = unimodular_reduce_at(coeffs, field, p)
            h = diagonal_gram(field, coeffs)
            in_ram = p in delta(h).ram
            assert (res is SquareTest.NONSQUARE) == in_ram


small_fraction = st.fractions(min_value=-8, max_value=8, max_denominator=4).filter(
    lambda q: q != 0
)


class TestTransferIdentityProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 3, 5, 7, 10, 15]),
        st.integers(1, 4),
    )
    def test_clifford_equals_delta(self, seed, d0, n):
        rng = random.Random(seed)
        field = ImagQuadField(d0)
        h = rand_pos_def(rng, field, n, span=2)
        q = transfer_quadratic(h)
        assert clifford_invariant(q) == delta(h)
        inv = quad_invariants(q)
        assert inv.disc == squarefree_part(Fraction(-field.delta0) ** n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 10]), st.integers(1, 3))
    def test_indefinite_transfer_too(self, seed, d0, n):
        # the Clifford = delta identity is algebra, not definiteness
        rng = random.Random(seed)
        field = ImagQuadField(d0)
        h = rand_hermitian(rng, field, n)
        assert clifford_invariant(transfer_quadratic(h)) == delta(h)


class TestBasisInvariance:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 10]), st.integers(1, 3))
    def test_disc_stable_under_basis_change(self, seed, d0, n):
        rng = random.Random(seed)
        field = ImagQuadField(d0)
        h = rand_hermitian(rng, field, n)
        g = [[rand_quadelem(rng, field, 2) for _ in range(n)] for _ in range(n)]
        assume(not is_zero(oracle_det(g)))
        zero = field.elem(0, 0)
        he = h.entries
        ent = [
            [
                qsum(
                    (
                        mul(mul(g[k][i], he[k][m]), conj(g[m][j]))
                        for k in range(n)
                        for m in range(n)
                    ),
                    zero,
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        h2 = HermitianGram(field, tuple(tuple(r) for r in ent))
        assert disc(h2) == disc(h)
        assert delta(h2) == delta(h)
        assert form_invariants(h2) == form_invariants(h)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 10]), st.integers(1, 3))
    def test_isometric_consistency(self, seed, d0, n):
        rng = random.Random(seed)
        field = ImagQuadField(d0)
        h1 = rand_pos_def(rng, field, n)
        h2 = rand_pos_def(rng, field, n)
        if isometric(h1, h2):
            assert delta(h1) == delta(h2)
        assert isometric(h1, h2) == (
            norm_class(Fraction(disc(h1)), field)
            == norm_class(Fraction(disc(h2)), field)
        )
