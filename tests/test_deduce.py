"""Tests for the deduction engine that turns character fact sheets into discriminants.

Expected discriminants and ramification sets for the builder sheets below were
frozen from independent hand computations of Hilbert symbols and norm classes
before the engine was written.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udisc.brauer import BrauerClassQ, from_pair, l_disc
from udisc.deduce import (
    AlphaFacts,
    Candidates,
    CharacterFactSheet,
    Constituent,
    DeduceError,
    DeductionReport,
    FactStatus,
    InductionRelation,
    ModFact,
    PlaceStatus,
    RestrictionRelation,
    Structural,
    TensorRelation,
    UnderDetermined,
    Unique,
    alpha_class,
    apply_local_rules,
    candidate_places,
    combine_restriction,
    q8_class,
    resolve,
)
from udisc.quadfield import ImagQuadField
from udisc.symbols import INF

Q1 = ImagQuadField(1)
Q2 = ImagQuadField(2)
Q3 = ImagQuadField(3)
Q5 = ImagQuadField(5)
Q7 = ImagQuadField(7)
Q10 = ImagQuadField(10)
Q15 = ImagQuadField(15)
Q19 = ImagQuadField(19)
Q31 = ImagQuadField(31)

# group orders, as prime -> exponent maps
ORDER_O10P2 = {2: 20, 3: 5, 5: 2, 7: 1, 17: 1, 31: 1}
ORDER_3ON = {2: 9, 3: 5, 5: 1, 7: 3, 11: 1, 19: 1, 31: 1}
ORDER_HN = {2: 14, 3: 6, 5: 6, 7: 1, 11: 1, 19: 1}
ORDER_SU37 = {2: 7, 3: 1, 7: 3, 43: 1}
ORDER_2S63 = {2: 10, 3: 9, 5: 1, 7: 1, 13: 1}

R = PlaceStatus.RAMIFIED
U = PlaceStatus.UNRAMIFIED
UNK = PlaceStatus.UNKNOWN


def cls(*places):
    return BrauerClassQ(frozenset(places))


def fact(p, status, **kw):
    return ModFact(p=p, status=status, **kw)


def sheet_o10_chi33():
    return CharacterFactSheet(
        id="o10p2_chi33",
        degree=110670,
        field=Q15,
        group_order_factors=ORDER_O10P2,
        mod_facts=(
            fact(7, FactStatus.UNITARY_STABLE),
            fact(5, FactStatus.IRREDUCIBLE),
            fact(5, FactStatus.ORTH_SQUARE),
        ),
    )


def sheet_o10_chi51():
    return CharacterFactSheet(
        id="o10p2_chi51",
        degree=332010,
        field=Q15,
        group_order_factors=ORDER_O10P2,
        mod_facts=(
            fact(7, FactStatus.UNITARY_STABLE),
            fact(5, FactStatus.IRREDUCIBLE),
            fact(5, FactStatus.ORTH_NONSQUARE),
        ),
    )


def sheet_o10_chi68():
    return CharacterFactSheet(
        id="o10p2_chi68",
        degree=442680,
        field=Q15,
        group_order_factors=ORDER_O10P2,
        mod_facts=(
            fact(7, FactStatus.UNITARY_STABLE),
            fact(5, FactStatus.IRREDUCIBLE),
            fact(5, FactStatus.ORTH_SQUARE),
        ),
    )


def sheet_o10_chi79():
    return CharacterFactSheet(
        id="o10p2_chi79",
        degree=711450,
        field=Q7,
        group_order_factors=ORDER_O10P2,
        mod_facts=(
            fact(5, FactStatus.IRREDUCIBLE),
            fact(17, FactStatus.IRREDUCIBLE),
            fact(31, FactStatus.IRREDUCIBLE),
            fact(7, FactStatus.IRREDUCIBLE),
            fact(7, FactStatus.ORTH_SQUARE),
        ),
    )


def sheet_on_chi3():
    return CharacterFactSheet(
        id="on3_chi3",
        degree=13376,
        field=Q31,
        group_order_factors=ORDER_3ON,
        mod_facts=(
            fact(3, FactStatus.UNITARY_STABLE),
            fact(11, FactStatus.UNITARY_STABLE),
            fact(31, FactStatus.ORTH_SQUARE),
        ),
    )


def sheet_on_chi5():
    return CharacterFactSheet(
        id="on3_chi5",
        degree=25916,
        field=Q5,
        group_order_factors=ORDER_3ON,
        mod_facts=(
            fact(11, FactStatus.UNITARY_STABLE),
            fact(19, FactStatus.UNITARY_STABLE),
            fact(31, FactStatus.UNITARY_STABLE),
            fact(5, FactStatus.ORTH_SQUARE),
        ),
    )


def sheet_on_chi53():
    return CharacterFactSheet(
        id="on3_chi53",
        degree=63612,
        field=Q3,
        group_order_factors=ORDER_3ON,
        mod_facts=(
            fact(5, FactStatus.NOT_UNITARY_STABLE, defect_one=True),
            fact(11, FactStatus.NOT_UNITARY_STABLE, defect_one=True),
            fact(3, FactStatus.ORTH_SQUARE),
        ),
    )


def sheet_on_chi57(with_dyadic_neighbour_fact=True):
    facts = [
        fact(11, FactStatus.IRREDUCIBLE),
        fact(5, FactStatus.NOT_UNITARY_STABLE, defect_one=True),
    ]
    if with_dyadic_neighbour_fact:
        facts.append(fact(3, FactStatus.ORTH_NONSQUARE))
    return CharacterFactSheet(
        id="on3_chi57",
        degree=116622,
        field=Q3,
        group_order_factors=ORDER_3ON,
        mod_facts=tuple(facts),
    )


def sheet_on_chi59():
    return CharacterFactSheet(
        id="on3_chi59",
        degree=122760,
        field=Q3,
        group_order_factors=ORDER_3ON,
        mod_facts=(
            fact(5, FactStatus.IRREDUCIBLE),
            fact(11, FactStatus.IRREDUCIBLE),
        ),
        alpha_facts=AlphaFacts(q_class=cls(), m=61380, alpha_disc=1, indicator_ext="+"),
    )


def sheet_on_chi69():
    return CharacterFactSheet(
        id="on3_chi69",
        degree=175770,
        field=Q3,
        group_order_factors=ORDER_3ON,
        mod_facts=(
            fact(5, FactStatus.IRREDUCIBLE),
            fact(11, FactStatus.NOT_UNITARY_STABLE, defect_one=True),
            fact(3, FactStatus.ORTH_SQUARE),
        ),
    )


def sheet_hn_chi25(with_alpha=True):
    return CharacterFactSheet(
        id="hn_chi25",
        degree=656250,
        field=Q19,
        group_order_factors=ORDER_HN,
        mod_facts=(
            fact(5, FactStatus.IRREDUCIBLE),
            fact(7, FactStatus.IRREDUCIBLE),
            fact(19, FactStatus.ORTH_SQUARE),
            fact(11, FactStatus.NOT_UNITARY_STABLE),
        ),
        alpha_facts=(
            AlphaFacts(q_class=cls(), m=328125, alpha_disc=-33, indicator_ext="+")
            if with_alpha
            else None
        ),
    )


def sheet_hn_chi35(with_alpha=True):
    return CharacterFactSheet(
        id="hn_chi35",
        degree=1361920,
        field=Q10,
        group_order_factors=ORDER_HN,
        mod_facts=(
            fact(2, FactStatus.IRREDUCIBLE),
            fact(7, FactStatus.IRREDUCIBLE),
            fact(19, FactStatus.IRREDUCIBLE),
            fact(11, FactStatus.NOT_UNITARY_STABLE),
        ),
        alpha_facts=(
            AlphaFacts(q_class=cls(), m=680960, alpha_disc=33, indicator_ext="+")
            if with_alpha
            else None
        ),
    )


def su37_restriction():
    # restriction to the 7-local subgroup of order 2^4*3*7^3: one symplectic
    # constituent of degree 42 carrying the quaternion class ramified at inf
    # and 7, 48 linear characters in conjugate pairs, remaining degree-42
    # constituents with even multiplicity
    return RestrictionRelation(
        constituents=(
            Constituent(indicator="-", degree=42, mult=1, brauer_class=cls(INF, 7)),
            Constituent(indicator="o", degree=1, mult=48, hyperbolic=True),
            Constituent(indicator="o", degree=42, mult=4),
        )
    )


def sheet_su37_chi13():
    return CharacterFactSheet(
        id="u37_chi13",
        degree=258,
        field=Q1,
        group_order_factors=ORDER_SU37,
        relations=(su37_restriction(),),
    )


def sheet_su37_chi15():
    return CharacterFactSheet(
        id="u37_chi15",
        degree=258,
        field=Q2,
        group_order_factors=ORDER_SU37,
        relations=(su37_restriction(),),
    )


def sheet_su37_chi27():
    return CharacterFactSheet(
        id="u37_chi27",
        degree=344,
        field=Q1,
        group_order_factors=ORDER_SU37,
        relations=(
            RestrictionRelation(
                constituents=(
                    Constituent(indicator="o", degree=342, mult=1, delta_class=cls(INF, 7)),
                    Constituent(indicator="o", degree=2, mult=1, delta_class=cls(INF, 3)),
                )
            ),
        ),
    )


def sheet_2s63_chi2():
    return CharacterFactSheet(
        id="s63_chi2",
        degree=14,
        field=Q3,
        group_order_factors=ORDER_2S63,
        structural=Structural(q8_subgroup=True, perfect=True, center_order=2, faithful=True),
    )


def sheet_all_stable():
    return CharacterFactSheet(
        id="all_stable",
        degree=4,
        field=Q3,
        group_order_factors={2: 2, 5: 1, 7: 1},
        mod_facts=(
            fact(2, FactStatus.UNITARY_STABLE),
            fact(5, FactStatus.UNITARY_STABLE),
        ),
    )


UNIQUE_CORPUS = [
    # (builder, disc, ramified places)
    (sheet_o10_chi33, -1, {INF, 3}),
    (sheet_o10_chi51, -2, {INF, 5}),
    (sheet_o10_chi68, 1, set()),
    (sheet_o10_chi79, -3, {INF, 3}),
    (sheet_on_chi3, 1, set()),
    (sheet_on_chi5, 1, set()),
    (sheet_on_chi53, 55, {5, 11}),
    (sheet_on_chi57, -10, {INF, 2, 3, 5}),
    (sheet_on_chi59, 1, set()),
    (sheet_on_chi69, -11, {INF, 11}),
    (sheet_hn_chi25, -3, {INF, 3}),
    (sheet_hn_chi35, 3, {3, 5}),
    (sheet_su37_chi13, -7, {INF, 7}),
    (sheet_su37_chi15, -7, {INF, 7}),
    (sheet_su37_chi27, 21, {3, 7}),
    (sheet_2s63_chi2, -2, {INF, 2}),
    (sheet_all_stable, 1, set()),
]


class TestSheetValidation:
    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError, match="even"):
            CharacterFactSheet(id="x", degree=7, field=Q3, group_order_factors={2: 1, 7: 1})

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(ValueError):
            CharacterFactSheet(id="x", degree=0, field=Q3, group_order_factors={2: 1})

    def test_mod_fact_prime_must_divide_group_order(self):
        with pytest.raises(ValueError, match="13"):
            CharacterFactSheet(
                id="x",
                degree=2,
                field=Q3,
                group_order_factors={2: 1, 3: 1},
                mod_facts=(fact(13, FactStatus.IRREDUCIBLE),),
            )

    def test_external_mod_fact_allowed(self):
        s = CharacterFactSheet(
            id="x",
            degree=2,
            field=Q3,
            group_order_factors={2: 1, 3: 1},
            mod_facts=(fact(13, FactStatus.IRREDUCIBLE, external=True),),
        )
        assert s.mod_facts[0].external

    def test_orth_fact_requires_ramified_prime(self):
        # 7 is inert in Q(sqrt(-15)), so an orthogonal-discriminant fact there
        # is malformed
        with pytest.raises(ValueError, match="[Rr]amified"):
            CharacterFactSheet(
                id="x",
                degree=2,
                field=Q15,
                group_order_factors=ORDER_O10P2,
                mod_facts=(fact(7, FactStatus.ORTH_SQUARE),),
            )

    def test_orth_fact_rejected_at_split_prime(self):
        with pytest.raises(ValueError, match="[Rr]amified"):
            CharacterFactSheet(
                id="x",
                degree=2,
                field=Q15,
                group_order_factors=ORDER_O10P2,
                mod_facts=(fact(17, FactStatus.ORTH_NONSQUARE),),
            )

    def test_mod_fact_requires_prime(self):
        with pytest.raises(ValueError, match="prime"):
            ModFact(p=6, status=FactStatus.IRREDUCIBLE)

    def test_orth_dim_sums_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            CharacterFactSheet(
                id="x",
                degree=4,
                field=Q3,
                group_order_factors={2: 1, 3: 1},
                structural=Structural(perfect=True, center_order=2, orth_dim_sum_mod4={3: 1}),
            )

    def test_alpha_indicator_validated(self):
        with pytest.raises(ValueError, match="indicator"):
            AlphaFacts(q_class=cls(), m=3, alpha_disc=1, indicator_ext="o")

    def test_constituent_indicator_validated(self):
        with pytest.raises(ValueError, match="indicator"):
            Constituent(indicator="x", degree=2)


class TestCandidatePlaces:
    def test_orthogonal_group_order(self):
        places = candidate_places(sheet_o10_chi33())
        assert places == [INF, 2, 3, 5, 7, 17, 31]

    def test_tiny_group(self):
        s = CharacterFactSheet(id="x", degree=2, field=Q3, group_order_factors={2: 2})
        assert candidate_places(s) == [INF, 2]

    def test_triple_cover_order(self):
        places = candidate_places(sheet_on_chi57())
        assert places == [INF, 2, 3, 5, 7, 11, 19, 31]


class TestApplyLocalRules:
    def test_external_fact_outside_the_candidate_places_decides_nothing(self):
        # 11 is inert in Q(sqrt(-3)), so the fact would ramify it, but 11
        # does not divide 2|G|
        def sheet(*facts):
            return CharacterFactSheet(id="x", degree=2, field=Q3,
                                      group_order_factors={2: 1, 3: 1, 5: 1},
                                      mod_facts=facts)

        outside = fact(11, FactStatus.NOT_UNITARY_STABLE, defect_one=True, external=True)
        assert apply_local_rules(sheet(outside)) == {INF: R, 2: UNK, 3: UNK, 5: UNK}
        with_fact, without = resolve(sheet(outside)), resolve(sheet())
        assert with_fact.statuses == without.statuses
        assert with_fact.trace == without.trace
        assert with_fact.result.items == without.result.items

    def test_infinite_place_ramifies_for_degree_2_mod_4(self):
        statuses = apply_local_rules(sheet_o10_chi33())
        assert statuses[INF] == R
        assert statuses[5] == U
        assert statuses[3] == UNK

    def test_infinite_place_unramified_for_degree_0_mod_4(self):
        statuses = apply_local_rules(sheet_o10_chi68())
        assert statuses[INF] == U

    def test_defect_one_forces_ramification(self):
        statuses = apply_local_rules(sheet_on_chi57())
        assert statuses[11] == U
        assert statuses[5] == R
        assert statuses[3] == R

    def test_split_places_unramified(self):
        statuses = apply_local_rules(sheet_on_chi57())
        # 7, 19, 31 are split in Q(sqrt(-3))
        assert statuses[7] == U
        assert statuses[19] == U
        assert statuses[31] == U

    def test_not_unitary_stable_alone_is_inconclusive(self):
        s = CharacterFactSheet(
            id="x",
            degree=2,
            field=Q3,
            group_order_factors={2: 1, 5: 1},
            mod_facts=(fact(5, FactStatus.NOT_UNITARY_STABLE),),
        )
        assert apply_local_rules(s)[5] == UNK

    def test_split_rule_needs_trivial_schur_index(self):
        s = CharacterFactSheet(
            id="x",
            degree=2,
            field=Q3,
            group_order_factors={2: 1, 7: 1},
            split_schur_trivial=False,
        )
        assert apply_local_rules(s)[7] == UNK

    def test_center_order_four_rule(self):
        s = CharacterFactSheet(
            id="x",
            degree=4,
            field=Q1,
            group_order_factors={2: 4, 3: 2, 5: 1, 7: 1},
            structural=Structural(perfect=True, center_order=4, faithful=True),
        )
        statuses = apply_local_rules(s)
        assert statuses[3] == U
        assert statuses[5] == U
        assert statuses[7] == U
        assert statuses[2] == UNK

    def test_center_order_two_rule_nonsquare(self):
        # d = 2 and legendre(-1, 3) = -1, so 3 must ramify
        s = CharacterFactSheet(
            id="x",
            degree=4,
            field=Q3,
            group_order_factors={2: 3, 3: 2},
            structural=Structural(perfect=True, center_order=2, orth_dim_sum_mod4={3: 2}),
        )
        assert apply_local_rules(s)[3] == R

    def test_center_order_two_rule_square(self):
        # d = 0 gives legendre(1, 3) = 1, so 3 cannot ramify
        s = CharacterFactSheet(
            id="x",
            degree=4,
            field=Q3,
            group_order_factors={2: 3, 3: 2},
            structural=Structural(perfect=True, center_order=2, orth_dim_sum_mod4={3: 0}),
        )
        assert apply_local_rules(s)[3] == U

    def test_quaternion_subgroup_fixes_all_places(self):
        statuses = apply_local_rules(sheet_2s63_chi2())
        assert statuses == {INF: R, 2: R, 3: U, 5: U, 7: U, 13: U}

    def test_relations_and_alpha_facts_are_not_local(self):
        # each of them contradicts the quaternion class, but only resolve
        # applies them, after the quaternion subgroup
        s = sheet_2s63_chi2()
        with_global = CharacterFactSheet(
            id=s.id,
            degree=s.degree,
            field=s.field,
            group_order_factors=s.group_order_factors,
            structural=s.structural,
            alpha_facts=AlphaFacts(q_class=cls(), m=2, alpha_disc=5, indicator_ext="+"),
            relations=(
                RestrictionRelation(
                    (Constituent(indicator="o", degree=2, delta_class=cls(INF, 2, 3, 5)),)
                ),
                InductionRelation(cls(INF, 3), index=1, field_degree_odd=True),
                TensorRelation(cls(3, 5), psi_degree=1),
            ),
        )
        quaternion = {INF: R, 2: R, 3: U, 5: U, 7: U, 13: U}
        assert apply_local_rules(with_global) == apply_local_rules(s) == quaternion
        with pytest.raises(
            DeduceError,
            match="^contradiction at place 3: rule 'quaternion subgroup' gives Unramified,"
            " rule 'restriction to subgroup' gives Ramified$",
        ):
            resolve(with_global)

    def test_contradictory_stability_facts_rejected(self):
        s = CharacterFactSheet(
            id="x",
            degree=2,
            field=Q3,
            group_order_factors={2: 1, 5: 1},
            mod_facts=(
                fact(5, FactStatus.UNITARY_STABLE),
                fact(5, FactStatus.NOT_UNITARY_STABLE, defect_one=True),
            ),
        )
        with pytest.raises(DeduceError) as exc:
            apply_local_rules(s)
        msg = str(exc.value).lower()
        assert "stable" in msg and "defect" in msg

    def test_contradictory_orthogonal_facts_rejected(self):
        s = CharacterFactSheet(
            id="x",
            degree=2,
            field=Q3,
            group_order_factors={2: 1, 3: 1},
            mod_facts=(
                fact(3, FactStatus.ORTH_SQUARE),
                fact(3, FactStatus.ORTH_NONSQUARE),
            ),
        )
        with pytest.raises(DeduceError, match="contradiction"):
            apply_local_rules(s)


class TestParityClose:
    """The parity step of resolve, on sheets over Q(sqrt-3) with candidate
    places inf (ramified, degree 2), 2 (inert, stable), 3 and 5."""

    @staticmethod
    def run(*facts):
        return resolve(CharacterFactSheet(
            id="parity", degree=2, field=Q3, group_order_factors={2: 1, 3: 1, 5: 1},
            mod_facts=(fact(2, FactStatus.UNITARY_STABLE),) + facts,
        ))

    @staticmethod
    def parity_lines(report):
        return [line.place for line in report.trace if line.rule == "parity closure"]

    def test_single_unknown_closed_to_even_count(self):
        report = self.run(fact(5, FactStatus.NOT_UNITARY_STABLE, defect_one=True))
        assert report.statuses == {INF: R, 2: U, 3: U, 5: R}
        assert self.parity_lines(report) == [3]
        assert report.result.brauer_class == cls(INF, 5)

    def test_single_unknown_closed_to_ramified(self):
        report = self.run(fact(5, FactStatus.UNITARY_STABLE))
        assert report.statuses == {INF: R, 2: U, 3: R, 5: U}
        assert self.parity_lines(report) == [3]
        assert report.result.brauer_class == cls(INF, 3)

    def test_no_unknown_even_count_passes(self):
        report = self.run(fact(5, FactStatus.NOT_UNITARY_STABLE, defect_one=True),
                          fact(3, FactStatus.ORTH_SQUARE))
        assert report.statuses == {INF: R, 2: U, 3: U, 5: R}
        assert self.parity_lines(report) == []
        assert report.result.brauer_class == cls(INF, 5)

    def test_no_unknown_odd_count_is_contradiction(self):
        with pytest.raises(DeduceError, match="^parity violation: an odd number"):
            self.run(fact(5, FactStatus.UNITARY_STABLE), fact(3, FactStatus.ORTH_SQUARE))

    def test_multiple_unknowns_left_alone(self):
        report = self.run()
        assert report.statuses == {INF: R, 2: U, 3: UNK, 5: UNK}
        assert self.parity_lines(report) == []
        assert isinstance(report.result, Candidates)
        assert [c for c, _ in report.result.items] == [cls(INF, 3), cls(INF, 5)]


class TestResolveUnique:
    @pytest.mark.parametrize(
        "builder,disc,ram",
        UNIQUE_CORPUS,
        ids=[b.__name__.removeprefix("sheet_") for b, _, _ in UNIQUE_CORPUS],
    )
    def test_corpus_sheet(self, builder, disc, ram):
        report = resolve(builder())
        assert isinstance(report, DeductionReport)
        assert isinstance(report.result, Unique)
        assert report.result.disc == disc
        assert report.result.brauer_class == cls(*ram)

    def test_statuses_for_chi33(self):
        report = resolve(sheet_o10_chi33())
        assert report.statuses == {INF: R, 2: U, 3: R, 5: U, 7: U, 17: U, 31: U}

    def test_trace_is_complete_and_self_contained(self):
        report = resolve(sheet_on_chi57())
        assert report.trace
        decided = {line.place for line in report.trace if line.place is not None}
        assert decided == set(report.statuses)
        for line in report.trace:
            assert line.rule
            assert line.citation
            text = (line.rule + " " + line.citation).lower()
            assert all(ord(ch) < 128 for ch in text)
            # citations must justify themselves, not point at literature
            for pointer in ("paper", "spec", "theorem", "proposition",
                            "corollary", "lemma", "et al", "ibid"):
                assert pointer not in text

    def test_parity_appears_in_trace_when_used(self):
        report = resolve(sheet_o10_chi33())
        assert any(line.rule == "parity closure" for line in report.trace)

    def test_quasi_split_false_withholds_disc(self):
        s = sheet_o10_chi33()
        s = CharacterFactSheet(
            id=s.id,
            degree=s.degree,
            field=s.field,
            group_order_factors=s.group_order_factors,
            quasi_split=False,
            mod_facts=s.mod_facts,
        )
        report = resolve(s)
        assert isinstance(report.result, Unique)
        assert report.result.brauer_class == cls(INF, 3)
        assert report.result.disc is None


class TestResolveCandidates:
    def test_withheld_dyadic_neighbour_fact(self):
        report = resolve(sheet_on_chi57(with_dyadic_neighbour_fact=False))
        assert isinstance(report.result, Candidates)
        assert [d for _, d in report.result.items] == [-5, -10]
        assert [c for c, _ in report.result.items] == [cls(INF, 5), cls(INF, 2, 3, 5)]

    def test_alpha_free_sheet_has_two_candidates(self):
        report = resolve(sheet_hn_chi25(with_alpha=False))
        assert isinstance(report.result, Candidates)
        assert [d for _, d in report.result.items] == [-2, -3]

    def test_candidates_sorted_by_magnitude_then_sign(self):
        report = resolve(sheet_hn_chi35(with_alpha=False))
        assert isinstance(report.result, Candidates)
        assert [d for _, d in report.result.items] == [1, 2, 3, 6]

    def test_candidate_classes_avoid_split_places(self):
        s = CharacterFactSheet(
            id="x",
            degree=2,
            field=Q3,
            group_order_factors={2: 1, 3: 1, 7: 1},
            split_schur_trivial=False,
            mod_facts=(fact(2, FactStatus.IRREDUCIBLE),),
        )
        # 7 splits in Q(sqrt(-3)) and stays unknown, yet one class survives
        report = resolve(s)
        assert report.result == Unique(cls(INF, 3), -1)

    def test_split_unknowns_are_not_counted_as_free(self):
        # over Q(i) the unknowns 5, 13 and 17 split; the other eight are
        # free, within the enumeration cutoff
        order = {p: 1 for p in (2, 3, 7, 11, 19, 23, 31, 43, 5, 13, 17)}
        s = CharacterFactSheet(id="x", degree=4, field=Q1, group_order_factors=order,
                               split_schur_trivial=False)
        report = resolve(s)
        assert isinstance(report.result, Candidates)
        assert len(report.result.items) == 128
        ramified = set().union(*(c.ram for c, _ in report.result.items))
        assert ramified == {2, 3, 7, 11, 19, 23, 31, 43}

    def test_too_many_unknowns_is_under_determined(self):
        order = {p: 1 for p in (2, 3, 5, 11, 17, 23, 29, 41, 47, 53, 59)}
        s = CharacterFactSheet(id="x", degree=4, field=Q3, group_order_factors=order)
        report = resolve(s)
        assert isinstance(report.result, UnderDetermined)
        assert set(report.result.unknowns) == {2, 3, 5, 11, 17, 23, 29, 41, 47, 53, 59}


class TestResolveErrors:
    def test_parity_contradiction(self):
        s = CharacterFactSheet(
            id="x",
            degree=2,
            field=Q3,
            group_order_factors={2: 1, 3: 1},
            mod_facts=(
                fact(2, FactStatus.IRREDUCIBLE),
                fact(3, FactStatus.ORTH_SQUARE),
            ),
        )
        with pytest.raises(DeduceError, match="parity"):
            resolve(s)

    def test_quaternion_rule_cannot_ramify_a_split_place(self):
        # 2 splits in Q(sqrt(-7)) but the quaternion class for degree 2 mod 4
        # ramifies at 2
        s = CharacterFactSheet(
            id="x",
            degree=2,
            field=Q7,
            group_order_factors={2: 3, 7: 1},
            structural=Structural(q8_subgroup=True, perfect=True, center_order=2, faithful=True),
        )
        with pytest.raises(DeduceError, match="contradiction"):
            resolve(s)

    def test_unknown_relation_record(self):
        s = CharacterFactSheet(
            id="x",
            degree=4,
            field=Q3,
            group_order_factors={2: 1, 3: 1},
            relations=(TensorRelation(cls(), psi_degree=2), object()),
        )
        with pytest.raises(DeduceError, match="^unknown relation record: <object object at "):
            resolve(s)

    def test_alpha_class_outside_candidate_places(self):
        s = CharacterFactSheet(
            id="x",
            degree=4,
            field=Q3,
            group_order_factors={2: 1, 3: 1},
            alpha_facts=AlphaFacts(q_class=cls(), m=2, alpha_disc=5, indicator_ext="+"),
        )
        with pytest.raises(DeduceError, match="5"):
            resolve(s)

    def test_class_not_split_by_field_propagates(self):
        # no rule touches split 7, parity then wrongly ramifies it, and the
        # class ramified at a split place has no discriminant over L
        s = CharacterFactSheet(
            id="x",
            degree=2,
            field=Q3,
            group_order_factors={2: 1, 3: 1, 7: 1},
            split_schur_trivial=False,
            mod_facts=(
                fact(2, FactStatus.IRREDUCIBLE),
                fact(3, FactStatus.ORTH_SQUARE),
            ),
        )
        with pytest.raises(ValueError, match="splitting field"):
            resolve(s)

    @staticmethod
    def split_sheet(primes, quasi_split=True):
        # 7 and 13 split in Q(sqrt(-3)); with no split-place rule only
        # parity touches them, and the infinite place leaves one to ramify
        return CharacterFactSheet(
            id="x",
            degree=2,
            field=Q3,
            group_order_factors={p: 1 for p in primes},
            quasi_split=quasi_split,
            split_schur_trivial=False,
            mod_facts=(
                fact(2, FactStatus.IRREDUCIBLE),
                fact(3, FactStatus.ORTH_SQUARE),
            ),
        )

    @pytest.mark.parametrize("quasi_split", [True, False])
    def test_unique_class_at_a_split_place_names_it(self, quasi_split):
        s = self.split_sheet((2, 3, 7), quasi_split)
        with pytest.raises(
            DeduceError, match=r"rule 'parity closure' ramifies 7, which splits in Q\(sqrt\(-3\)\)"
        ):
            resolve(s)

    @pytest.mark.parametrize("quasi_split", [True, False])
    def test_no_candidate_left_is_an_error(self, quasi_split):
        s = self.split_sheet((2, 3, 7, 13), quasi_split)
        with pytest.raises(DeduceError, match=r"every free place \(7, 13\) splits"):
            resolve(s)


class TestResolveInvariants:
    @pytest.mark.parametrize(
        "builder",
        [b for b, _, _ in UNIQUE_CORPUS],
        ids=[b.__name__.removeprefix("sheet_") for b, _, _ in UNIQUE_CORPUS],
    )
    def test_unique_results_are_coherent(self, builder):
        sheet = builder()
        report = resolve(sheet)
        result = report.result
        assert len(result.brauer_class.ram) % 2 == 0
        from udisc.quadfield import PrimeBehavior, prime_behavior

        for place in result.brauer_class.ram:
            if place != INF:
                assert prime_behavior(sheet.field, place) != PrimeBehavior.SPLIT
        assert from_pair(sheet.field.field_disc, result.disc) == result.brauer_class
        assert l_disc(result.brauer_class, sheet.field) == result.disc

    @pytest.mark.parametrize(
        "builder,disc,ram",
        [(b, d, r) for b, d, r in UNIQUE_CORPUS if b().mod_facts],
        ids=[
            b.__name__.removeprefix("sheet_")
            for b, _, r in UNIQUE_CORPUS
            if b().mod_facts
        ],
    )
    def test_dropping_one_fact_only_widens(self, builder, disc, ram):
        full = builder()
        full_report = resolve(full)
        true_class = cls(*ram)
        for k in range(len(full.mod_facts)):
            kept = full.mod_facts[:k] + full.mod_facts[k + 1 :]
            partial = CharacterFactSheet(
                id=full.id,
                degree=full.degree,
                field=full.field,
                group_order_factors=full.group_order_factors,
                mod_facts=kept,
                structural=full.structural,
                alpha_facts=full.alpha_facts,
                relations=full.relations,
            )
            report = resolve(partial)
            if isinstance(report.result, Unique):
                assert report.result.disc == disc
                assert report.result.brauer_class == true_class
            elif isinstance(report.result, Candidates):
                assert (true_class, disc) in report.result.items
            else:
                assert isinstance(report.result, UnderDetermined)
            for place, status in report.statuses.items():
                if status != UNK:
                    assert full_report.statuses[place] == status


class TestCombineRestriction:
    def test_symplectic_constituent_over_gaussian_field(self):
        c = combine_restriction(Q1, su37_restriction().constituents)
        assert c == cls(INF, 7)
        assert l_disc(c, Q1) == -7

    def test_symplectic_constituent_over_sqrt_minus_two(self):
        c = combine_restriction(Q2, su37_restriction().constituents)
        assert c == cls(INF, 7)
        assert l_disc(c, Q2) == -7

    def test_unitary_constituents_multiply(self):
        c = combine_restriction(
            Q1,
            (
                Constituent(indicator="o", degree=342, mult=1, delta_class=cls(INF, 7)),
                Constituent(indicator="o", degree=2, mult=1, delta_class=cls(INF, 3)),
            ),
        )
        assert c == cls(3, 7)
        assert l_disc(c, Q1) == 21

    def test_hyperbolic_pairs_contribute_trivially(self):
        c = combine_restriction(
            Q3,
            (Constituent(indicator="o", degree=5, mult=2, hyperbolic=True),),
        )
        assert c == cls()

    def test_orthogonal_constituent_with_square_disc(self):
        c = combine_restriction(
            Q3,
            (Constituent(indicator="+", degree=4, mult=1, brauer_class=cls(), ortho_disc=1),),
        )
        assert c == cls()

    def test_orthogonal_constituent_contributes_its_disc(self):
        c = combine_restriction(
            Q3,
            (Constituent(indicator="+", degree=2, mult=1, brauer_class=cls(), ortho_disc=-1),),
        )
        assert c == from_pair(-3, -1) == cls(INF, 3)

    def test_even_multiplicity_is_dropped(self):
        c = combine_restriction(
            Q3,
            (Constituent(indicator="o", degree=3, mult=2),),
        )
        assert c == cls()

    def test_odd_degree_unitary_constituent_rejected(self):
        with pytest.raises(DeduceError, match="not unitary stable"):
            combine_restriction(
                Q3,
                (Constituent(indicator="-", degree=3, mult=1, brauer_class=cls()),),
            )

    @pytest.mark.parametrize("constituent,msg", [
        (Constituent(indicator="o", degree=2), "unitary constituent needs its delta class"),
        (Constituent(indicator="-", degree=2),
         "orthogonal or symplectic constituent needs its quaternion class"),
        (Constituent(indicator="+", degree=2),
         "orthogonal or symplectic constituent needs its quaternion class"),
        (Constituent(indicator="+", degree=2, brauer_class=cls()),
         "orthogonal constituent needs its discriminant"),
    ])
    def test_missing_class_data_rejected(self, constituent, msg):
        with pytest.raises(DeduceError, match="^%s$" % msg):
            combine_restriction(Q3, (constituent,))


class TestCombineInduction:
    """The induction row raises psi's class to the subgroup index."""

    def test_even_index_gives_trivial_class(self):
        assert cls(INF, 3).pow(4) == cls()

    def test_odd_index_keeps_class(self):
        assert cls(INF, 3).pow(3) == cls(INF, 3)

    def test_even_relative_field_degree_decides_nothing(self):
        # over an odd relative degree the relation settles the candidates
        # {-5, -10} to -5; over an even one the sheet resolves as without it
        s = sheet_on_chi57(with_dyadic_neighbour_fact=False)

        def induced(field_degree_odd):
            rel = InductionRelation(cls(INF, 5), index=1, field_degree_odd=field_degree_odd)
            return CharacterFactSheet(id=s.id, degree=s.degree, field=s.field,
                                      group_order_factors=s.group_order_factors,
                                      mod_facts=s.mod_facts, relations=(rel,))

        assert resolve(induced(True)).result == Unique(cls(INF, 5), -5)
        assert isinstance(resolve(s).result, Candidates)
        assert resolve(induced(False)) == resolve(s)


class TestCombineTensor:
    """The tensor row raises chi's class to the partner's degree."""

    def test_even_partner_degree(self):
        assert cls(INF, 3).pow(2) == cls()

    def test_odd_partner_degree(self):
        assert cls(INF, 3).pow(495) == cls(INF, 3)

    @given(
        st.sets(st.sampled_from([INF, 2, 3, 5, 7]), min_size=0, max_size=4),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
    )
    def test_associative_in_the_exponent(self, places, k1, k2):
        if len(places) % 2 == 1:
            places = set(places) ^ {11}
        c = cls(*places)
        assert c.pow(k1 * k2) == c.pow(k1).pow(k2)


class TestAlphaCombine:
    """The alpha rule's discriminant, read off its class by l_disc."""

    def test_worked_triple_cover_character(self):
        assert l_disc(alpha_class(from_pair(-3, 10), 58311, -21, "+", Q3), Q3) == -10

    def test_trivial_quaternion_class_returns_alpha_disc(self):
        assert l_disc(alpha_class(cls(), 5, 5, "+", Q3), Q3) == 5

    def test_symplectic_extension_with_even_exponent(self):
        assert l_disc(alpha_class(from_pair(-3, 10), 4, 7, "-", Q3), Q3) == 1

    def test_symplectic_extension_with_odd_exponent(self):
        assert l_disc(alpha_class(from_pair(-3, 10), 3, 7, "-", Q3), Q3) == 10

    def test_harada_norton_inputs(self):
        assert l_disc(alpha_class(cls(), 328125, -33, "+", Q19), Q19) == -3
        assert l_disc(alpha_class(cls(), 680960, 33, "+", Q10), Q10) == 3

    def test_square_alpha_disc_collapses(self):
        assert l_disc(alpha_class(cls(), 61380, 49, "+", Q3), Q3) == 1

    def test_unsplit_class_rejected(self):
        # from_pair(-1,-1) ramifies at 2, which splits in Q(sqrt(-7))
        with pytest.raises(ValueError, match="splitting field"):
            alpha_class(from_pair(-1, -1), 3, 1, "+", Q7)

    def test_long_indicator_is_shown_cut(self):
        with pytest.raises(ValueError) as e:
            alpha_class(cls(), 3, 7, "x" * 5000, Q3)
        assert str(e.value) == ("extension indicator must be '+' or '-', got '%s'..."
                                " (5000 characters)" % ("x" * 40))


class TestAlphaClass:
    def test_orthogonal_extension_multiplies_by_the_alpha_pair(self):
        q = from_pair(-3, 10)
        assert alpha_class(q, 3, 7, "+", Q3) == q.mul(from_pair(-3, 7))
        assert alpha_class(q, 4, 7, "+", Q3) == from_pair(-3, 7)

    def test_symplectic_extension_is_the_power(self):
        q = from_pair(-3, 10)
        assert alpha_class(q, 3, 7, "-", Q3) == q
        assert alpha_class(q, 4, 7, "-", Q3) == cls()

    @pytest.mark.parametrize("m", [1, 2, 3, 58311])
    @pytest.mark.parametrize("ind", ["+", "-"])
    @pytest.mark.parametrize("alpha", [5, -21, 49, -33])
    def test_is_the_class_of_alpha_combine(self, m, ind, alpha):
        # the class is the one of (L, t) for its discriminant t
        for q, L in ((from_pair(-3, 10), Q3), (cls(INF, 7), Q1), (cls(), Q19)):
            t = l_disc(alpha_class(q, m, alpha, ind, L), L)
            assert alpha_class(q, m, alpha, ind, L) == from_pair(L.field_disc, t)

    def test_unsplit_class_rejected_for_any_exponent(self):
        for m in (1, 2):
            with pytest.raises(ValueError, match="splitting field"):
                alpha_class(from_pair(-1, -1), m, 1, "-", Q7)

    def test_large_primes_need_no_factoring(self):
        # two 26-digit primes inert in Q(sqrt(-3)): p*q is beyond the
        # factoring budget, and the class never passes through it
        p, q = 25080330703369597437700091, 78801772797767169992055857
        assert alpha_class(cls(p, q), 1, 5, "+", Q3) == cls(3, 5, p, q)
        assert alpha_class(cls(p, q), 1, 5, "-", Q3) == cls(p, q)


class TestQ8Class:
    def test_degree_multiple_of_four(self):
        assert q8_class(8, Q3) == cls()

    def test_degree_two_mod_four(self):
        assert q8_class(14, Q3) == cls(INF, 2)

    def test_matches_quaternion_parity(self):
        for degree in range(2, 202, 2):
            assert q8_class(degree, Q3) == from_pair(-1, -1).pow(degree // 2)

    def test_sp6_iso_disc(self):
        assert l_disc(q8_class(14, Q3), Q3) == -2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(UNIQUE_CORPUS), st.data())
def test_random_fact_subsets_never_contradict_the_answer(entry, data):
    """Dropping any subset of modular facts keeps the true answer reachable."""
    builder, disc, ram = entry
    full = builder()
    if not full.mod_facts:
        return
    keep = data.draw(st.lists(st.booleans(), min_size=len(full.mod_facts), max_size=len(full.mod_facts)))
    kept = tuple(f for f, flag in zip(full.mod_facts, keep) if flag)
    partial = CharacterFactSheet(
        id=full.id,
        degree=full.degree,
        field=full.field,
        group_order_factors=full.group_order_factors,
        mod_facts=kept,
        structural=full.structural,
        alpha_facts=full.alpha_facts,
        relations=full.relations,
    )
    report = resolve(partial)
    true_class = cls(*ram)
    if isinstance(report.result, Unique):
        assert report.result.disc == disc
    elif isinstance(report.result, Candidates):
        assert (true_class, disc) in report.result.items
    else:
        assert isinstance(report.result, UnderDetermined)
