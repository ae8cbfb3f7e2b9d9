"""A brute-force reference for the rule engine's `resolve`.

Delta(chi) is a quaternion class over Q, so it is an even-size set S of
places, and every place outside the candidate places (inf and the primes
dividing 2|G|) is unramified. The reference tries every even-size S of
candidate places and keeps those that every rule allows. Each rule is one
predicate, written from the statement the engine cites for it, not from
the engine's status assignment:

- inf is in S iff the degree is 2 mod 4;
- no place that splits in L is in S, whatever the sheet says about the
  local Schur index: a class with L as a splitting field cannot ramify
  there;
- at an inert prime, a stable reduction (Irreducible or UnitaryStable)
  keeps p out of S, and in a defect-one block a reduction that is not
  unitary stable puts p in S;
- at an odd prime ramified in L, an orthogonal discriminant that is a
  square keeps p out of S, and a nonsquare puts p in S;
- a faithful character of a perfect group with 4 | |Z| has no odd prime
  in S;
- for a perfect group with even centre, an odd prime p ramified in L is
  in S iff (-1)^(d/2) is a nonsquare mod p;
- a quaternion subgroup, a relation or alpha facts fix S to the class the
  combiner gives.

resolve must raise DeduceError iff nothing survives, and otherwise report
exactly the survivors: Unique when it is the only one.

The same predicates check the local rules one fact at a time: for every
kind of local fact at every kind of place, the status `apply_local_rules`
gives a place is the one that the sets allowed by every rule force on it.

A fact that no row of `deduce._READERS` applies to, by the rows' places
and conditions alone, must leave resolve's statuses, result and trace as
they were without it.
"""

import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udisc.brauer import BrauerClassQ, l_disc
from udisc.deduce import (
    AlphaFacts,
    Candidates,
    CharacterFactSheet,
    Constituent,
    DeduceError,
    FactStatus,
    InductionRelation,
    ModFact,
    PlaceStatus,
    RestrictionRelation,
    Structural,
    TensorRelation,
    Unique,
    _READERS,
    _RULES,
    _Assignment,
    alpha_class,
    apply_local_rules,
    candidate_places,
    combine_restriction,
    q8_class,
    resolve,
)
from udisc.quadfield import ImagQuadField, PrimeBehavior, prime_behavior
from udisc.symbols import INF

from test_trace_golden import SEED, SHEETS, draw_sheet

# 2 ramifies in Q(i), Q(sqrt-2), Q(sqrt-5); is inert in Q(sqrt-3); splits
# in Q(sqrt-7), Q(sqrt-15)
FIELDS = [ImagQuadField(d) for d in (1, 2, 3, 5, 7, 15)]
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
STABLE = (FactStatus.IRREDUCIBLE, FactStatus.UNITARY_STABLE)


def fixed_classes(sheet):
    """The classes that the quaternion subgroup, the relations and the alpha
    facts fix; a combiner that rejects its inputs raises here."""
    L = sheet.field
    fixed = []
    if sheet.structural is not None and sheet.structural.q8_subgroup:
        fixed.append(q8_class(sheet.degree, L))
    for rel in sheet.relations:
        if isinstance(rel, RestrictionRelation):
            fixed.append(combine_restriction(L, rel.constituents))
        elif isinstance(rel, InductionRelation):
            # an even relative field degree gives only local information
            if rel.field_degree_odd:
                fixed.append(rel.psi_delta.pow(rel.index))
        else:
            fixed.append(rel.delta_chi.pow(rel.psi_degree))
    a = sheet.alpha_facts
    if a is not None:
        fixed.append(alpha_class(a.q_class, a.m, a.alpha_disc, a.indicator_ext, L))
    return [c.ram for c in fixed]


def nonsquare_mod(a, p):
    return pow(a % p, (p - 1) // 2, p) == p - 1


def allowed(sheet, kind, fixed, S):
    # kind: the behaviour in L of each finite candidate place
    if (INF in S) != (sheet.degree % 4 == 2):
        return False
    if any(kind[v] is PrimeBehavior.SPLIT for v in S if v != INF):
        return False
    for f in sheet.mod_facts:
        if kind[f.p] is PrimeBehavior.INERT:
            if f.status in STABLE and f.p in S:
                return False
            if f.defect_one and f.status is FactStatus.NOT_UNITARY_STABLE and f.p not in S:
                return False
        elif kind[f.p] is PrimeBehavior.RAMIFIED and f.p != 2:
            if f.status is FactStatus.ORTH_SQUARE and f.p in S:
                return False
            if f.status is FactStatus.ORTH_NONSQUARE and f.p not in S:
                return False
    s = sheet.structural
    if s is not None and s.perfect:
        if s.faithful and s.center_order % 4 == 0 and any(v not in (INF, 2) for v in S):
            return False
        if s.center_order % 2 == 0:
            for p, d in s.orth_dim_sum_mod4.items():
                if p != 2 and kind[p] is PrimeBehavior.RAMIFIED:
                    if (p in S) != nonsquare_mod((-1) ** (d // 2), p):
                        return False
    return all(S == ram for ram in fixed)


def survivors(sheet):
    places = candidate_places(sheet)
    kind = {v: prime_behavior(sheet.field, v) for v in places if v != INF}
    fixed = fixed_classes(sheet)
    return [
        frozenset(S)
        for r in range(0, len(places) + 1, 2)
        for S in combinations(places, r)
        if allowed(sheet, kind, fixed, frozenset(S))
    ]


@st.composite
def classes(draw, places):
    ram = set(draw(st.lists(st.sampled_from(places), max_size=4, unique=True)))
    if len(ram) % 2:
        ram ^= {places[0]}
    return BrauerClassQ(ram)


@st.composite
def constituents(draw, places):
    indicator = draw(st.sampled_from("+-o"))
    return Constituent(
        indicator,
        draw(st.integers(1, 6)),
        mult=draw(st.integers(1, 2)),
        brauer_class=draw(classes(places)),
        ortho_disc=draw(st.sampled_from([1, -1, 2, -3, 5, 6, -7])),
        delta_class=draw(classes(places)),
        hyperbolic=draw(st.integers(0, 4)) == 0,
    )


@st.composite
def sheets(draw):
    L = draw(st.sampled_from(FIELDS))
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=6, unique=True))
    finite = sorted({2, *primes})
    places = [INF] + finite
    facts = []
    for p in draw(st.lists(st.sampled_from(finite), max_size=5)):
        statuses = list(FactStatus)
        if prime_behavior(L, p) is not PrimeBehavior.RAMIFIED:
            statuses = [s for s in statuses if s not in
                        (FactStatus.ORTH_SQUARE, FactStatus.ORTH_NONSQUARE)]
        facts.append(ModFact(p, draw(st.sampled_from(statuses)),
                             defect_one=draw(st.booleans()), external=p not in primes))
    structural = None
    if draw(st.booleans()):
        structural = Structural(
            q8_subgroup=draw(st.integers(0, 3)) == 0,
            perfect=draw(st.booleans()),
            center_order=draw(st.sampled_from([1, 2, 4, 6])),
            orth_dim_sum_mod4=draw(st.dictionaries(
                st.sampled_from(finite), st.sampled_from([0, 2]), max_size=3)),
            faithful=draw(st.booleans()),
        )
    relations = []
    if draw(st.integers(0, 5)) == 0:
        relations.append(RestrictionRelation(
            draw(st.lists(constituents(places), min_size=1, max_size=3))))
    if draw(st.integers(0, 5)) == 0:
        relations.append(InductionRelation(
            draw(classes(places)), draw(st.integers(1, 3)), draw(st.integers(0, 4)) > 0))
    if draw(st.integers(0, 5)) == 0:
        relations.append(TensorRelation(draw(classes(places)), draw(st.integers(1, 3))))
    alpha = None
    if draw(st.integers(0, 5)) == 0:
        alpha = AlphaFacts(draw(classes(places)), draw(st.integers(1, 3)),
                           draw(st.sampled_from([1, -1, 2, -3, 5, 7, -15])),
                           draw(st.sampled_from("+-")))
    return CharacterFactSheet(
        id="ref",
        degree=draw(st.sampled_from([2, 4, 6, 8])),
        field=L,
        group_order_factors={p: 1 for p in primes},
        quasi_split=draw(st.booleans()),
        split_schur_trivial=draw(st.booleans()),
        mod_facts=facts,
        structural=structural,
        alpha_facts=alpha,
        relations=relations,
    )


def check_against_reference(sheet):
    """Compare resolve with the reference on one sheet."""
    try:
        want = survivors(sheet)
    except ValueError as e:
        # a combiner refuses its inputs; resolve fails on them too, or on
        # an earlier contradiction
        with pytest.raises(type(e)):
            resolve(sheet)
        return
    if not want:
        with pytest.raises(DeduceError):
            resolve(sheet)
        return
    result = resolve(sheet).result
    if len(want) == 1:
        assert isinstance(result, Unique)
        items = [(result.brauer_class, result.disc)]
    else:
        assert isinstance(result, Candidates)
        items = list(result.items)
    assert Counter(c.ram for c, _ in items) == Counter(want)
    for c, disc in items:
        assert disc == (l_disc(c, sheet.field) if sheet.quasi_split else None)


@settings(max_examples=250, deadline=None)
@given(sheets())
def test_resolve_reports_exactly_the_surviving_classes(sheet):
    check_against_reference(sheet)


# 2 is inert in Q(sqrt-3), splits in Q(sqrt-7) and ramifies in Q(i); beside
# 2, an odd prime of each behaviour the field has, and a prime outside the
# candidate places
GRID = {
    ImagQuadField(3): {"inert": 5, "split": 7, "ramified": 3},
    ImagQuadField(7): {"inert": 3, "split": 11, "ramified": 7},
    ImagQuadField(1): {"inert": 3, "split": 5},
}
OUTSIDE = 29
ORTH = (FactStatus.ORTH_SQUARE, FactStatus.ORTH_NONSQUARE)


def local_facts(p):
    """Every kind of local fact that can speak about p, as sheet arguments."""
    for status, defect_one in product(FactStatus, (False, True)):
        yield {"mod_facts": [ModFact(p, status, defect_one, external=p == OUTSIDE)]}
    for perfect, faithful, order, sums in product(
            (False, True), (False, True), (1, 2, 4), ({}, {p: 0}, {p: 2})):
        yield {"structural": Structural(perfect=perfect, center_order=order,
                                        orth_dim_sum_mod4=sums, faithful=faithful)}


def grid_sheets(L, p):
    """(arguments, sheet or None when the constructor refuses) for each
    local fact at p, each degree parity and each split_schur_trivial."""
    order = {q: 1 for q in (2, *GRID[L].values())}
    for facts, degree, schur in product(local_facts(p), (2, 4), (False, True)):
        args = dict(facts, id="grid", degree=degree, field=L, group_order_factors=order,
                    split_schur_trivial=schur)
        try:
            yield args, CharacterFactSheet(**args)
        except ValueError:
            yield args, None


GRID_PLACES = [(L, p) for L, odd in GRID.items() for p in (2, *odd.values(), OUTSIDE)]


def outcome(sheet):
    """What resolve reports: statuses, result and trace, or its refusal."""
    try:
        return resolve(sheet)
    except ValueError as e:
        return type(e), str(e)


def no_row_reads(read, fact, places, kinds):
    """True when no row of _READERS[read] applies to fact at places: each
    row's condition fails on it, or the row lists none of the kinds of
    places; a class row (places None) would settle every place."""
    return not any((r.when is None or r.when(fact))
                   and (r.places is None or any(kinds.get(v) in r.places for v in places))
                   for r in _READERS[read])


def structural_unread(s, kinds):
    # every local fact kind a Structural record is read as
    return (no_row_reads("center_order", s, list(kinds), kinds)
            and no_row_reads("q8_subgroup", s, list(kinds), kinds)
            and all(no_row_reads("orth_dim_sum_mod4", s, [p], kinds)
                    for p in s.orth_dim_sum_mod4))


def amended(sheet, **changes):
    return CharacterFactSheet(**{k: changes.get(k, getattr(sheet, k))
                                 for k in CharacterFactSheet.__slots__})


@pytest.mark.parametrize("L, p", GRID_PLACES, ids=lambda x: str(x))
def test_local_rules_give_what_the_reference_forces(L, p):
    for args, sheet in grid_sheets(L, p):
        if sheet is None:
            # the constructor refuses orthogonal facts away from primes ramified in L
            (f,) = args["mod_facts"]
            assert f.status in ORTH and prime_behavior(L, p) is not PrimeBehavior.RAMIFIED
            continue
        kinds, s = _Assignment(sheet).kinds, sheet.structural
        if all(no_row_reads(f.status, f, [f.p], kinds) for f in sheet.mod_facts) and (
                s is None or structural_unread(s, kinds)):
            # a fact that no row applies to decides nothing
            assert outcome(sheet) == outcome(amended(sheet, mod_facts=(), structural=None)), args
        places = candidate_places(sheet)
        if p not in places:
            # a fact outside the candidate places decides nothing
            s = args.get("structural")
            bare = dict(args, mod_facts=(), structural=s and Structural(
                perfect=s.perfect, center_order=s.center_order, faithful=s.faithful))
            assert apply_local_rules(sheet) == apply_local_rules(CharacterFactSheet(**bare))
            continue
        # without a trivial local Schur index the split-place predicate is
        # no local rule: resolve applies it by leaving split places out of
        # the free ones, so here a split place counts as of no kind
        kind = {v: prime_behavior(L, v) for v in places if v != INF}
        if not sheet.split_schur_trivial:
            kind = {v: None if b is PrimeBehavior.SPLIT else b for v, b in kind.items()}
        # every rule but parity is local, so the sets of any size count
        ok = [S for r in range(len(places) + 1) for S in map(frozenset, combinations(places, r))
              if allowed(sheet, kind, [], S)]
        if not ok:
            with pytest.raises(DeduceError):
                apply_local_rules(sheet)
            continue
        for v, status in apply_local_rules(sheet).items():
            seen = {v in S for S in ok}
            want = (PlaceStatus.UNKNOWN if len(seen) == 2 else
                    PlaceStatus.RAMIFIED if True in seen else PlaceStatus.UNRAMIFIED)
            assert status is want, (args, v)


@settings(max_examples=60, deadline=None)
@given(sheets(), st.data())
def test_facts_no_row_reads_decide_nothing(sheet, data):
    kinds = _Assignment(sheet).kinds
    want = outcome(sheet)
    # every mod fact at a candidate prime or outside them that no row reads
    for status, v, defect_one in product(FactStatus, [*kinds, OUTSIDE], (False, True)):
        if v == INF:
            continue
        f = ModFact(v, status, defect_one, external=v not in sheet.group_order_factors)
        if no_row_reads(status, f, [v], kinds):
            if status in ORTH and prime_behavior(sheet.field, v) is not PrimeBehavior.RAMIFIED:
                continue  # the constructor refuses it
            at = data.draw(st.integers(0, len(sheet.mod_facts)))
            facts = list(sheet.mod_facts)
            facts.insert(at, f)
            assert outcome(amended(sheet, mod_facts=facts)) == want, (status, v, defect_one)
    # an induction over an even relative degree between the character fields
    places = [INF, 2, *sheet.group_order_factors]
    rel = InductionRelation(data.draw(classes(places)), data.draw(st.integers(1, 3)), False)
    assert no_row_reads(InductionRelation, rel, list(kinds), kinds)
    at = data.draw(st.integers(0, len(sheet.relations)))
    relations = list(sheet.relations)
    relations.insert(at, rel)
    assert outcome(amended(sheet, relations=relations)) == want
    # the center rules of a group that is not perfect
    if sheet.structural is None:
        s = Structural(perfect=False, center_order=data.draw(st.sampled_from([1, 2, 4, 6])),
                       orth_dim_sum_mod4=data.draw(st.dictionaries(
                           st.sampled_from(places[1:]), st.sampled_from([0, 2]), max_size=3)),
                       faithful=data.draw(st.booleans()))
        assert structural_unread(s, kinds)
        assert outcome(amended(sheet, structural=s)) == want


def drawn_sheets():
    """The sheets of the trace golden file that the constructor accepts."""
    rng = random.Random(SEED)
    for _ in range(SHEETS):
        try:
            yield draw_sheet(rng)
        except ValueError:
            pass


def test_each_rule_has_one_citation():
    citations = {}
    for L, p in GRID_PLACES:
        for _, sheet in grid_sheets(L, p):
            try:
                trace = resolve(sheet).trace if sheet is not None else ()
            except DeduceError:
                continue
            for line in trace:
                citations.setdefault(line.rule, set()).add(line.citation)
    # the grid has only local facts; the drawn sheets add the class rules,
    # and their alpha facts may name a field that does not split the class
    for sheet in drawn_sheets():
        try:
            trace = resolve(sheet).trace
        except ValueError:
            continue
        for line in trace:
            citations.setdefault(line.rule, set()).add(line.citation)
    assert set(citations) == {r.name for r in _RULES} | {"parity closure"}
    assert all(len(c) == 1 for c in citations.values())
    assert {r.name: {r.citation} for r in _RULES}.items() <= citations.items()
