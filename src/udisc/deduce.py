"""Rule engine deducing unitary discriminants from character fact sheets.

A fact sheet describes one irreducible character chi of even degree whose
character field is an imaginary quadratic field L. It collects verdicts
about the modular reductions of chi, optional structural shortcuts for the
group, and optional globally combined data (restriction, induction, tensor
decompositions, or the discriminant of an alpha-fixed Hermitian space).

The target is the discriminant algebra Delta(chi): a quaternion class over
Q that is split by L, so it is determined by its finite set of ramified
places. Each criterion is one row of _RULES: a local row marks single
places Ramified or Unramified, a class row fixes every place at once (an
induction or tensor row is one BrauerClassQ.pow). The facts are read in
order: the local ones, the quaternion subgroup, the relations in sheet
order, then the alpha facts. Places left Unknown, found in one scan in
place order, are closed under the even-ramification parity of quaternion
classes, and the engine emits either the unique answer, the candidate
discriminants compatible with the facts, or an under-determined verdict.
Every decision carries a trace line naming the rule and the reason it
applies.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Optional, Union

from .arith import is_prime
from .brauer import BrauerClassQ, from_pair, l_disc, splits_in
from .quadfield import ImagQuadField, PrimeBehavior, prime_behavior
from .symbols import INF, Place, Rational, _brief, legendre, place_sort_key, relevant_places

# more free places would need > 2^8 parity-even completions
_MAX_FREE_PLACES = 9


class DeduceError(ValueError):
    """The supplied facts are mutually inconsistent."""


class PlaceStatus(Enum):
    RAMIFIED = "Ramified"
    UNRAMIFIED = "Unramified"
    UNKNOWN = "Unknown"


class FactStatus(Enum):
    IRREDUCIBLE = "Irreducible"
    UNITARY_STABLE = "UnitaryStable"
    NOT_UNITARY_STABLE = "NotUnitaryStable"
    ORTH_SQUARE = "OrthSquare"
    ORTH_NONSQUARE = "OrthNonsquare"


class ModFact:
    """One verdict about the reduction of chi modulo p.

    Irreducible / UnitaryStable / NotUnitaryStable report the shape of the
    decomposition into Brauer constituents. OrthSquare / OrthNonsquare report
    whether the orthogonal discriminant of the reduction at a prime ramified
    in L is a square. defect_one marks p-blocks of defect one, where failure
    of unitary stability is equivalent to ramification. external marks facts
    at primes not dividing the group order.
    """

    __slots__ = ("p", "status", "defect_one", "external")

    def __init__(self, p: int, status: FactStatus, defect_one: bool = False,
                 external: bool = False):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"mod fact needs a prime, got {p!r}")
        if not isinstance(status, FactStatus):
            raise ValueError(f"not a fact status: {status!r}")
        self.p = p
        self.status = status
        self.defect_one = defect_one
        self.external = external


class Constituent:
    """One constituent of a restriction, with the data its indicator needs.

    Conjugate (hyperbolic) pairs and even-multiplicity constituents
    contribute trivially, so their class data may be omitted.
    """

    __slots__ = ("indicator", "degree", "mult", "brauer_class", "ortho_disc",
                 "delta_class", "hyperbolic")

    def __init__(
        self,
        indicator: str,
        degree: int,
        mult: int = 1,
        brauer_class: Optional[BrauerClassQ] = None,
        ortho_disc: Optional[Rational] = None,
        delta_class: Optional[BrauerClassQ] = None,
        hyperbolic: bool = False,
    ):
        if indicator not in ("+", "-", "o"):
            raise ValueError(f"indicator must be '+', '-' or 'o', got {_brief(indicator)}")
        if degree <= 0 or mult <= 0:
            raise ValueError("constituent degree and multiplicity must be positive")
        self.indicator = indicator
        self.degree = degree
        self.mult = mult
        self.brauer_class = brauer_class
        self.ortho_disc = ortho_disc
        self.delta_class = delta_class
        self.hyperbolic = hyperbolic


class RestrictionRelation:
    """chi restricted to a subgroup, decomposed into constituents."""

    __slots__ = ("constituents",)

    def __init__(self, constituents):
        self.constituents = tuple(constituents)


class InductionRelation(NamedTuple):
    """chi induced from a character psi of known class, over an odd-degree
    relative field extension."""

    psi_delta: BrauerClassQ
    index: int
    field_degree_odd: bool


class TensorRelation(NamedTuple):
    """chi = (character of known class) tensor (character of degree psi_degree),
    with the product unitary stable."""

    delta_chi: BrauerClassQ
    psi_degree: int


class Structural:
    """Group-theoretic shortcuts: a quaternion subgroup through the central
    involution, perfectness, the center order, and for the even-center rule
    the mod-4 dimension sums of the orthogonal constituents mod p."""

    __slots__ = ("q8_subgroup", "perfect", "center_order", "orth_dim_sum_mod4",
                 "faithful")

    def __init__(
        self,
        q8_subgroup: bool = False,
        perfect: bool = False,
        center_order: int = 1,
        orth_dim_sum_mod4: Optional[dict] = None,
        faithful: bool = False,
    ):
        sums = {}
        for p, d in dict(orth_dim_sum_mod4 or {}).items():
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"orthogonal dimension sums need prime keys, got {p!r}")
            if d % 2:
                raise ValueError(f"orthogonal dimension sums must be even, got {d} at {p}")
            sums[p] = d % 4
        self.q8_subgroup = q8_subgroup
        self.perfect = perfect
        self.center_order = center_order
        self.orth_dim_sum_mod4 = sums
        self.faithful = faithful


class AlphaFacts:
    """Inputs for the fixed-algebra combination: the quaternion class of the
    induced character's envelope, the half-degree m, the discriminant of the
    involution on the alpha-fixed algebra, and the indicator of the extended
    character."""

    __slots__ = ("q_class", "m", "alpha_disc", "indicator_ext")

    def __init__(self, q_class: BrauerClassQ, m: int, alpha_disc: Rational,
                 indicator_ext: str):
        if indicator_ext not in ("+", "-"):
            raise ValueError("extension indicator must be '+' or '-', got "
                             + _brief(indicator_ext))
        if not isinstance(m, int) or m <= 0:
            raise ValueError(f"m must be a positive integer, got {m!r}")
        self.q_class = q_class
        self.m = m
        self.alpha_disc = alpha_disc
        self.indicator_ext = indicator_ext


class CharacterFactSheet:
    """Everything the engine may know about one even-degree character."""

    __slots__ = ("id", "degree", "field", "group_order_factors", "quasi_split",
                 "split_schur_trivial", "mod_facts", "structural", "alpha_facts",
                 "relations")

    def __init__(
        self,
        id: str,
        degree: int,
        field: ImagQuadField,
        group_order_factors: dict,
        quasi_split: bool = True,
        split_schur_trivial: bool = True,
        mod_facts: tuple = (),
        structural: Optional[Structural] = None,
        alpha_facts: Optional[AlphaFacts] = None,
        relations: tuple = (),
    ):
        if not isinstance(degree, int) or degree <= 0 or degree % 2:
            raise ValueError(f"degree must be an even positive integer, got {degree!r}")
        factors = {}
        for p, e in dict(group_order_factors).items():
            if not isinstance(p, int) or not is_prime(p) or e <= 0:
                raise ValueError(f"bad group order factor {p!r}^{e!r}")
            factors[p] = e
        mod_facts = tuple(mod_facts)
        for f in mod_facts:
            if f.p not in factors and not f.external:
                raise ValueError(
                    f"mod fact prime {f.p} does not divide the group order"
                    " (flag it external if intended)"
                )
            if f.status in (FactStatus.ORTH_SQUARE, FactStatus.ORTH_NONSQUARE):
                if prime_behavior(field, f.p) != PrimeBehavior.RAMIFIED:
                    raise ValueError(
                        f"orthogonal discriminant facts require a prime ramified"
                        f" in {field}, got {f.p}"
                    )
        self.id = id
        self.degree = degree
        self.field = field
        self.group_order_factors = factors
        self.quasi_split = quasi_split
        self.split_schur_trivial = split_schur_trivial
        self.mod_facts = mod_facts
        self.structural = structural
        self.alpha_facts = alpha_facts
        self.relations = tuple(relations)


class TraceLine(NamedTuple):
    place: Optional[Place]
    rule: str
    citation: str


class Unique(NamedTuple):
    """A fully determined class; disc is None when chi is not quasi-split."""

    brauer_class: BrauerClassQ
    disc: Optional[int]


class Candidates(NamedTuple):
    """All parity-even completions of the unknowns, as (class, disc) pairs
    ordered by |disc| then sign."""

    items: tuple


class UnderDetermined(NamedTuple):
    """Too many free places to enumerate; lists them."""

    unknowns: tuple


class DeductionReport(NamedTuple):
    sheet_id: str
    statuses: dict
    result: Union[Unique, Candidates, UnderDetermined]
    trace: tuple


_CIT_PARITY = "a quaternion class over Q ramifies at an even number of places"


class _Assignment:
    """Mutable status map that records which rule decided each place. A
    place's kind is "inf" or how the prime behaves in L, prefixed "2 " at 2."""

    def __init__(self, sheet: CharacterFactSheet):
        L = sheet.field
        self.kinds = {v: "inf" if v == INF else "2 " * (v == 2) + prime_behavior(L, v).value
                      for v in candidate_places(sheet)}
        self.statuses = {v: PlaceStatus.UNKNOWN for v in self.kinds}
        self.rule_by_place = {}
        self.trace = []

    def assign(self, place, status, rule, citation):
        current = self.statuses[place]
        if current is PlaceStatus.UNKNOWN:
            self.statuses[place] = status
            self.rule_by_place[place] = rule
            self.trace.append(TraceLine(place, rule, citation))
        elif current is not status:
            raise DeduceError(
                f"contradiction at place {place}: rule '{self.rule_by_place[place]}'"
                f" gives {current.value}, rule '{rule}' gives {status.value}"
            )

    def assign_class(self, cls: BrauerClassQ, rule: str, citation: str):
        outside = [v for v in cls.ram if v not in self.statuses]
        if outside:
            names = ", ".join(str(v) for v in sorted(outside, key=place_sort_key))
            raise DeduceError(f"{rule}: class ramifies at {names}, outside the candidate places")
        for v in self.statuses:
            want = PlaceStatus.RAMIFIED if v in cls.ram else PlaceStatus.UNRAMIFIED
            self.assign(v, want, rule, citation)


def candidate_places(sheet: CharacterFactSheet) -> list:
    """Places allowed to ramify in Delta(chi): infinity and the divisors of
    2|G|. Invariant lattices exist at every other prime, so those places are
    unramified from the start."""
    return relevant_places(*sheet.group_order_factors)


class _Rule(NamedTuple):
    """One criterion: the fact kinds it reads, the place kinds it applies
    to, a condition on the fact, and the status it gives (or a function of
    the fact and the place giving it). A class rule has no place kinds: its
    status is a function of the fact and the sheet giving the whole class."""

    name: str
    reads: tuple
    places: Optional[tuple]
    when: Optional[Callable]
    status: Union[PlaceStatus, Callable]
    citation: str


_R, _U = PlaceStatus.RAMIFIED, PlaceStatus.UNRAMIFIED
_INERT, _SPLIT, _ODD = ("inert", "2 inert"), ("split", "2 split"), ("inert", "split", "ramified")
_RULES = (
    _Rule("infinite place parity", ("degree",), ("inf",), None,
          lambda degree, v: _R if degree % 4 == 2 else _U,
          "the archimedean place ramifies in Delta(chi) iff degree == 2 mod 4"),
    _Rule("split place", ("split_schur_trivial",), _SPLIT, lambda flag: flag, _U,
          "a quaternion class split by L cannot ramify at a place that splits in L;"
          " with local Schur index 1 the invariant lattice stays self-dual there"),
    _Rule("inert stable reduction", (FactStatus.IRREDUCIBLE, FactStatus.UNITARY_STABLE),
          _INERT, None, _U,
          "a unitary stable reduction at an inert prime p admits a p-unimodular"
          " invariant lattice, so p does not ramify"),
    _Rule("defect one block", (FactStatus.NOT_UNITARY_STABLE,), _INERT,
          lambda f: f.defect_one, _R,
          "in a p-block of defect one, p ramifies in Delta(chi) iff the reduction"
          " mod p is not unitary stable"),
    _Rule("orthogonal discriminant square", (FactStatus.ORTH_SQUARE,), ("ramified",), None, _U,
          "mod a ramified odd prime p the reduction is orthogonally stable and"
          " disc(chi) reduces onto its discriminant; a square verdict keeps p"
          " unramified"),
    _Rule("orthogonal discriminant nonsquare", (FactStatus.ORTH_NONSQUARE,), ("ramified",),
          None, _R,
          "mod a ramified odd prime p the reduction is orthogonally stable and"
          " disc(chi) reduces onto its discriminant; a nonsquare verdict forces p"
          " to ramify"),
    _Rule("center of order four", ("center_order",), _ODD,
          lambda s: s.perfect and s.faithful and s.center_order % 4 == 0, _U,
          "a faithful character of a perfect group whose center order is divisible"
          " by 4 takes values in a field where odd places cannot ramify"),
    _Rule("center order two", ("orth_dim_sum_mod4",), ("ramified",),
          lambda s: s.perfect and s.center_order % 2 == 0,
          lambda s, p: _R if legendre(-1 if s.orth_dim_sum_mod4[p] == 2 else 1, p) == -1 else _U,
          "for a perfect group with even center, an odd prime p ramified in L"
          " ramifies in Delta(chi) iff (-1)^(d/2) is a nonsquare mod p, where d is"
          " the mod-4 dimension sum of the orthogonal constituents"),
    _Rule("quaternion subgroup", ("q8_subgroup",), None, lambda s: s.q8_subgroup,
          lambda s, sheet: q8_class(sheet.degree, sheet.field),
          "a quaternion subgroup through the central involution restricts every"
          " faithful character to multiples of its symplectic character, giving"
          " Delta(chi) = [(-1,-1)]^(degree/2)"),
    _Rule("restriction to subgroup", (RestrictionRelation,), None, None,
          lambda rel, sheet: combine_restriction(sheet.field, rel.constituents),
          "Delta(chi) is the product of the constituent contributions of a unitary"
          " stable restriction"),
    _Rule("induction from subgroup", (InductionRelation,), None, lambda rel: rel.field_degree_odd,
          lambda rel, sheet: rel.psi_delta.pow(rel.index),
          "a unitary stable induced character multiplies the class of psi by the"
          " parity of the subgroup index"),
    _Rule("tensor factorisation", (TensorRelation,), None, None,
          lambda rel, sheet: rel.delta_chi.pow(rel.psi_degree),
          "Delta(chi tensor psi) = Delta(chi)^deg(psi) when the product is unitary stable"),
    _Rule("alpha fixed algebra", ("alpha_facts",), None, None,
          lambda a, sheet: alpha_class(a.q_class, a.m, a.alpha_disc, a.indicator_ext, sheet.field),
          "the discriminant of the alpha-fixed Hermitian space determines disc(chi)"
          " as ldisc(q)^m times the alpha-discriminant"),
)


# the rows of _RULES that read each fact kind, in table order
_READERS = {read: [r for r in _RULES if read in r.reads] for rule in _RULES for read in rule.reads}


def _apply(asg: _Assignment, sheet: CharacterFactSheet, facts):
    """Settle each (fact kind, fact, places) by the rows _READERS[kind]
    whose condition holds: each place by the first row for its kind, or,
    for a fact about the whole class (places None), every candidate place
    by the first row. The first rule at a place is the one named in the
    trace and in contradictions; every later one must agree."""
    for read, fact, places in facts:
        if read not in _READERS:  # only a relation can be of a kind that no row reads
            raise DeduceError(f"unknown relation record: {fact!r}")
        rules = [r for r in _READERS[read] if r.when is None or r.when(fact)]
        if places is None and rules:
            asg.assign_class(rules[0].status(fact, sheet), rules[0].name, rules[0].citation)
        for v in places or ():
            for rule in rules:
                if asg.kinds.get(v) in rule.places:
                    status = rule.status(fact, v) if callable(rule.status) else rule.status
                    asg.assign(v, status, rule.name, rule.citation)
                    break


def _local_assignment(sheet: CharacterFactSheet) -> _Assignment:
    """The assignment made by the local facts and the quaternion subgroup."""
    asg = _Assignment(sheet)
    every = list(asg.kinds)
    s = sheet.structural
    # (fact kind, fact, the places it speaks about), in the order of the
    # trace; each row's places pick the kinds it applies to
    facts = [("degree", sheet.degree, every),
             ("split_schur_trivial", sheet.split_schur_trivial, every)]
    facts += [(f.status, f, [f.p]) for f in sheet.mod_facts]
    if s is not None:
        facts.append(("center_order", s, every))
        facts += [("orth_dim_sum_mod4", s, [p]) for p in sorted(s.orth_dim_sum_mod4)]
        facts.append(("q8_subgroup", s, None))
    _apply(asg, sheet, facts)
    return asg


def apply_local_rules(sheet: CharacterFactSheet) -> dict:
    """Status of every candidate place after the local rules and the
    quaternion subgroup."""
    return dict(_local_assignment(sheet).statuses)


def resolve(sheet: CharacterFactSheet) -> DeductionReport:
    """Run the full pipeline on one sheet.

    The local rules and the quaternion subgroup first, then the relations
    in sheet order and the alpha facts, then parity closure.
    Up to _MAX_FREE_PLACES free places (unknowns that do not split in L)
    are enumerated into parity-even classes, with the minimal squarefree
    discriminant when chi is quasi-split: Unique when one class survives,
    else Candidates. More free places yield UnderDetermined.
    """
    L = sheet.field
    asg = _local_assignment(sheet)
    alpha = [] if sheet.alpha_facts is None else [("alpha_facts", sheet.alpha_facts, None)]
    _apply(asg, sheet, [(type(rel), rel, None) for rel in sheet.relations] + alpha)

    # parity closure: even ramification decides a single unknown place.
    # statuses keeps the order of candidate_places, [INF] + sorted primes,
    # so unknowns is in place order
    statuses = asg.statuses
    unknowns = [v for v, s in statuses.items() if s is PlaceStatus.UNKNOWN]
    odd = sum(s is PlaceStatus.RAMIFIED for s in statuses.values()) % 2
    if len(unknowns) == 1:
        status = PlaceStatus.RAMIFIED if odd else PlaceStatus.UNRAMIFIED
        asg.assign(unknowns.pop(), status, "parity closure", _CIT_PARITY)
    elif not unknowns and odd:
        raise DeduceError(
            "parity violation: an odd number of places ramifies and no place is free"
        )

    split = {v for v, kind in asg.kinds.items() if kind in _SPLIT}
    for v in sorted(split):
        if statuses[v] is PlaceStatus.RAMIFIED:
            raise DeduceError(
                f"rule '{asg.rule_by_place[v]}' ramifies {v}, which splits in {L};"
                " no class ramified there has L as a splitting field"
            )
    # a split place never ramifies in a class that L splits
    free = [v for v in unknowns if v not in split]
    if len(free) > _MAX_FREE_PLACES:
        result = UnderDetermined(tuple(free))
    else:
        base = {v for v, s in statuses.items() if s is PlaceStatus.RAMIFIED}
        items = []
        for mask in range(1 << len(free)):
            ram = base | {free[i] for i in range(len(free)) if mask >> i & 1}
            if len(ram) % 2 == 0:
                cls = BrauerClassQ(ram)
                items.append((cls, l_disc(cls, L)))
        if not items:
            names = ", ".join(str(v) for v in unknowns)
            raise DeduceError(
                f"parity needs one more ramified place, but every free place"
                f" ({names}) splits in {L}; no class ramified there has L as a"
                " splitting field"
            )
        items.sort(key=lambda item: (abs(item[1]), item[1] < 0))
        if not sheet.quasi_split:
            items = [(cls, None) for cls, _ in items]
        result = Candidates(tuple(items)) if len(items) > 1 else Unique(*items[0])

    return DeductionReport(sheet.id, dict(statuses), result, tuple(asg.trace))


def combine_restriction(L: ImagQuadField, constituents) -> BrauerClassQ:
    """Class of chi from a unitary stable restriction: indicator '+' gives
    class^(deg/2) times the class of (L, orthogonal disc), '-' gives
    class^(deg/2), 'o' contributes its own delta class; everything raised to
    the parity of its multiplicity."""
    total = BrauerClassQ(frozenset())
    for c in constituents:
        if c.hyperbolic or c.mult % 2 == 0:
            continue
        if c.degree % 2:
            raise DeduceError(
                f"constituent of odd degree {c.degree} with odd multiplicity:"
                " the restriction is not unitary stable"
            )
        if c.indicator == "o":
            if c.delta_class is None:
                raise DeduceError("unitary constituent needs its delta class")
            part = c.delta_class
        else:
            if c.brauer_class is None:
                raise DeduceError(
                    "orthogonal or symplectic constituent needs its quaternion class"
                )
            part = c.brauer_class.pow(c.degree // 2)
            if c.indicator == "+":
                if c.ortho_disc is None:
                    raise DeduceError("orthogonal constituent needs its discriminant")
                part = part.mul(from_pair(L.field_disc, c.ortho_disc))
        total = total.mul(part)
    return total


def alpha_class(q_class: BrauerClassQ, m: int, alpha_disc: Rational,
                indicator_ext: str, L: ImagQuadField) -> BrauerClassQ:
    """Class of chi from an alpha-fixed Hermitian space: q_class^m times the
    class of (L, alpha_disc) for an orthogonal extension, and q_class^m
    alone for a symplectic one. The class of (L, ldisc(q)) is q, so
    l_disc of this class is ldisc(q)^m times alpha_disc, or ldisc(q)^m."""
    if indicator_ext not in ("+", "-"):
        raise ValueError(f"extension indicator must be '+' or '-', got {_brief(indicator_ext)}")
    if not splits_in(q_class, L):
        raise ValueError("L is not a splitting field")
    cls = q_class.pow(m)
    if indicator_ext == "-":
        return cls
    return cls.mul(from_pair(L.field_disc, alpha_disc))


def q8_class(degree: int, L: ImagQuadField) -> BrauerClassQ:
    """Class [(-1,-1)]^(degree/2) of a faithful character of a group with a
    quaternion subgroup through the central involution. The class lives over
    Q; L only records the character field for reporting."""
    if degree % 2:
        raise ValueError(f"degree must be even, got {degree}")
    return from_pair(-1, -1).pow(degree // 2)
