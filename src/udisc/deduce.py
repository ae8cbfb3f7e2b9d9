"""Rule engine deducing unitary discriminants from character fact sheets.

A fact sheet describes one irreducible character chi of even degree whose
character field is an imaginary quadratic field L. It collects verdicts
about the modular reductions of chi, optional structural shortcuts for the
group, and optional globally combined data (restriction, induction, tensor
decompositions, or the discriminant of an alpha-fixed Hermitian space).

The target is the discriminant algebra Delta(chi): a quaternion class over
Q that is split by L, so it is determined by its finite set of ramified
places. The engine assigns each place of Q one of Ramified / Unramified /
Unknown, closes the assignment under the even-ramification parity of
quaternion classes, and emits either the unique answer, the candidate
discriminants compatible with the facts, or an under-determined verdict.
Every decision carries a trace line naming the rule and the mathematical
reason it applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import NamedTuple, Optional, Union

from .arith import is_prime
from .brauer import BrauerClassQ, from_pair, l_disc
from .quadfield import ImagQuadField, PrimeBehavior, prime_behavior
from .symbols import INF, Place, Rational, legendre, place_sort_key

# more unknowns would need > 2^8 parity-even completions
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


@dataclass(frozen=True)
class ModFact:
    """One verdict about the reduction of chi modulo p.

    Irreducible / UnitaryStable / NotUnitaryStable report the shape of the
    decomposition into Brauer constituents. OrthSquare / OrthNonsquare report
    whether the orthogonal discriminant of the reduction at a prime ramified
    in L is a square. defect_one marks p-blocks of defect one, where failure
    of unitary stability is equivalent to ramification. external marks facts
    at primes not dividing the group order.
    """

    p: int
    status: FactStatus
    defect_one: bool = False
    external: bool = False

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"mod fact needs a prime, got {self.p!r}")
        if not isinstance(self.status, FactStatus):
            raise ValueError(f"not a fact status: {self.status!r}")


@dataclass(frozen=True)
class Constituent:
    """One constituent of a restriction, with the data its indicator needs.

    Conjugate (hyperbolic) pairs and even-multiplicity constituents
    contribute trivially, so their class data may be omitted.
    """

    indicator: str
    degree: int
    mult: int = 1
    brauer_class: Optional[BrauerClassQ] = None
    ortho_disc: Optional[Rational] = None
    delta_class: Optional[BrauerClassQ] = None
    hyperbolic: bool = False

    def __post_init__(self):
        if self.indicator not in ("+", "-", "o"):
            raise ValueError(f"indicator must be '+', '-' or 'o', got {self.indicator!r}")
        if self.degree <= 0 or self.mult <= 0:
            raise ValueError("constituent degree and multiplicity must be positive")


@dataclass(frozen=True)
class RestrictionRelation:
    """chi restricted to a subgroup, decomposed into constituents."""

    constituents: tuple

    def __post_init__(self):
        object.__setattr__(self, "constituents", tuple(self.constituents))


@dataclass(frozen=True)
class InductionRelation:
    """chi induced from a character psi of known class, over an odd-degree
    relative field extension."""

    psi_delta: BrauerClassQ
    index: int
    field_degree_odd: bool


@dataclass(frozen=True)
class TensorRelation:
    """chi = (character of known class) tensor (character of degree psi_degree),
    with the product unitary stable."""

    delta_chi: BrauerClassQ
    psi_degree: int


@dataclass(frozen=True)
class Structural:
    """Group-theoretic shortcuts: a quaternion subgroup through the central
    involution, perfectness, the center order, and for the even-center rule
    the mod-4 dimension sums of the orthogonal constituents mod p."""

    q8_subgroup: bool = False
    perfect: bool = False
    center_order: int = 1
    orth_dim_sum_mod4: dict = dataclass_field(default_factory=dict)
    faithful: bool = False

    def __post_init__(self):
        sums = {}
        for p, d in dict(self.orth_dim_sum_mod4).items():
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"orthogonal dimension sums need prime keys, got {p!r}")
            if d % 2:
                raise ValueError(f"orthogonal dimension sums must be even, got {d} at {p}")
            sums[p] = d % 4
        object.__setattr__(self, "orth_dim_sum_mod4", sums)


@dataclass(frozen=True)
class AlphaFacts:
    """Inputs for the fixed-algebra combination: the quaternion class of the
    induced character's envelope, the half-degree m, the discriminant of the
    involution on the alpha-fixed algebra, and the indicator of the extended
    character."""

    q_class: BrauerClassQ
    m: int
    alpha_disc: Rational
    indicator_ext: str

    def __post_init__(self):
        if self.indicator_ext not in ("+", "-"):
            raise ValueError(f"extension indicator must be '+' or '-', got {self.indicator_ext!r}")
        if not isinstance(self.m, int) or self.m <= 0:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")


Relation = Union[RestrictionRelation, InductionRelation, TensorRelation]


@dataclass(frozen=True)
class CharacterFactSheet:
    """Everything the engine may know about one even-degree character."""

    id: str
    degree: int
    field: ImagQuadField
    group_order_factors: dict
    quasi_split: bool = True
    split_schur_trivial: bool = True
    mod_facts: tuple = ()
    structural: Optional[Structural] = None
    alpha_facts: Optional[AlphaFacts] = None
    relations: tuple = ()

    def __post_init__(self):
        if not isinstance(self.degree, int) or self.degree <= 0 or self.degree % 2:
            raise ValueError(f"degree must be an even positive integer, got {self.degree!r}")
        factors = {}
        for p, e in dict(self.group_order_factors).items():
            if not isinstance(p, int) or not is_prime(p) or e <= 0:
                raise ValueError(f"bad group order factor {p!r}^{e!r}")
            factors[p] = e
        object.__setattr__(self, "group_order_factors", factors)
        object.__setattr__(self, "mod_facts", tuple(self.mod_facts))
        object.__setattr__(self, "relations", tuple(self.relations))
        for f in self.mod_facts:
            if f.p not in factors and not f.external:
                raise ValueError(
                    f"mod fact prime {f.p} does not divide the group order"
                    " (flag it external if intended)"
                )
            if f.status in (FactStatus.ORTH_SQUARE, FactStatus.ORTH_NONSQUARE):
                if prime_behavior(self.field, f.p) != PrimeBehavior.RAMIFIED:
                    raise ValueError(
                        f"orthogonal discriminant facts require a prime ramified"
                        f" in {self.field}, got {f.p}"
                    )


class TraceLine(NamedTuple):
    place: Optional[Place]
    rule: str
    citation: str


@dataclass(frozen=True)
class Unique:
    """A fully determined class; disc is None when chi is not quasi-split."""

    brauer_class: BrauerClassQ
    disc: Optional[int]


@dataclass(frozen=True)
class Candidates:
    """All parity-even completions of the unknowns, as (class, disc) pairs
    ordered by |disc| then sign."""

    items: tuple


@dataclass(frozen=True)
class UnderDetermined:
    """Too many free places to enumerate; lists them."""

    unknowns: tuple


@dataclass(frozen=True)
class DeductionReport:
    sheet_id: str
    statuses: dict
    result: Union[Unique, Candidates, UnderDetermined]
    trace: tuple


_CIT_INF = "the archimedean place ramifies in Delta(chi) iff degree == 2 mod 4"
_CIT_SPLIT = (
    "a quaternion class split by L cannot ramify at a place that splits in L;"
    " with local Schur index 1 the invariant lattice stays self-dual there"
)
_CIT_STABLE = (
    "a unitary stable reduction at an inert prime p admits a p-unimodular"
    " invariant lattice, so p does not ramify"
)
_CIT_DEFECT = (
    "in a p-block of defect one, p ramifies in Delta(chi) iff the reduction"
    " mod p is not unitary stable"
)
_CIT_ORTH_SQ = (
    "mod a ramified odd prime p the reduction is orthogonally stable and"
    " disc(chi) reduces onto its discriminant; a square verdict keeps p"
    " unramified"
)
_CIT_ORTH_NSQ = (
    "mod a ramified odd prime p the reduction is orthogonally stable and"
    " disc(chi) reduces onto its discriminant; a nonsquare verdict forces p"
    " to ramify"
)
_CIT_CENTER4 = (
    "a faithful character of a perfect group whose center order is divisible"
    " by 4 takes values in a field where odd places cannot ramify"
)
_CIT_CENTER2 = (
    "for a perfect group with even center, an odd prime p ramified in L"
    " ramifies in Delta(chi) iff (-1)^(d/2) is a nonsquare mod p, where d is"
    " the mod-4 dimension sum of the orthogonal constituents"
)
_CIT_Q8 = (
    "a quaternion subgroup through the central involution restricts every"
    " faithful character to multiples of its symplectic character, giving"
    " Delta(chi) = [(-1,-1)]^(degree/2)"
)
_CIT_RESTRICTION = (
    "Delta(chi) is the product of the constituent contributions of a unitary"
    " stable restriction"
)
_CIT_INDUCTION = (
    "a unitary stable induced character multiplies the class of psi by the"
    " parity of the subgroup index"
)
_CIT_TENSOR = "Delta(chi tensor psi) = Delta(chi)^deg(psi) when the product is unitary stable"
_CIT_ALPHA = (
    "the discriminant of the alpha-fixed Hermitian space determines disc(chi)"
    " as ldisc(q)^m times the alpha-discriminant"
)
_CIT_PARITY = "a quaternion class over Q ramifies at an even number of places"


class _Assignment:
    """Mutable status map that records which rule decided each place."""

    def __init__(self, places):
        self.statuses = {v: PlaceStatus.UNKNOWN for v in places}
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
    primes = {2} | set(sheet.group_order_factors)
    return [INF] + sorted(primes)


def _local_assignment(sheet: CharacterFactSheet) -> _Assignment:
    asg = _Assignment(candidate_places(sheet))
    L = sheet.field
    finite = [v for v in asg.statuses if v != INF]
    behaviour = {p: prime_behavior(L, p) for p in finite}

    inf_status = PlaceStatus.RAMIFIED if sheet.degree % 4 == 2 else PlaceStatus.UNRAMIFIED
    asg.assign(INF, inf_status, "infinite place parity", _CIT_INF)

    if sheet.split_schur_trivial:
        for p in finite:
            if behaviour[p] == PrimeBehavior.SPLIT:
                asg.assign(p, PlaceStatus.UNRAMIFIED, "split place", _CIT_SPLIT)

    for f in sheet.mod_facts:
        if f.p not in asg.statuses:
            continue
        b = behaviour[f.p]
        if b == PrimeBehavior.INERT:
            if f.status in (FactStatus.IRREDUCIBLE, FactStatus.UNITARY_STABLE):
                asg.assign(f.p, PlaceStatus.UNRAMIFIED, "inert stable reduction", _CIT_STABLE)
            elif f.status == FactStatus.NOT_UNITARY_STABLE and f.defect_one:
                asg.assign(f.p, PlaceStatus.RAMIFIED, "defect one block", _CIT_DEFECT)
        elif b == PrimeBehavior.RAMIFIED and f.p != 2:
            if f.status == FactStatus.ORTH_SQUARE:
                asg.assign(
                    f.p, PlaceStatus.UNRAMIFIED, "orthogonal discriminant square", _CIT_ORTH_SQ
                )
            elif f.status == FactStatus.ORTH_NONSQUARE:
                asg.assign(
                    f.p, PlaceStatus.RAMIFIED, "orthogonal discriminant nonsquare", _CIT_ORTH_NSQ
                )

    s = sheet.structural
    if s is not None:
        if s.perfect and s.faithful and s.center_order % 4 == 0:
            for p in finite:
                if p != 2:
                    asg.assign(p, PlaceStatus.UNRAMIFIED, "center of order four", _CIT_CENTER4)
        if s.perfect and s.center_order % 2 == 0:
            for p in sorted(s.orth_dim_sum_mod4):
                if p == 2 or p not in asg.statuses:
                    continue
                if behaviour[p] != PrimeBehavior.RAMIFIED:
                    continue
                d = s.orth_dim_sum_mod4[p]
                sign = -1 if d == 2 else 1
                want = PlaceStatus.RAMIFIED if legendre(sign, p) == -1 else PlaceStatus.UNRAMIFIED
                asg.assign(p, want, "center order two", _CIT_CENTER2)
        if s.q8_subgroup:
            asg.assign_class(q8_class(sheet.degree, L), "quaternion subgroup", _CIT_Q8)

    return asg


def apply_local_rules(sheet: CharacterFactSheet) -> dict:
    """Status of every candidate place after the purely local rules."""
    return dict(_local_assignment(sheet).statuses)


def parity_close(statuses: dict) -> dict:
    """Close a status map under even ramification: a single free place is
    forced, and no free place with an odd ramified count is a contradiction."""
    closed = dict(statuses)
    unknowns = [v for v, s in closed.items() if s is PlaceStatus.UNKNOWN]
    ram = sum(1 for s in closed.values() if s is PlaceStatus.RAMIFIED)
    if len(unknowns) == 1:
        closed[unknowns[0]] = PlaceStatus.RAMIFIED if ram % 2 else PlaceStatus.UNRAMIFIED
    elif not unknowns and ram % 2:
        raise DeduceError(
            "parity violation: an odd number of places ramifies and no place is free"
        )
    return closed


def _apply_relations(sheet: CharacterFactSheet, asg: _Assignment):
    for rel in sheet.relations:
        if isinstance(rel, RestrictionRelation):
            cls = combine_restriction(sheet.field, rel.constituents)
            asg.assign_class(cls, "restriction to subgroup", _CIT_RESTRICTION)
        elif isinstance(rel, InductionRelation):
            cls = combine_induction(rel.psi_delta, rel.index, rel.field_degree_odd)
            asg.assign_class(cls, "induction from subgroup", _CIT_INDUCTION)
        elif isinstance(rel, TensorRelation):
            cls = combine_tensor(rel.delta_chi, rel.psi_degree)
            asg.assign_class(cls, "tensor factorisation", _CIT_TENSOR)
        else:
            raise DeduceError(f"unknown relation record: {rel!r}")
    if sheet.alpha_facts is not None:
        a = sheet.alpha_facts
        rep = alpha_combine(a.q_class, a.m, a.alpha_disc, a.indicator_ext, sheet.field)
        cls = from_pair(sheet.field.field_disc, rep)
        asg.assign_class(cls, "alpha fixed algebra", _CIT_ALPHA)


def resolve(sheet: CharacterFactSheet) -> DeductionReport:
    """Run the full pipeline on one sheet.

    Local rules first, then globally combined classes, then parity closure.
    Zero unknowns yield a Unique result (with the minimal squarefree
    discriminant representative when chi is quasi-split). Up to
    _MAX_FREE_PLACES unknowns yield the enumerated Candidates; more yield
    UnderDetermined.
    """
    L = sheet.field
    asg = _local_assignment(sheet)
    _apply_relations(sheet, asg)

    closed = parity_close(asg.statuses)
    for v, status in closed.items():
        if asg.statuses[v] is PlaceStatus.UNKNOWN and status is not PlaceStatus.UNKNOWN:
            asg.assign(v, status, "parity closure", _CIT_PARITY)

    statuses = asg.statuses
    unknowns = sorted(
        (v for v, s in statuses.items() if s is PlaceStatus.UNKNOWN), key=place_sort_key
    )
    if not unknowns:
        ram = frozenset(v for v, s in statuses.items() if s is PlaceStatus.RAMIFIED)
        cls = BrauerClassQ(ram)
        disc = l_disc(cls, L) if sheet.quasi_split else None
        result = Unique(cls, disc)
    elif len(unknowns) > _MAX_FREE_PLACES:
        result = UnderDetermined(tuple(unknowns))
    else:
        base = {v for v, s in statuses.items() if s is PlaceStatus.RAMIFIED}
        items = []
        for mask in range(1 << len(unknowns)):
            ram = base | {unknowns[i] for i in range(len(unknowns)) if mask >> i & 1}
            if len(ram) % 2:
                continue
            if any(
                v != INF and prime_behavior(L, v) == PrimeBehavior.SPLIT for v in ram
            ):
                continue
            cls = BrauerClassQ(frozenset(ram))
            items.append((cls, l_disc(cls, L)))
        items.sort(key=lambda item: (abs(item[1]), item[1] < 0))
        if not sheet.quasi_split:
            items = [(cls, None) for cls, _ in items]
        result = Candidates(tuple(items))

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


def combine_induction(
    psi_delta: BrauerClassQ, index: int, field_degree_odd: bool
) -> BrauerClassQ:
    """Class of an induced character: trivial for even subgroup index, the
    (already corestricted) class of psi for odd index. Needs an odd relative
    degree between the character fields."""
    if not field_degree_odd:
        raise DeduceError(
            "no conclusion (even relative field degree gives only local information)"
        )
    if index % 2 == 0:
        return BrauerClassQ(frozenset())
    return psi_delta


def combine_tensor(delta_chi: BrauerClassQ, psi_degree: int) -> BrauerClassQ:
    """Class of a unitary stable tensor product chi x psi."""
    return delta_chi.pow(psi_degree)


def alpha_combine(
    q_class: BrauerClassQ,
    m: int,
    alpha_disc: Rational,
    indicator_ext: str,
    L: ImagQuadField,
) -> int:
    """Discriminant representative from an alpha-fixed Hermitian space:
    ldisc(q_class)^m times alpha_disc for an orthogonal extension, and
    ldisc(q_class)^m alone for a symplectic one."""
    if indicator_ext not in ("+", "-"):
        raise ValueError(f"extension indicator must be '+' or '-', got {indicator_ext!r}")
    base = l_disc(q_class, L)
    t = base if m % 2 else 1
    if indicator_ext == "-":
        return t
    return l_disc(from_pair(L.field_disc, t * alpha_disc), L)


def q8_class(degree: int, L: ImagQuadField) -> BrauerClassQ:
    """Class [(-1,-1)]^(degree/2) of a faithful character of a group with a
    quaternion subgroup through the central involution. The class lives over
    Q; L only records the character field for reporting."""
    if degree % 2:
        raise ValueError(f"degree must be even, got {degree}")
    return from_pair(-1, -1).pow(degree // 2)
