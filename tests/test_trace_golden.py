"""The trace of `resolve` on generated sheets matches a committed golden file.

The sheets are drawn with `random.Random(SEED)` from the fields and primes
of test_resolve_reference.py, so the draws do not depend on a library
version. For each sheet the golden file holds one JSON line: the
(place, rule) trace, or the `DeduceError` message, or for any other
`ValueError` only its type, because some of those messages print sets in
hash order. The trace order and the rule named in a contradiction are what
this pins; the statuses and results are checked by the reference test.

Rewrite the golden file only for an intended trace change:

    PYTHONPATH=src python tests/test_trace_golden.py
"""
import json
import random
import traceback
from pathlib import Path

from udisc.brauer import BrauerClassQ
from udisc.deduce import (
    AlphaFacts,
    CharacterFactSheet,
    Constituent,
    DeduceError,
    FactStatus,
    InductionRelation,
    ModFact,
    RestrictionRelation,
    Structural,
    TensorRelation,
    resolve,
)
from udisc.quadfield import ImagQuadField, PrimeBehavior, prime_behavior
from udisc.symbols import INF

SEED = 16
SHEETS = 400
GOLDEN = Path(__file__).with_name("trace_golden.jsonl")
FIELDS = [ImagQuadField(d) for d in (1, 2, 3, 5, 7, 15)]
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
# a prime outside every sheet's candidate places, for external facts
OUTSIDE = 29
ORTH = (FactStatus.ORTH_SQUARE, FactStatus.ORTH_NONSQUARE)


def draw_sheet(rng):
    L = rng.choice(FIELDS)
    primes = rng.sample(PRIMES, rng.randint(1, 6))
    finite = sorted({2, *primes})
    places = [INF] + finite

    def cls():
        ram = set(rng.sample(places, rng.randint(0, min(4, len(places)))))
        if len(ram) % 2:
            ram ^= {places[0]}
        return BrauerClassQ(ram)

    facts = []
    for _ in range(rng.randint(0, 5)):
        p = rng.choice(finite + [OUTSIDE])
        statuses = [s for s in FactStatus if s not in ORTH
                    or prime_behavior(L, p) is PrimeBehavior.RAMIFIED]
        facts.append(ModFact(p, rng.choice(statuses), defect_one=rng.random() < 0.5,
                             external=p not in primes))
    structural = None
    if rng.random() < 0.5:
        pool = finite + [OUTSIDE]
        keys = rng.sample(pool, min(rng.randint(0, 3), len(pool)))
        structural = Structural(
            q8_subgroup=rng.random() < 0.25,
            perfect=rng.random() < 0.5,
            center_order=rng.choice([1, 2, 4, 6]),
            orth_dim_sum_mod4={p: rng.choice([0, 2]) for p in keys},
            faithful=rng.random() < 0.5,
        )
    relations = []
    if rng.random() < 1 / 6:
        relations.append(RestrictionRelation([
            Constituent(rng.choice("+-o"), rng.randint(1, 6), mult=rng.randint(1, 2),
                        brauer_class=cls(), ortho_disc=rng.choice([1, -1, 2, -3, 5, 6, -7]),
                        delta_class=cls(), hyperbolic=rng.random() < 0.2)
            for _ in range(rng.randint(1, 3))]))
    if rng.random() < 1 / 6:
        relations.append(InductionRelation(cls(), rng.randint(1, 3), rng.random() < 0.8))
    if rng.random() < 1 / 6:
        relations.append(TensorRelation(cls(), rng.randint(1, 3)))
    alpha = None
    if rng.random() < 1 / 6:
        alpha = AlphaFacts(cls(), rng.randint(1, 3), rng.choice([1, -1, 2, -3, 5, 7, -15]),
                           rng.choice("+-"))
    return CharacterFactSheet(
        id="golden",
        degree=rng.choice([2, 4, 6, 8]),
        field=L,
        group_order_factors={p: 1 for p in primes},
        quasi_split=rng.random() < 0.5,
        split_schur_trivial=rng.random() < 0.5,
        mod_facts=facts,
        structural=structural,
        alpha_facts=alpha,
        relations=relations,
    )


def outcome(rng):
    """What resolve makes of the next drawn sheet."""
    try:
        report = resolve(draw_sheet(rng))
    except DeduceError as e:
        return {"error": str(e)}
    except ValueError as e:
        return {"refused": type(e).__name__}
    return {"trace": [[str(t.place), t.rule] for t in report.trace]}


def outcomes():
    rng = random.Random(SEED)
    return [outcome(rng) for _ in range(SHEETS)]


def test_golden_covers_every_outcome():
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(golden) == SHEETS
    assert {next(iter(o)) for o in golden} == {"trace", "error", "refused"}


def test_draws_fail_only_in_constructors():
    # a refused sheet is one a udisc constructor rejects, never a failed draw
    rng = random.Random(SEED)
    for i in range(SHEETS):
        try:
            draw_sheet(rng)
        except ValueError as e:
            where = traceback.extract_tb(e.__traceback__)[-1].filename
            assert Path(where).parent.name == "udisc", "sheet %d: %s" % (i, e)


def test_traces_match_golden():
    golden = GOLDEN.read_text().splitlines()
    for i, (want, got) in enumerate(zip(golden, outcomes())):
        assert json.dumps(got) == want, "sheet %d" % i


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(o) + "\n" for o in outcomes()))
