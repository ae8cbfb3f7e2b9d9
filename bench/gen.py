"""Seeded inputs: fact sheets that grow in places, Gram forms that grow in n.

Every input is a fact-file JSON document of the kind a user hands to
`udisc deduce` or `udisc hform`. Beside each file the generator keeps what
it planted (the ramification set, the free places, the matrix), which the
checks compare udisc's answers with. udisc itself never sees that record.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import INF

# fields Q(sqrt(-d0)) for the sheets: 2 ramifies for 1, 2, 10; is inert for
# 3, 11; splits for 7, 15
SHEET_FIELDS = (1, 2, 3, 7, 10, 11, 15)
# the fields of acceptance criterion 6
FORM_FIELDS = (1, 2, 3, 5, 7, 10, 15)
# the fields of acceptance criterion 8
NORM_FIELDS = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)
PRIME_POOL = [p for p in range(3, 150) if oracle.is_prime(p)]


def _sheet_doc(rng, fid, d0, ram, free, n_split, n_unram):
    """A sheet whose facts decide every place but `free` (and 2 when 2
    does not split in L, which parity then closes unless 2 is free)."""
    beh = {p: oracle.behaviour(d0, p) for p in PRIME_POOL}
    used = {v for v in ram | set(free) if v != INF}
    nonsplit = [p for p in PRIME_POOL if beh[p] != "split" and p not in used]
    split = [p for p in PRIME_POOL if beh[p] == "split"]
    unram = rng.sample(nonsplit, n_unram)
    odd = sorted((used | set(unram)) - {2})
    facts = []
    for p in odd:
        if p in free:
            continue
        if beh[p] == "inert":
            if p in ram:
                facts.append({"p": p, "status": "NotUnitaryStable", "defect_one": True})
            else:
                facts.append({"p": p, "status": rng.choice(["Irreducible", "UnitaryStable"])})
        else:
            facts.append({"p": p, "status": "OrthNonsquare" if p in ram else "OrthSquare"})
    rng.shuffle(facts)
    primes = sorted(set(odd) | set(rng.sample(split, n_split)) | {2})
    order = {str(p): rng.randint(1, 12) for p in primes}
    half = rng.randint(1, 5000)
    degree = 2 * (2 * half + 1) if INF in ram else 4 * half
    return {
        "id": fid,
        "character": {
            "degree": degree,
            "delta0": d0,
            "group_order_factors": order,
            "mod_facts": facts,
        },
    }


def unique_sheet(rng, fid, d0, k, with_inf, pick=None):
    """A sheet whose unique answer ramifies at k places.

    `pick` draws the ramified primes (default `rng`); the rest of the sheet
    (split primes, exponents, degree, fact order) always comes from `rng`.
    """
    pick = pick or rng
    beh2 = oracle.behaviour(d0, 2)
    nonsplit = [p for p in PRIME_POOL if oracle.behaviour(d0, p) != "split"]
    # 2 has no local rule unless it splits, so parity decides it: plant it
    # in the set exactly when the other planted places are odd in number
    n_odd = k - with_inf
    ram = set(pick.sample(nonsplit, n_odd)) | ({INF} if with_inf else set())
    if beh2 != "split" and pick.random() < 0.5:
        ram.remove(max(v for v in ram if v != INF))
        ram.add(2)
    ram = frozenset(ram)
    doc = _sheet_doc(rng, fid, d0, ram, [], n_split=rng.randint(1, 3), n_unram=rng.randint(1, 2))
    meta = {"kind": "unique", "d0": d0, "ram": ram, "degree": doc["character"]["degree"]}
    return doc, meta


def candidate_sheet(rng, fid, d0, u, n_base, pick=None):
    """A sheet that leaves u places free, so the answer is a candidate list.

    `pick` draws the free and base primes (default `rng`).
    """
    pick = pick or rng
    beh2 = oracle.behaviour(d0, 2)
    nonsplit = [p for p in PRIME_POOL if oracle.behaviour(d0, p) != "split"]
    free = [2] if beh2 != "split" else []
    n_free_odd = u - len(free)
    chosen = pick.sample(nonsplit, n_free_odd + n_base)
    free += chosen[:n_free_odd]
    base = frozenset(chosen[n_free_odd:])
    if rng.random() < 0.5:
        base |= {INF}
    doc = _sheet_doc(rng, fid, d0, base, free, n_split=rng.randint(1, 3),
                     n_unram=rng.randint(1, 2))
    meta = {"kind": "candidates", "d0": d0, "base": base, "free": sorted(free),
            "degree": doc["character"]["degree"]}
    return doc, meta


def _cell(x: Fraction, y: Fraction):
    return [x.numerator, x.denominator, y.numerator, y.denominator]


def form(rng, fid, d0, n, dense, pick=None):
    """A positive definite Gram matrix, built as acceptance criterion 6
    builds its random forms: a rational diagonal, or strict diagonal
    dominance around small off-diagonal entries.

    `pick` draws the matrix (default `rng`). `rng` then changes the basis by
    a diagonal matrix of signs (dense) or a permutation (diagonal), which
    keeps the invariants, and the numbers factored to get them, as they are.
    """
    pick = pick or rng
    zero = (Fraction(0), Fraction(0))
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        if dense:
            rows[i][i] = (Fraction(pick.randint(13, 20)), Fraction(0))
            for j in range(i + 1, n):
                x = Fraction(pick.randint(-1, 1), pick.randint(1, 2))
                y = Fraction(pick.randint(-1, 1), pick.randint(1, 2))
                rows[i][j] = (x, y)
                rows[j][i] = (x, -y)
        else:
            rows[i][i] = (Fraction(pick.randint(1, 20), pick.randint(1, 20)), Fraction(0))
    if pick is not rng and dense:
        signs = [rng.choice([-1, 1]) for _ in range(n)]
        rows = [[(signs[i] * signs[j] * x, signs[i] * signs[j] * y)
                 for j, (x, y) in enumerate(row)] for i, row in enumerate(rows)]
    elif pick is not rng:
        diag = [rows[i][i] for i in range(n)]
        rng.shuffle(diag)
        for i in range(n):
            rows[i][i] = diag[i]
    doc = {"id": fid, "gram": {"delta0": d0,
                               "entries": [[_cell(*c) for c in r] for r in rows]}}
    return doc, {"kind": "form", "d0": d0, "n": n, "entries": rows}


def _rational(rng, bound):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, bound), rng.randint(1, bound))


def cli_mix(rng, files):
    """The argument lists of one cli round and what each should answer.

    `files` maps a role (unique, candidates, form) to a generated fact file.
    """
    a, b = _rational(rng, 10 ** 4), _rational(rng, 10 ** 4)
    p = rng.choice(oracle.places_of(a, b)[1:])
    n, d0 = rng.choice([-1, 1]) * rng.randint(1, 200), rng.choice(NORM_FIELDS)
    m, e0 = rng.randint(1, 200), rng.choice(NORM_FIELDS)
    return [
        (["symbol", str(a), str(b)], {"kind": "symbol", "a": a, "b": b}),
        (["--json", "symbol", str(a), str(b)], {"kind": "symbol", "a": a, "b": b}),
        (["symbol", str(b), str(a), str(p)], {"kind": "symbol", "a": b, "b": a, "place": p}),
        (["isnorm", str(n), str(d0)], {"kind": "isnorm", "a": n, "d0": d0}),
        (["--json", "isnorm", str(m), str(e0)], {"kind": "isnorm", "a": m, "d0": e0}),
        (["deduce", files["unique"]], {"kind": "deduce", "role": "unique"}),
        (["--json", "deduce", files["unique"]], {"kind": "deduce", "role": "unique"}),
        (["--json", "deduce", files["candidates"]], {"kind": "deduce", "role": "candidates"}),
        (["hform", files["form"]], {"kind": "hform", "role": "form"}),
        (["corpus"], {"kind": "corpus"}),
    ]


def write(directory: Path, doc) -> str:
    path = directory / (doc["id"] + ".json")
    path.write_text(json.dumps(doc))
    return str(path)


# Ladders of the sheets and forms workloads: (shape, size, fields). The cost
# of one answer swings several-fold with the exact primes or matrix: the
# pair search of the text report may need auxiliary primes, each candidate
# runs its own l_disc search, and the transfer product may be hard to
# factor. So a fixed stream per (shape, size, field) draws the part that
# sets the cost (the ramified and free primes, the matrix), and the seed
# draws the rest of the file. The "-probe" ladders hold points whose one
# answer costs longer than a whole pass; only the traced run's layer probes
# use them.
PROFILES = {
    "full": {
        "sheets": [
            ("unique", 2, SHEET_FIELDS),
            ("unique", 4, SHEET_FIELDS),
            ("unique", 6, (1, 3, 7)),
            ("candidates", 2, SHEET_FIELDS),
            ("candidates", 3, SHEET_FIELDS),
            ("candidates", 4, SHEET_FIELDS),
            ("candidates", 5, (1, 3, 7)),
            ("candidates", 7, (1,)),
            ("candidates", 9, (1,)),
        ],
        "sheets-probe": [("unique", 8, (3,))],
        "forms": [
            ("diag", 8, FORM_FIELDS),
            ("dense", 6, FORM_FIELDS),
            ("dense", 10, (1, 3, 7)),
        ],
        "forms-probe": [
            ("dense", 4, (1, 3, 7)),
            ("dense", 8, (1, 3, 7)),
            ("dense", 12, (1, 2)),
        ],
    },
    "tiny": {
        "sheets": [
            ("unique", 2, (1, 3)),
            ("unique", 4, (7,)),
            ("candidates", 2, (1,)),
            ("candidates", 3, (3,)),
        ],
        "sheets-probe": [("unique", 6, (1,))],
        "forms": [
            ("diag", 2, (1,)),
            ("dense", 3, (3,)),
            ("dense", 4, (7,)),
        ],
        "forms-probe": [("dense", 5, (2,))],
    },
}


def _anchor(shape, size, d0):
    return random.Random("udisc-bench-anchor:%s:%d:%d" % (shape, size, d0))


def sheets(rng, profile, directory: Path, ladder="sheets") -> list:
    items = []
    for shape, size, fields in PROFILES[profile][ladder]:
        for d0 in fields:
            fid = "%s_%s%d_q%d" % (shape, "k" if shape == "unique" else "u", size, d0)
            pick = _anchor(shape, size, d0)
            if shape == "unique":
                doc, meta = unique_sheet(rng, fid, d0, size, pick.random() < 0.5, pick)
            else:
                # every base place doubles the work of each candidate
                doc, meta = candidate_sheet(rng, fid, d0, size, 1 if size <= 5 else 0, pick)
            items.append({"id": fid, "path": write(directory, doc), "meta": meta})
    return items


def forms(rng, profile, directory: Path, ladder="forms") -> list:
    items = []
    for shape, n, fields in PROFILES[profile][ladder]:
        for d0 in fields:
            fid = "%s_n%d_q%d" % (shape, n, d0)
            pick = _anchor(shape, n, d0)
            doc, meta = form(rng, fid, d0, n, shape == "dense", pick)
            items.append({"id": fid, "path": write(directory, doc), "meta": meta})
    return items


def cli_inputs(rng, directory: Path) -> list:
    docs = {
        "unique": unique_sheet(rng, "cli_unique", rng.choice(SHEET_FIELDS), 2, rng.random() < 0.5),
        "candidates": candidate_sheet(rng, "cli_candidates", rng.choice(SHEET_FIELDS), 3, 1),
        "form": form(rng, "cli_form", rng.choice(FORM_FIELDS), 4, True),
    }
    files = {role: write(directory, doc) for role, (doc, _) in docs.items()}
    mix = []
    for argv, spec in cli_mix(rng, files):
        if "role" in spec:
            spec["meta"] = docs[spec["role"]][1]
        spec["json"] = "--json" in argv
        mix.append({"argv": argv, "spec": spec})
    return mix
