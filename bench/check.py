"""Checks of udisc's outputs against the oracles and the planted facts.

Each check returns a list of problems; an empty list means the output is
right. Checks read only the rendered text and JSON a user would see.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import oracle
from oracle import INF

_UNIQUE = re.compile(r"disc = (n/a|-?\d+), Delta = \((-?\d+),(-?\d+)\)_Q, ram\{(.*)\}$")
_CANDS = re.compile(r"candidates = \{(.*)\}$")
_HFORM = re.compile(r"disc=(-?\d+) ram\{(.*)\} clifford=(OK|MISMATCH)$")
_TRANSFER = re.compile(r"transfer dim=(\d+) disc=(-?\d+) signature=\((\d+),(\d+)\) definite=(true|false)$")


def _place(v):
    if v == INF:
        return INF
    return int(v)


def _places(items) -> frozenset:
    return frozenset(_place(v) for v in items)


def _parse_ram(s: str) -> frozenset:
    return _places(s.split(",")) if s else frozenset()


def render(cls) -> str:
    return "ram{" + ",".join(str(v) for v in sorted(cls, key=oracle.place_key)) + "}"


# representatives up to this |t| are checked for minimality by brute force
REPS_BOUND = 3000


class Context:
    """Per-field tables of minimal discriminant representatives."""

    def __init__(self):
        self._reps = {}

    def reps(self, d0):
        if d0 not in self._reps:
            self._reps[d0] = oracle.MinimalReps(d0, REPS_BOUND)
        return self._reps[d0]


def check_disc(ctx, d0, cls, t, what="disc") -> list:
    """t is the minimal signed squarefree t with (field_disc, t)_Q = cls."""
    if t == 0 or oracle.squarefree_part(t) != t:
        return ["%s %s is not a signed squarefree integer" % (what, t)]
    got = oracle.pair_class(oracle.field_disc(d0), t)
    if got != cls:
        return ["%s %d gives %s, not %s" % (what, t, render(got), render(cls))]
    if not ctx.reps(d0).is_minimal(cls, t):
        return ["%s %d is not the minimal representative of %s" % (what, t, render(cls))]
    return []


def check_class_shape(d0, cls, degree) -> list:
    out = []
    if len(cls) % 2:
        out.append("%s has odd size" % render(cls))
    split = [v for v in cls if v != INF and oracle.behaviour(d0, v) == "split"]
    if split:
        out.append("%s ramifies at split places %s" % (render(cls), split))
    if degree is not None and (INF in cls) != (degree % 4 == 2):
        out.append("inf ramified is %s for degree %d" % (INF in cls, degree))
    return out


def _trace_lines(js_trace):
    return ["  %s - %s - %s" % (p, r, c) for p, r, c in js_trace]


def parse_unique_line(line):
    """(disc, a, b, ram) from "disc = t, Delta = (a,b)_Q, ram{...}", or None."""
    m = _UNIQUE.match(line)
    if not m:
        return None
    disc = None if m.group(1) == "n/a" else int(m.group(1))
    return disc, int(m.group(2)), int(m.group(3)), _parse_ram(m.group(4))


def check_sheet_text(text, want: dict) -> list:
    """The text report shows the same answer as `want`, a parsed JSON report."""
    lines = text.split("\n")
    out = []
    if want["kind"] == "unique":
        parsed = parse_unique_line(lines[0])
        if parsed is None:
            return ["unparsable unique line %r" % lines[0]]
        disc, a, b, ram = parsed
        if disc != want["disc"] or ram != _places(want["ram"]):
            out.append("text answer %r differs from JSON" % lines[0])
        if oracle.pair_class(a, b) != ram:
            out.append("displayed (%d,%d)_Q is %s, not %s"
                       % (a, b, render(oracle.pair_class(a, b)), render(ram)))
        body = lines[1:]
    else:
        m = _CANDS.match(lines[0])
        discs = [it["disc"] for it in want["items"]]
        if not m or m.group(1) != ", ".join(str(d) for d in discs):
            return ["text candidate line %r differs from JSON" % lines[0]]
        rows = ["  %s %s" % (it["disc"], render(_places(it["ram"]))) for it in want["items"]]
        if lines[1:1 + len(rows)] != rows:
            out.append("text candidate rows differ from JSON")
        body = lines[1 + len(rows):]
    if body != ["trace:"] + _trace_lines(want["trace"]):
        out.append("text trace differs from JSON trace")
    return out


def check_unique(ctx, meta, js: dict) -> list:
    """A generated sheet's unique answer is the planted class."""
    d0, ram = meta["d0"], meta["ram"]
    if js.get("kind") != "unique":
        return ["expected a unique answer, got %s" % js.get("kind")]
    got = _places(js["ram"])
    out = check_class_shape(d0, got, meta["degree"])
    if got != ram:
        out.append("answer %s, planted %s" % (render(got), render(ram)))
    return out + check_disc(ctx, d0, ram, js["disc"])


def check_candidates(ctx, meta, js: dict) -> list:
    """A generated sheet's candidate list is every even completion of the
    planted base by the free places, ordered by |disc| then sign."""
    d0 = meta["d0"]
    if js.get("kind") != "candidates":
        return ["expected candidates, got %s" % js.get("kind")]
    want = set(oracle.candidate_classes(meta["base"], meta["free"]))
    got = [_places(it["ram"]) for it in js["items"]]
    out = []
    if len(set(got)) != len(got) or set(got) != want:
        out.append("candidate classes differ from the %d the facts allow" % len(want))
    for it, cls in zip(js["items"], got):
        out += check_class_shape(d0, cls, meta["degree"])
        out += check_disc(ctx, d0, cls, it["disc"], "candidate disc")
    discs = [it["disc"] for it in js["items"]]
    if discs != sorted(discs, key=lambda t: (abs(t), t < 0)):
        out.append("candidates are not ordered by |disc| then sign")
    return out


def check_expected(exp: dict, js: dict) -> list:
    """A corpus row's answer equals its published `expected` block."""
    if exp["kind"] in ("unique", "hform"):
        if js.get("kind") != "unique":
            return ["expected unique, got %s" % js.get("kind")]
        if js["disc"] != exp["disc"] or _places(js["ram"]) != _places(exp["ram"]):
            return ["got disc %s %s, published %s %s" % (
                js["disc"], render(_places(js["ram"])), exp["disc"],
                render(_places(exp["ram"])))]
        return []
    got = [it["disc"] for it in js.get("items") or []]
    if js.get("kind") != "candidates" or got != exp["discs"]:
        return ["got %s %s, published candidates %s" % (js.get("kind"), got, exp["discs"])]
    return []


def check_sheet(ctx, meta, text, js_text) -> list:
    js = json.loads(js_text)
    if meta["kind"] == "unique":
        out = check_unique(ctx, meta, js)
    elif meta["kind"] == "candidates":
        out = check_candidates(ctx, meta, js)
    else:
        out = check_expected(meta["expected"], js)
        if js.get("kind") == "unique":
            out += check_disc(ctx, meta["d0"], _places(js["ram"]), js["disc"])
    if text is not None:
        out += check_sheet_text(text, js)
    return out


def form_truth(meta) -> dict:
    """What the oracles say about a Gram matrix: Delta, transfer invariants."""
    d0, n, entries = meta["d0"], meta["n"], meta["entries"]
    x, y = oracle.determinant(entries, d0)
    if y != 0:
        raise ValueError("a Hermitian determinant must be rational")
    signed = -x if (n * (n - 1) // 2) % 2 else x
    coeffs = []
    for a in oracle.pivots(entries, d0):
        coeffs += [a, d0 * a]
    return {
        "ram": oracle.pair_class(oracle.field_disc(d0), signed),
        "transfer_disc": oracle.squarefree_part(Fraction((-d0) ** n)),
        "coeffs": coeffs,
        "positive": all(c > 0 for c in coeffs),
    }


def check_form(ctx, meta, truth, js: dict) -> list:
    d0, n = meta["d0"], meta["n"]
    if js.get("kind") != "unique" or not js.get("transfer"):
        return ["expected an hform report, got %s" % js.get("kind")]
    t = js["transfer"]
    out = []
    ram = _places(js["ram"])
    if ram != truth["ram"]:
        out.append("Delta %s, oracle determinant gives %s" % (render(ram), render(truth["ram"])))
    out += check_disc(ctx, d0, truth["ram"], js["disc"])
    if not t["clifford_ok"]:
        out.append("clifford_ok is false")
    if t["dim"] != 2 * n or t["signature"] != [2 * n, 0] or t["definite"] is not truth["positive"]:
        out.append("transfer dim %s signature %s definite %s for a definite form of n=%d"
                   % (t["dim"], t["signature"], t["definite"], n))
    if t["disc"] != truth["transfer_disc"]:
        out.append("transfer disc %d, want squarefree part of (-%d)^%d = %d"
                   % (t["disc"], d0, n, truth["transfer_disc"]))
    prod = 1
    for v, s in t["hasse"].items():
        want = oracle.hasse(truth["coeffs"], _place(v))
        prod *= s
        if s != want:
            out.append("hasse symbol at %s is %d, oracle %d" % (v, s, want))
    if prod != 1:
        out.append("hasse symbols break the product formula")
    if "expected" in meta:
        out += check_expected(meta["expected"], js)
    return out


def check_form_text(text, js: dict) -> list:
    lines = text.split("\n")
    t = js["transfer"]
    want = [
        "disc=%d %s clifford=%s" % (js["disc"], render(_places(js["ram"])),
                                    "OK" if t["clifford_ok"] else "MISMATCH"),
        "transfer dim=%d disc=%d signature=(%d,%d) definite=%s"
        % (t["dim"], t["disc"], t["signature"][0], t["signature"][1],
           "true" if t["definite"] else "false"),
        "hasse " + " ".join("%s:%d" % (v, s) for v, s in t["hasse"].items()),
    ]
    return [] if lines == want else ["text hform report differs from JSON"]


def form_json_from_text(text) -> dict | None:
    """Rebuild the JSON-shaped report from `udisc hform` text output."""
    lines = text.strip("\n").split("\n")
    if len(lines) != 3:
        return None
    m1, m2 = _HFORM.match(lines[0]), _TRANSFER.match(lines[1])
    if not m1 or not m2 or not lines[2].startswith("hasse "):
        return None
    hasse = {}
    for tok in lines[2][len("hasse "):].split():
        v, s = tok.rsplit(":", 1)
        hasse[v] = int(s)
    return {
        "kind": "unique", "disc": int(m1.group(1)),
        "ram": sorted(_parse_ram(m1.group(2)), key=oracle.place_key),
        "transfer": {"dim": int(m2.group(1)), "disc": int(m2.group(2)),
                     "signature": [int(m2.group(3)), int(m2.group(4))],
                     "definite": m2.group(5) == "true", "hasse": hasse,
                     "clifford_ok": m1.group(3) == "OK"},
    }


def check_symbol(spec, rc, out) -> list:
    """Hilbert symbols against the oracle and the product formula."""
    a, b = spec["a"], spec["b"]
    if rc != 0:
        return ["symbol exited %d" % rc]
    if spec.get("json"):
        doc = json.loads(out)
        if doc["a"] != str(a) or doc["b"] != str(b):
            return ["symbol echoes %s, %s" % (doc["a"], doc["b"])]
        values = list(doc["values"].items())
    else:
        values = [tok.rsplit(":", 1) for tok in out.split()]
    got = [(_place(v), int(s)) for v, s in values]
    places = [spec["place"]] if "place" in spec else oracle.places_of(a, b)
    if [v for v, _ in got] != places:
        return ["symbol places %s, want %s" % ([v for v, _ in got], places)]
    out_ = ["(%s,%s)_%s = %d, oracle %d" % (a, b, v, s, oracle.hilbert(a, b, v))
            for v, s in got if s != oracle.hilbert(a, b, v)]
    if "place" not in spec:
        prod = 1
        for _, s in got:
            prod *= s
        if prod != 1:
            out_.append("symbols of (%s,%s) break reciprocity" % (a, b))
    return out_


def check_isnorm(spec, rc, out) -> list:
    if rc != 0:
        return ["isnorm exited %d" % rc]
    want = oracle.is_norm_brute(spec["a"], spec["d0"])
    got = json.loads(out)["is_norm"] if spec.get("json") else out.strip() == "true"
    if not spec.get("json") and out.strip() not in ("true", "false"):
        return ["isnorm printed %r" % out]
    return [] if got == want else ["isnorm %s %s: %s, oracle %s" % (spec["a"], spec["d0"], got, want)]
