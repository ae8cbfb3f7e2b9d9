"""Command line front end.

Fact files are JSON documents describing either a character fact sheet
(block "character", optional top-level "relations") or a Hermitian Gram
matrix (block "gram"), with all rationals written as integers or
[numerator, denominator] pairs. The table COMMANDS at the end names the
five subcommands, their arguments and their help lines.

Exit codes: 0 success, 1 error, 2 inconclusive deduction (candidate
list or under-determined), 3 corpus mismatch.

Each process answers one question, so each subcommand loads only the
modules it uses. symbol and isnorm load arith, symbols, quadfield and
brauer; deduce adds deduce, hform adds hermforms, and corpus adds both.
The functions here that need deduce or hermforms import them locally.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

from .arith import FactoringLimit, factor, is_prime
from .brauer import BrauerClassQ, from_pair, pair_presentation
from .quadfield import ImagQuadField, is_norm
from .symbols import INF, hilbert, place_sort_key, relevant_places, render_places

if TYPE_CHECKING:
    from .deduce import CharacterFactSheet, DeductionReport
    from .hermforms import HermitianGram


class FactFileError(ValueError):
    """A fact file failed schema validation; the message names the JSON path."""


class FactFile(NamedTuple):
    id: str
    sheet: Optional[CharacterFactSheet] = None
    gram: Optional[HermitianGram] = None
    expected: Optional[dict] = None
    out_of_scope: bool = False
    note: str = ""


class Report(NamedTuple):
    """Result of one deduction or Gram-matrix computation, JSON-serialisable."""

    id: str
    kind: str  # unique | candidates | under-determined | error
    disc: Optional[int] = None
    ram: Optional[list] = None
    items: Optional[list] = None
    free: Optional[list] = None
    # shared by every report without a trace; reports are never mutated
    trace: list = []
    error: Optional[str] = None
    transfer: Optional[dict] = None


def corpus_dir() -> Path:
    return Path(__file__).resolve().parent / "corpus"


# ---------------------------------------------------------------------------
# fact file schema


def _fail(path, msg):
    raise FactFileError("%s: %s" % (path, msg))


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _as_int(v, path):
    if not _is_int(v):
        _fail(path, "expected an integer")
    return v

def _as_pos_int(v, path):
    if not _is_int(v) or v <= 0:
        _fail(path, "expected a positive integer")
    return v


def _as_bool(v, path):
    if not isinstance(v, bool):
        _fail(path, "expected true or false")
    return v


def _as_str(v, path):
    if not isinstance(v, str):
        _fail(path, "expected a string")
    return v


def _as_fraction(v, path):
    if _is_int(v):
        v = [v, 1]
    if not (isinstance(v, list) and len(v) == 2 and all(_is_int(x) for x in v)):
        _fail(path, "expected an integer or a [numerator, denominator] pair")
    if v[1] == 0:
        _fail(path, "zero denominator")
    q = Fraction(v[0], v[1])
    # factor both parts here, so a FactoringLimit names this path; the rules
    # later read the same factorizations from factor's cache
    if q:
        _wrap(path, factor, q.numerator)
        _wrap(path, factor, q.denominator)
    return q


def _as_places(v, path):
    if not isinstance(v, list):
        _fail(path, "expected a list of places")
    out = set()
    for i, x in enumerate(v):
        if x == "inf":
            out.add(INF)
        elif _is_int(x) and is_prime(x):
            out.add(int(x))
        else:
            _fail("%s[%d]" % (path, i), 'expected "inf" or a prime')
    return frozenset(out)


class _DuplicateKeys(dict):
    """A JSON object in which the key `duplicate` occurs more than once."""

    duplicate = None


def _json_object(pairs):
    # object_pairs_hook for json.loads, which would keep the last of two
    # equal keys without a word; the schema check rejects them by path
    obj = dict(pairs)
    if len(obj) == len(pairs):
        return obj
    seen = set()
    obj = _DuplicateKeys(obj)
    obj.duplicate = next(k for k, _ in pairs if k in seen or seen.add(k))
    return obj


def _as_obj(v, path, allowed=None):
    if not isinstance(v, dict):
        _fail(path, "expected an object")
    if isinstance(v, _DuplicateKeys):
        _fail("%s.%s" % (path, v.duplicate), "duplicate key")
    for k in v:
        if allowed is not None and k not in allowed:
            _fail("%s.%s" % (path, k), "unknown key")
    return v


def _as_list(v, path):
    if not isinstance(v, list):
        _fail(path, "expected a list")
    return v


def _wrap(path, fn, *args, **kwargs):
    # turn semantic constructor errors into schema errors carrying the path
    try:
        return fn(*args, **kwargs)
    except FactFileError:
        raise
    except ValueError as e:
        _fail(path, str(e))


def _prime_key(k, path):
    # str.isdigit also accepts "²" and non-ASCII digits such as "٣"
    if not (k.isascii() and k.isdigit() and is_prime(p := _wrap(path, int, k))):
        _fail(path, "expected a prime key")
    # canonical decimal only, or "03" and "3" would name the same prime
    if k != str(p):
        _fail(path, "expected a prime key without leading zeros")
    return p


def _load_mod_fact(v, path):
    from .deduce import FactStatus, ModFact

    _as_obj(v, path, {"p", "status", "defect_one", "external"})
    p = _as_int(v.get("p"), path + ".p")
    if not is_prime(p):
        _fail(path + ".p", "not a prime")
    s = _as_str(v.get("status"), path + ".status")
    try:
        status = FactStatus(s)
    except ValueError:
        _fail(path + ".status", "expected one of %s"
              % ", ".join(m.value for m in FactStatus))
    defect_one = _as_bool(v.get("defect_one", False), path + ".defect_one")
    external = _as_bool(v.get("external", False), path + ".external")
    return _wrap(path, ModFact, p, status, defect_one=defect_one, external=external)


def _load_structural(v, path):
    from .deduce import Structural

    _as_obj(v, path, {"q8_subgroup", "perfect", "center_order",
                      "orth_dim_sum_mod4", "faithful"})
    dims = {}
    raw = _as_obj(v.get("orth_dim_sum_mod4", {}), path + ".orth_dim_sum_mod4")
    for k, d in raw.items():
        kp = "%s.orth_dim_sum_mod4.%s" % (path, k)
        dims[_prime_key(k, kp)] = _as_int(d, kp)
    return _wrap(
        path, Structural,
        q8_subgroup=_as_bool(v.get("q8_subgroup", False), path + ".q8_subgroup"),
        perfect=_as_bool(v.get("perfect", False), path + ".perfect"),
        center_order=_as_pos_int(v.get("center_order", 1), path + ".center_order"),
        orth_dim_sum_mod4=dims,
        faithful=_as_bool(v.get("faithful", False), path + ".faithful"),
    )


def _load_alpha(v, path):
    from .deduce import AlphaFacts

    _as_obj(v, path, {"q_class", "m", "indicator_ext", "alpha_disc", "parts"})
    q_class = _wrap(path + ".q_class", BrauerClassQ,
                    _as_places(v.get("q_class", []), path + ".q_class"))
    m = _as_pos_int(v.get("m"), path + ".m")
    ind = _as_str(v.get("indicator_ext"), path + ".indicator_ext")
    if ("alpha_disc" in v) == ("parts" in v):
        _fail(path, "give exactly one of alpha_disc and parts")
    if "alpha_disc" in v:
        alpha_disc = _as_fraction(v["alpha_disc"], path + ".alpha_disc")
    else:
        # determinant of the fixed space under the extending element,
        # folded part by part with the sign (-1)^(dim/2)
        alpha_disc = Fraction(1)
        for i, part in enumerate(_as_list(v["parts"], path + ".parts")):
            pp = "%s.parts[%d]" % (path, i)
            _as_obj(part, pp, {"dim", "det"})
            dim = _as_pos_int(part.get("dim"), pp + ".dim")
            if dim % 2:
                _fail(pp + ".dim", "expected a positive even integer")
            det = _as_fraction(part.get("det"), pp + ".det")
            if det == 0:
                _fail(pp + ".det", "determinant must be nonzero")
            alpha_disc *= det if (dim // 2) % 2 == 0 else -det
    if alpha_disc == 0:
        _fail(path + ".alpha_disc", "must be nonzero")
    return _wrap(path, AlphaFacts, q_class, m, alpha_disc, ind)


def _load_constituent(v, path, L):
    from .deduce import Constituent

    _as_obj(v, path, {"indicator", "degree", "mult", "hyperbolic",
                      "class_ram", "ortho_disc", "delta_disc", "delta_ram"})
    brauer_class = None
    if "class_ram" in v:
        brauer_class = _wrap(path + ".class_ram", BrauerClassQ,
                             _as_places(v["class_ram"], path + ".class_ram"))
    ortho_disc = None
    if "ortho_disc" in v:
        ortho_disc = _as_fraction(v["ortho_disc"], path + ".ortho_disc")
    if "delta_disc" in v and "delta_ram" in v:
        _fail(path, "give at most one of delta_disc and delta_ram")
    delta_class = None
    if "delta_disc" in v:
        d = _as_fraction(v["delta_disc"], path + ".delta_disc")
        if d == 0:
            _fail(path + ".delta_disc", "must be nonzero")
        delta_class = _wrap(path + ".delta_disc", from_pair, L.field_disc, d)
    elif "delta_ram" in v:
        delta_class = _wrap(path + ".delta_ram", BrauerClassQ,
                            _as_places(v["delta_ram"], path + ".delta_ram"))
    return _wrap(
        path, Constituent,
        _as_str(v.get("indicator"), path + ".indicator"),
        _as_pos_int(v.get("degree"), path + ".degree"),
        mult=_as_pos_int(v.get("mult", 1), path + ".mult"),
        brauer_class=brauer_class,
        ortho_disc=ortho_disc,
        delta_class=delta_class,
        hyperbolic=_as_bool(v.get("hyperbolic", False), path + ".hyperbolic"),
    )


def _load_relation(v, path, L):
    from .deduce import InductionRelation, RestrictionRelation, TensorRelation

    if not isinstance(v, dict) or "kind" not in v:
        _fail(path, 'expected an object with a "kind" key')
    kind = _as_str(v["kind"], path + ".kind")
    if kind == "restriction":
        _as_obj(v, path, {"kind", "constituents"})
        cons = [_load_constituent(c, "%s.constituents[%d]" % (path, i), L)
                for i, c in enumerate(_as_list(v.get("constituents"),
                                               path + ".constituents"))]
        return RestrictionRelation(tuple(cons))
    if kind == "induction":
        _as_obj(v, path, {"kind", "psi_class_ram", "index", "field_degree_odd"})
        psi = _wrap(path + ".psi_class_ram", BrauerClassQ,
                    _as_places(v.get("psi_class_ram", []), path + ".psi_class_ram"))
        return _wrap(path, InductionRelation, psi,
                     _as_pos_int(v.get("index"), path + ".index"),
                     _as_bool(v.get("field_degree_odd"), path + ".field_degree_odd"))
    if kind == "tensor":
        _as_obj(v, path, {"kind", "class_ram", "psi_degree"})
        cls = _wrap(path + ".class_ram", BrauerClassQ,
                    _as_places(v.get("class_ram", []), path + ".class_ram"))
        return _wrap(path, TensorRelation, cls,
                     _as_pos_int(v.get("psi_degree"), path + ".psi_degree"))
    _fail(path + ".kind", "unknown relation kind %r" % kind)


def _load_sheet(v, relations_raw, fid, path):
    from .deduce import CharacterFactSheet

    _as_obj(v, path, {"degree", "delta0", "group_order_factors", "quasi_split",
                      "split_schur_trivial", "mod_facts", "structural",
                      "alpha_facts", "relations"})
    degree = _as_pos_int(v.get("degree"), path + ".degree")
    L = _wrap(path + ".delta0", ImagQuadField,
              _as_pos_int(v.get("delta0"), path + ".delta0"))
    factors = {}
    raw = v.get("group_order_factors")
    if not isinstance(raw, dict) or not raw:
        _fail(path + ".group_order_factors",
              "expected an object of prime: exponent entries")
    _as_obj(raw, path + ".group_order_factors")
    for k, e in raw.items():
        kp = "%s.group_order_factors.%s" % (path, k)
        factors[_prime_key(k, kp)] = _as_pos_int(e, kp)
    mod_facts = tuple(
        _load_mod_fact(m, "%s.mod_facts[%d]" % (path, i))
        for i, m in enumerate(_as_list(v.get("mod_facts", []), path + ".mod_facts"))
    )
    structural = None
    if "structural" in v:
        structural = _load_structural(v["structural"], path + ".structural")
    alpha = None
    if "alpha_facts" in v:
        alpha = _load_alpha(v["alpha_facts"], path + ".alpha_facts")
    rels = []
    for src, rp in ((v.get("relations", []), path + ".relations"),
                    (relations_raw, "relations")):
        for i, r in enumerate(_as_list(src, rp)):
            rels.append(_load_relation(r, "%s[%d]" % (rp, i), L))
    return _wrap(
        path, CharacterFactSheet,
        id=fid, degree=degree, field=L, group_order_factors=factors,
        quasi_split=_as_bool(v.get("quasi_split", True), path + ".quasi_split"),
        split_schur_trivial=_as_bool(v.get("split_schur_trivial", True),
                                     path + ".split_schur_trivial"),
        mod_facts=mod_facts, structural=structural, alpha_facts=alpha,
        relations=tuple(rels),
    )


# A larger Gram matrix is refused before any entry is built; the README's
# "Fact files" gives the measurements behind the value.
MAX_GRAM_DIM = 32


def _load_gram(v, path):
    from .hermforms import HermitianGram

    _as_obj(v, path, {"delta0", "entries"})
    L = _wrap(path + ".delta0", ImagQuadField,
              _as_pos_int(v.get("delta0"), path + ".delta0"))
    rows = _as_list(v.get("entries"), path + ".entries")
    n = len(rows)
    if n > MAX_GRAM_DIM:
        _fail(path + ".entries", "%d rows, more than the limit of %d" % (n, MAX_GRAM_DIM))
    # H = s^-1 (X + Y sqrt(-delta0)), s the lcm of the reduced denominators
    dens = set()
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            _fail("%s.entries[%d]" % (path, i), "expected a row of %d entries" % n)
        for j, cell in enumerate(row):
            # json.loads makes exact lists, ints and bools: this is _is_int, inlined
            a, b, c, d = cell if type(cell) is list and len(cell) == 4 else (None,) * 4
            if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
                _fail("%s.entries[%d][%d]" % (path, i, j),
                      "expected [x_num, x_den, y_num, y_den]")
            if b == 0 or d == 0:
                _fail("%s.entries[%d][%d]" % (path, i, j), "zero denominator")
            if b != 1 or d != 1:
                dens.update((b // gcd(a, b), d // gcd(c, d)))
    s = lcm(*dens)
    X = tuple(tuple(c[0] * s // c[1] for c in row) for row in rows)
    Y = tuple(tuple(c[2] * s // c[3] for c in row) for row in rows)
    return _wrap(path, HermitianGram._scaled, L, s, X, Y)


def _load_expected(v, path):
    if not isinstance(v, dict) or "kind" not in v:
        _fail(path, 'expected an object with a "kind" key')
    kind = _as_str(v["kind"], path + ".kind")
    if kind in ("unique", "hform"):
        _as_obj(v, path, {"kind", "disc", "ram"})
        ram = _as_places(v.get("ram"), path + ".ram")
        return {"kind": kind, "disc": _as_int(v.get("disc"), path + ".disc"),
                "ram": sorted(ram, key=place_sort_key)}
    if kind == "candidates":
        _as_obj(v, path, {"kind", "discs"})
        discs = [_as_int(d, "%s.discs[%d]" % (path, i))
                 for i, d in enumerate(_as_list(v.get("discs"), path + ".discs"))]
        if not discs:
            _fail(path + ".discs", "expected at least one candidate")
        return {"kind": kind, "discs": discs}
    _fail(path + ".kind", "unknown expected kind %r" % kind)


def load_fact_file(path) -> FactFile:
    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise FactFileError(str(e))
    try:
        doc = json.loads(raw, object_pairs_hook=_json_object)
    except json.JSONDecodeError as e:
        raise FactFileError("line %d, column %d: %s" % (e.lineno, e.colno, e.msg))
    except ValueError as e:
        # an integer literal beyond the interpreter's 4300-digit limit
        _fail("fact file", e)
    except RecursionError:
        _fail("fact file", "nested too deeply")
    _as_obj(doc, "fact file", {"id", "note", "character", "gram", "relations",
                               "expected", "out_of_scope", "degree", "field"})
    fid = _as_str(doc.get("id", path.stem), "id")
    note = _as_str(doc.get("note", ""), "note")
    expected = None
    if "expected" in doc:
        expected = _load_expected(doc["expected"], "expected")
    if _as_bool(doc.get("out_of_scope", False), "out_of_scope"):
        return FactFile(id=fid, out_of_scope=True, note=note, expected=expected)
    sheet = None
    if "character" in doc:
        sheet = _load_sheet(doc["character"], doc.get("relations", []),
                            fid, "character")
    elif "relations" in doc:
        _fail("relations", "requires a character block")
    gram = None
    if "gram" in doc:
        gram = _load_gram(doc["gram"], "gram")
    return FactFile(id=fid, sheet=sheet, gram=gram, expected=expected, note=note)


# ---------------------------------------------------------------------------
# reports


def report_to_json(r: Report) -> dict:
    return r._asdict()


def report_from_json(d: dict) -> Report:
    for k in d:
        if k not in Report._fields:
            raise FactFileError("report field %r is not recognised" % k)
    return Report(**d)


def _sorted_ram(cls: BrauerClassQ) -> list:
    return sorted(cls.ram, key=place_sort_key)


def report_from_deduction(dd: DeductionReport) -> Report:
    from .deduce import Candidates, UnderDetermined, Unique

    trace = [[t.place, t.rule, t.citation] for t in dd.trace]
    r = dd.result
    if isinstance(r, Unique):
        return Report(id=dd.sheet_id, kind="unique", disc=r.disc,
                      ram=_sorted_ram(r.brauer_class), trace=trace)
    if isinstance(r, Candidates):
        items = [{"disc": d, "ram": _sorted_ram(c)} for c, d in r.items]
        return Report(id=dd.sheet_id, kind="candidates", items=items, trace=trace)
    assert isinstance(r, UnderDetermined)
    return Report(id=dd.sheet_id, kind="under-determined",
                  free=list(r.unknowns), trace=trace)


def _within_budget(path, fn, arg):
    # the rules and invariants also factor numbers derived from a block,
    # such as products of rationals or det(H); a FactoringLimit there
    # names the block
    try:
        return fn(arg)
    except FactoringLimit as e:
        _fail(path, e)


def _sheet_report(ff: FactFile) -> Report:
    from .deduce import resolve

    if ff.sheet is None:
        raise FactFileError("character: missing (this file has no fact sheet)")
    return report_from_deduction(_within_budget("character", resolve, ff.sheet))


def _gram_report(ff: FactFile) -> Report:
    from .hermforms import form_invariants

    if ff.gram is None:
        raise FactFileError("gram: missing (this file has no Gram block)")
    f = _within_budget("gram", form_invariants, ff.gram)
    inv = f.transfer
    transfer = {
        "dim": inv.dim,
        "disc": inv.disc,
        "signature": [inv.signature[0], inv.signature[1]],
        "hasse": {str(v): inv.hasse[v]
                  for v in sorted(inv.hasse, key=place_sort_key)},
        "definite": f.definite,
        "clifford_ok": f.clifford == f.delta,
    }
    return Report(id=ff.id, kind="unique", disc=f.disc,
                  ram=_sorted_ram(f.delta), transfer=transfer)


def _load_in_scope(path) -> FactFile:
    ff = load_fact_file(path)
    if ff.out_of_scope:
        raise FactFileError("%s: out of scope: %s" % (ff.id, ff.note))
    return ff


def deduce_report(path) -> Report:
    return _sheet_report(_load_in_scope(path))


def hform_report(path) -> Report:
    return _gram_report(_load_in_scope(path))


def render_report_text(r: Report) -> str:
    lines = []
    if r.transfer is not None:
        t = r.transfer
        lines.append("disc=%d %s clifford=%s"
                     % (r.disc, render_places(r.ram),
                        "OK" if t["clifford_ok"] else "MISMATCH"))
        lines.append("transfer dim=%d disc=%d signature=(%d,%d) definite=%s"
                     % (t["dim"], t["disc"], t["signature"][0], t["signature"][1],
                        "true" if t["definite"] else "false"))
        lines.append("hasse " + " ".join("%s:%d" % (v, s)
                                         for v, s in t["hasse"].items()))
    elif r.kind == "unique":
        pair = pair_presentation(BrauerClassQ(frozenset(r.ram)))
        disc_s = "n/a" if r.disc is None else str(r.disc)
        pair_s = "" if pair is None else "Delta = (%s,%s)_Q, " % pair
        lines.append("disc = %s, %s%s" % (disc_s, pair_s, render_places(r.ram)))
    elif r.kind == "candidates":
        discs = [it["disc"] for it in r.items]
        if all(d is not None for d in discs):
            lines.append("candidates = {%s}" % ", ".join(str(d) for d in discs))
        else:
            lines.append("candidates = %d classes" % len(r.items))
        for it in r.items:
            head = "" if it["disc"] is None else "%s " % it["disc"]
            lines.append("  %s%s" % (head, render_places(it["ram"])))
    elif r.kind == "under-determined":
        lines.append("under-determined: %d free places" % len(r.free))
        lines.append("  free: " + ", ".join(str(v) for v in r.free))
    if r.trace:
        lines.append("trace:")
        for place, rule, citation in r.trace:
            lines.append("  %s - %s - %s" % (place, rule, citation))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def _print_report(report: Report, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report_to_json(report), indent=2))
    else:
        print(render_report_text(report))
    return 0 if report.kind == "unique" else 2


def cmd_deduce(as_json, file) -> int:
    return _print_report(deduce_report(file), as_json)


def cmd_hform(as_json, file) -> int:
    return _print_report(hform_report(file), as_json)


def _parse_place(s: str):
    if s == "inf":
        return INF
    try:
        p = int(s)
    except ValueError:
        p = -1
    if p < 2 or not is_prime(p):
        raise ValueError('place must be "inf" or a prime')
    return p


# a decimal exponent, which Fraction turns into 10**exponent before any check
_EXPONENT = re.compile(r"\s*[-+]?[\d_.]+e([-+]?[\d_]+)\s*", re.I)


def _parse_rational(s: str) -> Fraction:
    exp = _EXPONENT.fullmatch(s)
    limit = sys.get_int_max_str_digits()
    try:
        big = exp and limit and abs(int(exp[1])) > limit
        a = None if big else Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError("malformed rational %r" % s)
    try:
        # str() refuses integers over the interpreter's digit limit, which
        # the fact-file loader also rejects; 10**limit is one digit over
        str(10 ** limit if big else a)
    except ValueError as e:
        raise ValueError("rational %r: %s" % (s, e))
    if a == 0:
        raise ValueError("argument must be nonzero")
    return a


def cmd_symbol(as_json, a, b, place=None) -> int:
    a = _parse_rational(a)
    b = _parse_rational(b)
    places = relevant_places(a, b) if place is None else [_parse_place(place)]
    values = {v: hilbert(a, b, v) for v in places}
    if as_json:
        print(json.dumps({"a": str(a), "b": str(b),
                          "values": {str(v): s for v, s in values.items()}}))
    else:
        print(" ".join("%s:%d" % (v, s) for v, s in values.items()))
    return 0


def cmd_isnorm(as_json, a, delta0) -> int:
    a = _parse_rational(a)
    L = ImagQuadField(int(delta0))
    ans = is_norm(a, L)
    if as_json:
        print(json.dumps({"a": str(a), "delta0": L.delta0, "is_norm": ans}))
    else:
        print("true" if ans else "false")
    return 0


def _check_corpus_row(ff: FactFile):
    # returns (ok, detail) for one fact file with an expected block
    exp = ff.expected
    if ff.gram is not None:
        if exp["kind"] != "hform":
            return False, "expected kind %r does not fit a gram row" % exp["kind"]
        report = _gram_report(ff)
        if not report.transfer["clifford_ok"]:
            return False, "clifford invariant mismatch"
    else:
        report = _sheet_report(ff)
        if exp["kind"] not in ("unique", "candidates"):
            return False, ("expected kind %r does not fit a character row"
                           % exp["kind"])
    if exp["kind"] == "candidates":
        if report.kind != "candidates":
            return False, "expected candidates, got %s" % report.kind
        got = [it["disc"] for it in report.items]
        if got == exp["discs"]:
            return True, "candidates {%s}" % ", ".join(str(d) for d in got)
        return False, ("expected candidates {%s}, got {%s}"
                       % (", ".join(str(d) for d in exp["discs"]),
                          ", ".join(str(d) for d in got)))
    if report.kind != "unique":
        return False, "expected unique, got %s" % report.kind
    if report.disc == exp["disc"] and report.ram == exp["ram"]:
        return True, "disc %d %s" % (report.disc, render_places(report.ram))
    return False, ("expected disc %d %s, got disc %s %s"
                   % (exp["disc"], render_places(exp["ram"]),
                      report.disc, render_places(report.ram)))


def cmd_corpus(as_json, dir=None) -> int:
    directory = corpus_dir() if dir is None else Path(dir)
    # Path("") is ".", but an empty argument names no directory
    if dir == "" or not directory.is_dir():
        raise ValueError("%s is not a directory" % (directory if dir else "''"))
    rows = []
    sheets = grams = skipped = failures = 0
    for f in sorted(directory.glob("*.json")):
        try:
            ff = load_fact_file(f)
        except FactFileError as e:
            failures += 1
            rows.append((f.stem, "FAIL", "load error: %s" % e))
            continue
        if ff.out_of_scope:
            skipped += 1
            rows.append((ff.id, "skip", ff.note))
            continue
        if ff.gram is not None:
            grams += 1
        else:
            sheets += 1
        if ff.expected is None:
            failures += 1
            rows.append((ff.id, "FAIL", "no expected block"))
            continue
        try:
            ok, detail = _check_corpus_row(ff)
        # ValueError: FactFileError, DeduceError, or a field that does not
        # split the class; RuntimeError: l_disc found no representative
        except (ValueError, RuntimeError) as e:
            ok, detail = False, "error: %s" % e
        if not ok:
            failures += 1
        rows.append((ff.id, "ok" if ok else "FAIL", detail))
    rows.sort(key=lambda r: r[0])
    verdict = "all pass" if failures == 0 else (
        "1 failure" if failures == 1 else "%d failures" % failures)
    summary = "%d sheets, %d grams, %d skipped: %s" % (sheets, grams, skipped,
                                                       verdict)
    if as_json:
        print(json.dumps({
            "rows": [{"id": i, "status": s, "detail": d} for i, s, d in rows],
            "sheets": sheets, "grams": grams, "skipped": skipped,
            "failures": failures,
        }, indent=2))
    else:
        for fid, status, detail in rows:
            print("%-6s%-20s%s" % (status, fid, detail))
        print(summary)
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# the command table


# command: (function, arguments, help); a bracketed argument may be left out
COMMANDS = {
    "deduce": (cmd_deduce, "file", "run the deduction engine on a fact file"),
    "hform": (cmd_hform, "file", "invariants of a Gram matrix fact file"),
    "symbol": (cmd_symbol, "a b [place]", "Hilbert symbols (a,b)_v"),
    "isnorm": (cmd_isnorm, "a delta0", "is a a norm of Q(sqrt(-delta0))?"),
    "corpus": (cmd_corpus, "[dir]", "re-check a directory of fact files"),
}
# these take paths, so a token that starts with "-" is an option; symbol and
# isnorm take negative rationals and read every token as an argument
_PATHS = ("deduce", "hform", "corpus")
_USAGE = "usage: udisc [-h] [--json] command [argument ...]"


def _usage_error(usage: str, reason: str) -> int:
    print("%s\nudisc: error: %s" % (usage, reason), file=sys.stderr)
    return 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command, *values = [t for t in argv if t not in ("--json", "--")] or [None]
    options = [v for v in values if v.startswith("-")] if command in _PATHS else []
    if command in ("-h", "--help") or {"-h", "--help"} & set(options):
        print(_USAGE + "\n\nunitary discriminants of Hermitian forms and characters"
              "\n\ncommands:")
        for name, (_, args, text) in COMMANDS.items():
            print("  %-22s%s" % (name + " " + args, text))
        print("\n--json, before or after the command, prints JSON instead of text")
        return 0
    if command not in COMMANDS:
        return _usage_error(_USAGE, "missing command" if command is None else
                            "unknown command %r (choose from %s)"
                            % (command, ", ".join(COMMANDS)))
    fn, args, _ = COMMANDS[command]
    usage = "usage: udisc [--json] %s %s" % (command, args)
    if options:
        return _usage_error(usage, "unrecognized option %r" % options[0])
    if not 0 <= len(args.split()) - len(values) <= args.count("["):
        return _usage_error(usage, "wrong number of arguments: %d" % len(values))
    try:
        return fn("--json" in argv, *values)
    except ValueError as e:
        if "--json" in argv and fn in (cmd_deduce, cmd_hform):
            report = Report(id=Path(values[0]).stem, kind="error", error=str(e))
            print(json.dumps(report_to_json(report), indent=2))
        else:
            print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
