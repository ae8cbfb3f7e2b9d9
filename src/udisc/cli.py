"""Command line front end.

Fact files are JSON documents describing either a character fact sheet
(block "character", optional top-level "relations") or a Hermitian Gram
matrix (block "gram"), with all rationals written as integers or
[numerator, denominator] pairs.  Subcommands:

    deduce  run the deduction engine on one fact file
    hform   discriminant and invariants of a Gram matrix fact file
    symbol  Hilbert symbols of a pair of rationals
    isnorm  norm test for an imaginary quadratic field
    corpus  re-check every fact file in a directory against its
            recorded expected block

Exit codes: 0 success, 1 error, 2 inconclusive deduction (candidate
list or under-determined), 3 corpus mismatch.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .arith import is_prime
from .brauer import BrauerClassQ, from_pair, pair_presentation
from .deduce import (
    AlphaFacts,
    Candidates,
    CharacterFactSheet,
    Constituent,
    DeductionReport,
    FactStatus,
    InductionRelation,
    ModFact,
    RestrictionRelation,
    Structural,
    TensorRelation,
    UnderDetermined,
    Unique,
    resolve,
)
from .hermforms import FormInvariants, HermitianGram, form_invariants
from .quadfield import ImagQuadField, QuadElem, is_norm
from .symbols import INF, hilbert, place_sort_key, relevant_places, render_places


class FactFileError(ValueError):
    """A fact file failed schema validation; the message names the JSON path."""


@dataclass
class FactFile:
    id: str
    sheet: Optional[CharacterFactSheet] = None
    gram: Optional[HermitianGram] = None
    expected: Optional[dict] = None
    out_of_scope: bool = False
    note: str = ""


@dataclass
class Report:
    """Result of one deduction or Gram-matrix computation, JSON-serialisable."""

    id: str
    kind: str  # unique | candidates | under-determined | error
    disc: Optional[int] = None
    ram: Optional[list] = None
    items: Optional[list] = None
    free: Optional[list] = None
    trace: list = field(default_factory=list)
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
        return Fraction(v)
    if not (isinstance(v, list) and len(v) == 2 and all(_is_int(x) for x in v)):
        _fail(path, "expected an integer or a [numerator, denominator] pair")
    if v[1] == 0:
        _fail(path, "zero denominator")
    return Fraction(v[0], v[1])


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


def _as_obj(v, path, allowed):
    if not isinstance(v, dict):
        _fail(path, "expected an object")
    for k in v:
        if k not in allowed:
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


def _load_mod_fact(v, path):
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
    _as_obj(v, path, {"q8_subgroup", "perfect", "center_order",
                      "orth_dim_sum_mod4", "faithful"})
    dims = {}
    raw = v.get("orth_dim_sum_mod4", {})
    if not isinstance(raw, dict):
        _fail(path + ".orth_dim_sum_mod4", "expected an object")
    for k, d in raw.items():
        kp = "%s.orth_dim_sum_mod4.%s" % (path, k)
        if not k.isdigit() or not is_prime(int(k)):
            _fail(kp, "expected a prime key")
        dims[int(k)] = _as_int(d, kp)
    return _wrap(
        path, Structural,
        q8_subgroup=_as_bool(v.get("q8_subgroup", False), path + ".q8_subgroup"),
        perfect=_as_bool(v.get("perfect", False), path + ".perfect"),
        center_order=_as_pos_int(v.get("center_order", 1), path + ".center_order"),
        orth_dim_sum_mod4=dims,
        faithful=_as_bool(v.get("faithful", False), path + ".faithful"),
    )


def _load_alpha(v, path):
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
        delta_class = from_pair(L.field_disc, d)
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
    for k, e in raw.items():
        kp = "%s.group_order_factors.%s" % (path, k)
        if not k.isdigit() or not is_prime(int(k)):
            _fail(kp, "expected a prime key")
        factors[int(k)] = _as_pos_int(e, kp)
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


def _load_gram(v, path):
    _as_obj(v, path, {"delta0", "entries"})
    L = _wrap(path + ".delta0", ImagQuadField,
              _as_pos_int(v.get("delta0"), path + ".delta0"))
    rows = _as_list(v.get("entries"), path + ".entries")
    n = len(rows)
    entries = []
    for i, row in enumerate(rows):
        rp = "%s.entries[%d]" % (path, i)
        if not isinstance(row, list) or len(row) != n:
            _fail(rp, "expected a row of %d entries" % n)
        out = []
        for j, cell in enumerate(row):
            cp = "%s[%d]" % (rp, j)
            if not (isinstance(cell, list) and len(cell) == 4
                    and all(_is_int(x) for x in cell)):
                _fail(cp, "expected [x_num, x_den, y_num, y_den]")
            if cell[1] == 0 or cell[3] == 0:
                _fail(cp, "zero denominator")
            out.append(QuadElem(Fraction(cell[0], cell[1]),
                                Fraction(cell[2], cell[3]), L))
        entries.append(tuple(out))
    return _wrap(path, HermitianGram, L, tuple(entries))


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
    except OSError as e:
        raise FactFileError(str(e))
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise FactFileError("line %d, column %d: %s" % (e.lineno, e.colno, e.msg))
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
    return dataclasses.asdict(r)


def report_from_json(d: dict) -> Report:
    names = {f.name for f in dataclasses.fields(Report)}
    for k in d:
        if k not in names:
            raise FactFileError("report field %r is not recognised" % k)
    return Report(**d)


def _sorted_ram(cls: BrauerClassQ) -> list:
    return sorted(cls.ram, key=place_sort_key)


def report_from_deduction(dd: DeductionReport) -> Report:
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


def deduce_report(path) -> Report:
    ff = load_fact_file(path)
    if ff.out_of_scope:
        raise FactFileError("%s: out of scope: %s" % (ff.id, ff.note))
    if ff.sheet is None:
        raise FactFileError("character: missing (this file has no fact sheet)")
    return report_from_deduction(resolve(ff.sheet))


def _transfer_summary(f: FormInvariants) -> dict:
    inv = f.transfer
    hasse = {str(v): inv.hasse[v]
             for v in sorted(inv.hasse, key=place_sort_key)}
    return {
        "dim": inv.dim,
        "disc": inv.disc,
        "signature": [inv.signature[0], inv.signature[1]],
        "hasse": hasse,
        "definite": f.definite,
        "clifford_ok": f.clifford == f.delta,
    }


def hform_report(path) -> Report:
    ff = load_fact_file(path)
    if ff.gram is None:
        raise FactFileError("gram: missing (this file has no Gram block)")
    f = form_invariants(ff.gram)
    return Report(id=ff.id, kind="unique", disc=f.disc,
                  ram=_sorted_ram(f.delta), transfer=_transfer_summary(f))


def render_report_text(r: Report) -> str:
    lines = []
    if r.kind == "error":
        lines.append("error: %s" % r.error)
    elif r.transfer is not None:
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


def _emit(args, report: Report) -> None:
    if args.json:
        print(json.dumps(report_to_json(report), indent=2))
    else:
        print(render_report_text(report))


def _emit_error(args, fid: str, exc: Exception) -> int:
    if args.json:
        print(json.dumps(report_to_json(
            Report(id=fid, kind="error", error=str(exc))), indent=2))
    else:
        print("error: %s" % exc, file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_deduce(args) -> int:
    fid = Path(args.file).stem
    try:
        report = deduce_report(args.file)
    except ValueError as e:
        return _emit_error(args, fid, e)
    _emit(args, report)
    return 0 if report.kind == "unique" else 2


def cmd_hform(args) -> int:
    fid = Path(args.file).stem
    try:
        report = hform_report(args.file)
    except ValueError as e:
        return _emit_error(args, fid, e)
    _emit(args, report)
    return 0


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


def _parse_rational(s: str) -> Fraction:
    try:
        a = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError("malformed rational %r" % s)
    if a == 0:
        raise ValueError("argument must be nonzero")
    return a


def cmd_symbol(args) -> int:
    try:
        a = _parse_rational(args.a)
        b = _parse_rational(args.b)
        places = (relevant_places(a, b) if args.place is None
                  else [_parse_place(args.place)])
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    values = {v: hilbert(a, b, v) for v in places}
    if args.json:
        print(json.dumps({"a": str(a), "b": str(b),
                          "values": {str(v): s for v, s in values.items()}}))
    else:
        print(" ".join("%s:%d" % (v, s) for v, s in values.items()))
    return 0


def cmd_isnorm(args) -> int:
    try:
        a = _parse_rational(args.a)
        L = ImagQuadField(int(args.delta0))
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    ans = is_norm(a, L)
    if args.json:
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
        f = form_invariants(ff.gram)
        got_disc, got_ram = f.disc, _sorted_ram(f.delta)
        if f.clifford != f.delta:
            return False, "clifford invariant mismatch"
        if got_disc == exp["disc"] and got_ram == exp["ram"]:
            return True, "disc %d %s" % (got_disc, render_places(got_ram))
        return False, ("expected disc %d %s, got disc %d %s"
                       % (exp["disc"], render_places(exp["ram"]),
                          got_disc, render_places(got_ram)))
    report = report_from_deduction(resolve(ff.sheet))
    if exp["kind"] == "unique":
        if report.kind != "unique":
            return False, "expected unique, got %s" % report.kind
        if report.disc == exp["disc"] and report.ram == exp["ram"]:
            return True, "disc %d %s" % (report.disc, render_places(report.ram))
        return False, ("expected disc %d %s, got disc %s %s"
                       % (exp["disc"], render_places(exp["ram"]),
                          report.disc, render_places(report.ram)))
    if exp["kind"] == "candidates":
        if report.kind != "candidates":
            return False, "expected candidates, got %s" % report.kind
        got = [it["disc"] for it in report.items]
        if got == exp["discs"]:
            return True, "candidates {%s}" % ", ".join(str(d) for d in got)
        return False, ("expected candidates {%s}, got {%s}"
                       % (", ".join(str(d) for d in exp["discs"]),
                          ", ".join(str(d) for d in got)))
    return False, "expected kind %r does not fit a character row" % exp["kind"]


def cmd_corpus(args) -> int:
    directory = Path(args.dir) if args.dir else corpus_dir()
    if not directory.is_dir():
        print("error: %s is not a directory" % directory, file=sys.stderr)
        return 1
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
    if args.json:
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
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="udisc",
        description="unitary discriminants of Hermitian forms and characters")
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of text")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    d = sub.add_parser("deduce", help="run the deduction engine on a fact file")
    d.add_argument("file")
    d.set_defaults(func=cmd_deduce)

    h = sub.add_parser("hform", help="invariants of a Gram matrix fact file")
    h.add_argument("file")
    h.set_defaults(func=cmd_hform)

    s = sub.add_parser("symbol", help="Hilbert symbols (a,b)_v")
    s.add_argument("a")
    s.add_argument("b")
    s.add_argument("place", nargs="?")
    s.set_defaults(func=cmd_symbol)

    n = sub.add_parser("isnorm", help="is a a norm of Q(sqrt(-delta0))?")
    n.add_argument("a")
    n.add_argument("delta0")
    n.set_defaults(func=cmd_isnorm)

    c = sub.add_parser("corpus", help="re-check a directory of fact files")
    c.add_argument("dir", nargs="?")
    c.set_defaults(func=cmd_corpus)

    for cmd in (d, h, s, n, c):
        cmd.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                         help=argparse.SUPPRESS)
    return p


def _rearrange(argv: list) -> list:
    # symbol/isnorm take negative numbers; shield them from option parsing
    for i, tok in enumerate(argv):
        if tok in ("deduce", "hform", "corpus"):
            return argv
        if tok in ("symbol", "isnorm"):
            tail = argv[i + 1:]
            hoisted = ["--json"] if "--json" in tail else []
            rest = [t for t in tail if t not in ("--json", "--")]
            return argv[:i] + hoisted + [tok, "--"] + rest
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_rearrange(argv))
    except SystemExit as e:
        if e.code == 0:
            raise
        return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
