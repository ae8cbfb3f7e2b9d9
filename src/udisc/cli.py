"""Command line front end.

Fact files are JSON documents describing either a character fact sheet
(block "character", optional top-level "relations") or a Hermitian Gram
matrix (block "gram"), with all rationals written as integers or
[numerator, denominator] pairs. Each kind of object in them is one table
of its keys, readers and defaults, and a test checks that the README names
every key. The table COMMANDS at the end names the five subcommands, and
main reads from it alone how each takes its tokens.

Exit codes: 0 success, 1 error, 2 inconclusive deduction (candidate
list or under-determined), 3 corpus mismatch.

Each process answers one question, so each subcommand loads only the
modules it uses. symbol and isnorm load arith, symbols, quadfield and
brauer; deduce adds deduce, hform adds hermforms, and corpus adds both.
The functions here that need deduce or hermforms import them locally.
Shared decisions stay in their module: symbols checks places and builds
place sets, and hermforms scales the Gram cells that the loader checks.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

from .arith import FactoringLimit, factor, is_prime
from .brauer import BrauerClassQ, from_pair, pair_presentation
from .quadfield import ImagQuadField, is_norm
from .symbols import INF, _brief, _place, hilbert, place_sort_key, relevant_places, render_places

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
#
# Each kind of fact-file object is one table at the end of this section, and
# _read reads an object through its table. A table maps each accepted key to
# (reader, default) in read order. A missing key is read as its default: None
# for a required key, which every reader refuses, while _OMIT leaves it
# unread. A row keyed by a function is a rule over several keys, checked at
# that point; one that returns true ends the read. Readers and rules also
# take got, one dict per file: what the caller put there first, and each
# value read so far under its key, at any depth, a later value replacing an
# earlier one. _load_sheet takes the top-level relations from it before the
# sheet's own replace them; each other key looked up (id, delta0,
# out_of_scope, character) names one value in a file.

_OMIT = object()
# the document itself; its keys are named without a prefix
_DOC = "fact file"


def _fail(path, msg):
    raise FactFileError("%s: %s" % (path, msg))


def _raw(v, path, got=None):
    return v


def _typed(kind, msg):
    """A reader that refuses a value whose type is not exactly kind: json.loads
    makes exact ints, bools, strs and lists, and a bool is no int."""
    def read(v, path, got=None):
        if type(v) is not kind:
            _fail(path, msg)
        return v
    return read


_as_int = _typed(int, "expected an integer")
_as_bool = _typed(bool, "expected true or false")
_as_str = _typed(str, "expected a string")
_as_list = _typed(list, "expected a list")


def _as_pos_int(v, path, got=None):
    if type(v) is not int or v <= 0:
        _fail(path, "expected a positive integer")
    return v


def _as_prime(v, path, got=None):
    if not is_prime(_as_int(v, path)):
        _fail(path, "not a prime")
    return v


def _as_even_dim(v, path, got=None):
    if _as_pos_int(v, path) % 2:
        _fail(path, "expected a positive even integer")
    return v


def _as_rational(v, path, got=None):
    if type(v) is int:
        v = [v, 1]
    if not (type(v) is list and len(v) == 2 and type(v[0]) is int and type(v[1]) is int):
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


def _nonzero(message):
    """A reader of a nonzero rational, refusing zero with message."""
    def read(v, path, got=None):
        if not (q := _as_rational(v, path)):
            _fail(path, message)
        return q
    return read


_as_nonzero = _nonzero("must be nonzero")
_as_det = _nonzero("determinant must be nonzero")


def _as_places(v, path, got=None):
    if not isinstance(v, list):
        _fail(path, "expected a list of places")
    out = set()
    for i, x in enumerate(v):
        try:
            out.add(_place(x))
        except ValueError:
            _fail("%s[%d]" % (path, i), 'expected "inf" or a prime')
    return frozenset(out)


def _as_class(v, path, got=None):
    return _wrap(path, BrauerClassQ, _as_places(v, path))


def _as_field(v, path, got=None):
    return _wrap(path, ImagQuadField, _as_pos_int(v, path))


@lru_cache(maxsize=None)
def _deduce(name):
    # a class of udisc.deduce, which only the readers of a character block
    # need: imported on their first use, then looked up in this cache
    from . import deduce

    return getattr(deduce, name)


def _as_status(v, path, got=None):
    if (status := _fact_statuses().get(_as_str(v, path))) is None:
        _fail(path, "expected one of %s" % ", ".join(_fact_statuses()))
    return status


@lru_cache(maxsize=None)
def _fact_statuses():
    return {m.value: m for m in _deduce("FactStatus")}


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


# one decoder for every file; json.loads with a hook builds one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_json_object)


def _key_path(path, k):
    # the path to the value of key k; a key over 40 characters is named
    # through _brief, so no refusal echoes a huge key whole
    return "%s.%s" % (path, k if len(k) <= 40 else _brief(k))


def _as_obj(v, path, allowed=None):
    if not isinstance(v, dict):
        _fail(path, "expected an object")
    if isinstance(v, _DuplicateKeys):
        _fail(_key_path(path, v.duplicate), "duplicate key")
    for k in v:
        if allowed is not None and k not in allowed:
            _fail(_key_path(path, k), "unknown key")
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
    digits = k.isascii() and k.isdigit()
    # int() would refuse a key over the interpreter's digit limit in its
    # own words, which differ between Python versions
    if digits and (limit := sys.get_int_max_str_digits()) and len(k) > limit:
        _fail(path, "a key has more than %d digits" % limit)
    if not (digits and is_prime(p := int(k))):
        _fail(path, "expected a prime key")
    # canonical decimal only, or "03" and "3" would name the same prime
    if k != str(p):
        _fail(path, "expected a prime key without leading zeros")
    return p


def _prime_map(read, nonempty=None):
    """A reader of a {prime: value} object, which must not be empty if the
    message nonempty is given; d[k] = x reads each x before its k."""
    def read_map(v, path, got=None):
        if nonempty and not (isinstance(v, dict) and v):
            _fail(path, nonempty)
        out = {}
        for k, x in _as_obj(v, path).items():
            kp = _key_path(path, k)
            out[_prime_key(k, kp)] = read(x, kp)
        return out
    return read_map


def _read(v, path, table, got):
    """Read the JSON object v through table; return the values it gives,
    which are also put in got."""
    _as_obj(v, path, table)
    at = "" if path == _DOC else path + "."
    out = {}
    for key, row in table.items():
        if row is None:
            if key(v, path, got):
                break
        elif (x := v.get(key, row[1])) is not _OMIT:
            got[key] = out[key] = row[0](x, at + key, got)
    return out


def _list_of(read):
    """A reader of a JSON list that reads entry i with read, at <path>[i]."""
    def read_list(v, path, got):
        return [read(x, "%s[%d]" % (path, i), got) for i, x in enumerate(_as_list(v, path))]
    return read_list


def _record(name, table, **fields):
    """A reader of an object through table into the deduce record name, with
    fields naming the field of each key whose name differs."""
    def read(v, path, got):
        f = _read(v, path, table, got)
        return _wrap(path, _deduce(name),
                     **{fields.get(k, k): x for k, x in f.items() if k != "kind"})
    return read


def _kind(what, **kinds):
    """A reader of an object whose "kind" key picks its reader from kinds,
    or its table, to read it as a dict."""
    def read(v, path, got):
        if not isinstance(v, dict) or "kind" not in v:
            _fail(path, 'expected an object with a "kind" key')
        kind = _as_str(v["kind"], path + ".kind")
        if kind not in kinds:
            _fail(path + ".kind", "unknown %s kind %s" % (what, _brief(kind)))
        r = kinds[kind]
        return _read(v, path, r, got) if isinstance(r, dict) else r(v, path, got)
    return read


def _as_parts(v, path, got):
    # determinant of the fixed space under the extending element,
    # folded part by part with the sign (-1)^(dim/2)
    disc = Fraction(1)
    for i, x in enumerate(_as_list(v, path)):
        part = _read(x, "%s[%d]" % (path, i), _PART, got)
        disc *= part["det"] if (part["dim"] // 2) % 2 == 0 else -part["det"]
    return disc


def _as_discs(v, path, got=None):
    discs = [_as_int(x, "%s[%d]" % (path, i)) for i, x in enumerate(_as_list(v, path))]
    if not discs:
        _fail(path, "expected at least one candidate")
    return discs


def _as_relations(v, path, got):
    # the character's relations, then the top-level ones
    return [_RELATION(r, "%s[%d]" % (rp, i), got)
            for src, rp in ((v, path), (got["top_relations"], "relations"))
            for i, r in enumerate(_as_list(src, rp))]


def _load_sheet(v, path, got):
    # the sheet's own relations take the name; _as_relations adds these
    got["top_relations"] = got["relations"]
    f = _read(v, path, _SHEET, got)
    return _wrap(path, _deduce("CharacterFactSheet"), id=got["id"],
                 field=f.pop("delta0"), **f)


# A larger Gram matrix is refused before any entry is built; the README's
# "Fact files" gives the measurements behind the value.
MAX_GRAM_DIM = 32


def _load_gram(v, path, got):
    from .hermforms import HermitianGram

    L, rows = _read(v, path, _GRAM, got).values()
    n = len(rows)
    if n > MAX_GRAM_DIM:
        _fail(path + ".entries", "%d rows, more than the limit of %d" % (n, MAX_GRAM_DIM))
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            _fail("%s.entries[%d]" % (path, i), "expected a row of %d entries" % n)
        for j, cell in enumerate(row):
            # a type test, as in the readers above
            a, b, c, d = cell if type(cell) is list and len(cell) == 4 else (None,) * 4
            if not (type(a) is int and type(b) is int and type(c) is int and type(d) is int):
                _fail("%s.entries[%d][%d]" % (path, i, j),
                      "expected [x_num, x_den, y_num, y_den]")
            if b == 0 or d == 0:
                _fail("%s.entries[%d][%d]" % (path, i, j), "zero denominator")
    return _wrap(path, HermitianGram._from_cells, L, rows)


# the tables
_MOD_FACT = {
    "p": (_as_prime, None),
    "status": (_as_status, None),
    "defect_one": (_as_bool, False),
    "external": (_as_bool, False),
}
_STRUCTURAL = {
    "orth_dim_sum_mod4": (_prime_map(_as_int), {}),
    "q8_subgroup": (_as_bool, False),
    "perfect": (_as_bool, False),
    "center_order": (_as_pos_int, 1),
    "faithful": (_as_bool, False),
}
_PART = {
    "dim": (_as_even_dim, None),
    "det": (_as_det, None),
}
_ALPHA = {
    "q_class": (_as_class, []),
    "m": (_as_pos_int, None),
    "indicator_ext": (_as_str, None),
    (lambda v, path, got: ("alpha_disc" in v) == ("parts" in v)
     and _fail(path, "give exactly one of alpha_disc and parts")): None,
    "alpha_disc": (_as_nonzero, _OMIT),
    "parts": (_as_parts, _OMIT),
}
_CONSTITUENT = {
    "class_ram": (_as_class, _OMIT),
    "ortho_disc": (_as_nonzero, _OMIT),
    (lambda v, path, got: "delta_disc" in v and "delta_ram" in v
     and _fail(path, "give at most one of delta_disc and delta_ram")): None,
    # the class of (disc L, delta_disc), L from the character's delta0
    "delta_disc": (lambda v, path, got: _wrap(path, from_pair, got["delta0"].field_disc,
                                              _as_nonzero(v, path)), _OMIT),
    "delta_ram": (_as_class, _OMIT),
    "indicator": (_as_str, None),
    "degree": (_as_pos_int, None),
    "mult": (_as_pos_int, 1),
    "hyperbolic": (_as_bool, False),
}
_RESTRICTION = {
    "kind": (_as_str, None),
    "constituents": (_list_of(_record("Constituent", _CONSTITUENT, class_ram="brauer_class",
                                      delta_disc="delta_class", delta_ram="delta_class")), None),
}
_INDUCTION = {
    "kind": (_as_str, None),
    "psi_class_ram": (_as_class, []),
    "index": (_as_pos_int, None),
    "field_degree_odd": (_as_bool, None),
}
_TENSOR = {"kind": (_as_str, None), "class_ram": (_as_class, []),
           "psi_degree": (_as_pos_int, None)}
_RELATION = _kind(
    "relation", restriction=_record("RestrictionRelation", _RESTRICTION),
    induction=_record("InductionRelation", _INDUCTION, psi_class_ram="psi_delta"),
    tensor=_record("TensorRelation", _TENSOR, class_ram="delta_chi"))
_SHEET = {
    "degree": (_as_pos_int, None),
    "delta0": (_as_field, None),
    "group_order_factors": (_prime_map(_as_pos_int, "expected an object of prime: exponent"
                                                    " entries"), None),
    "mod_facts": (_list_of(_record("ModFact", _MOD_FACT)), []),
    "structural": (_record("Structural", _STRUCTURAL), _OMIT),
    "alpha_facts": (_record("AlphaFacts", _ALPHA, parts="alpha_disc"), _OMIT),
    "relations": (_as_relations, []),
    "quasi_split": (_as_bool, True),
    "split_schur_trivial": (_as_bool, True),
}
_GRAM = {"delta0": (_as_field, None), "entries": (_as_list, None)}
_CLASS_EXPECTED = {
    "kind": (_as_str, None),
    "ram": (lambda v, path, got: sorted(_as_places(v, path), key=place_sort_key), None),
    "disc": (_as_int, None),
}
_CANDIDATES_EXPECTED = {
    "kind": (_as_str, None),
    "discs": (_as_discs, None),
}
_FILE = {
    "id": (_as_str, _OMIT),
    "note": (_as_str, ""),
    "expected": (_kind("expected", unique=_CLASS_EXPECTED, hform=_CLASS_EXPECTED,
                       candidates=_CANDIDATES_EXPECTED), _OMIT),
    "out_of_scope": (_as_bool, False),
    # a row outside the tool's scope is read no further
    (lambda v, path, got: got["out_of_scope"]): None,
    (lambda v, path, got: "character" in v and "gram" in v
     and _fail(path, "give at most one of character and gram")): None,
    # read with the character block, after its own relations
    "relations": (_raw, []),
    "character": (_load_sheet, _OMIT),
    (lambda v, path, got: "relations" in v and "character" not in got
     and _fail("relations", "requires a character block")): None,
    "gram": (_load_gram, _OMIT),
    # recorded, not read
    "degree": (_raw, _OMIT),
    "field": (_raw, _OMIT),
}


def load_fact_file(path) -> FactFile:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")  # JSON text is UTF-8
    except (OSError, UnicodeDecodeError) as e:
        raise FactFileError(str(e))
    try:
        if raw.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", raw, 0)
        doc = _DECODER.decode(raw)
    except json.JSONDecodeError as e:
        raise FactFileError("line %d, column %d: %s" % (e.lineno, e.colno, e.msg))
    except ValueError:
        # an integer literal beyond the interpreter's limit, whose own
        # message differs between Python versions
        _fail(_DOC, "an integer has more than %d digits" % sys.get_int_max_str_digits())
    except RecursionError:
        _fail(_DOC, "nested too deeply")
    got = {"id": path.stem}
    f = _read(doc, _DOC, _FILE, got)
    return FactFile(id=got["id"], sheet=f.get("character"),
                    gram=f.get("gram"), expected=f.get("expected"),
                    out_of_scope=f["out_of_scope"], note=f["note"])


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
    try:
        return _place(INF if s == "inf" else int(s))
    except ValueError:
        raise ValueError('place must be "inf" or a prime') from None


# the digit runs Fraction converts before any check: numerator, denominator,
# either side of the point and the exponent, which becomes 10**exponent
_RATIONAL = re.compile(r"[-+]?([\d_]*)(?:/([\d_]+)|(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?)")


def _parse_rational(s: str) -> Fraction:
    m = _RATIONAL.fullmatch(s.strip())
    limit = sys.get_int_max_str_digits()
    try:
        big = m and limit and (max(len(r.replace("_", "")) for r in m.groups("")) > limit
                               or abs(int(m[4] or 0)) > limit)
        a = None if big else Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError("malformed rational %s" % _brief(s))
    try:
        # str() refuses integers over the interpreter's digit limit, which
        # the fact-file loader also rejects; 10**limit is one digit over
        str(10 ** limit if big else a)
    except ValueError:
        raise ValueError("rational %s: more than %d digits" % (_brief(s), limit)) from None
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
    try:
        delta0 = int(delta0)
    except ValueError:
        pass  # ImagQuadField refuses the string itself, in its own words
    L = ImagQuadField(delta0)
    ans = is_norm(a, L)
    if as_json:
        print(json.dumps({"a": str(a), "delta0": L.delta0, "is_norm": ans}))
    else:
        print("true" if ans else "false")
    return 0


def _check_corpus_row(ff: FactFile):
    # returns (ok, detail) for one fact file with an expected block
    exp, gram = ff.expected, ff.gram is not None
    # the fit is decided before either kind of row is answered
    if exp["kind"] not in (("hform",) if gram else ("unique", "candidates")):
        return False, ("expected kind %r does not fit a %s row"
                       % (exp["kind"], "gram" if gram else "character"))
    report = _gram_report(ff) if gram else _sheet_report(ff)
    if report.transfer is not None and not report.transfer["clifford_ok"]:
        return False, "clifford invariant mismatch"
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
        # FactFileError, DeduceError, or a field that does not split the class
        except ValueError as e:
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


# command: (function, arguments, help); a bracketed argument may be left out.
# main reads a token that starts with "-" as an option under a file or [dir]
# argument, and prints a --json failure as an error report under a file one
COMMANDS = {
    "deduce": (cmd_deduce, "file", "run the deduction engine on a fact file"),
    "hform": (cmd_hform, "file", "invariants of a Gram matrix fact file"),
    "symbol": (cmd_symbol, "a b [place]", "Hilbert symbols (a,b)_v"),
    "isnorm": (cmd_isnorm, "a delta0", "is a a norm of Q(sqrt(-delta0))?"),
    "corpus": (cmd_corpus, "[dir]", "re-check a directory of fact files"),
}
_USAGE = "usage: udisc [-h] [--json] command [argument ...]"


def _usage_error(usage: str, reason: str) -> int:
    print("%s\nudisc: error: %s" % (usage, reason), file=sys.stderr)
    return 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command, *values = [t for t in argv if t not in ("--json", "--")] or [None]
    fn, args, _ = COMMANDS.get(command, (None, "", None))
    options = [v for v in values if v.startswith("-")] if args in ("file", "[dir]") else []
    if command in ("-h", "--help") or {"-h", "--help"} & set(options):
        print(_USAGE + "\n\nunitary discriminants of Hermitian forms and characters"
              "\n\ncommands:")
        for name, (_, args, text) in COMMANDS.items():
            print("  %-22s%s" % (name + " " + args, text))
        print("\n--json, before or after the command, prints JSON instead of text")
        return 0
    if fn is None:
        return _usage_error(_USAGE, "missing command" if command is None else
                            "unknown command %r (choose from %s)"
                            % (command, ", ".join(COMMANDS)))
    usage = "usage: udisc [--json] %s %s" % (command, args)
    if options:
        return _usage_error(usage, "unrecognized option %r" % options[0])
    if not 0 <= len(args.split()) - len(values) <= args.count("["):
        return _usage_error(usage, "wrong number of arguments: %d" % len(values))
    try:
        return fn("--json" in argv, *values)
    except ValueError as e:
        if "--json" in argv and args == "file":
            report = Report(id=Path(values[0]).stem, kind="error", error=str(e))
            print(json.dumps(report_to_json(report), indent=2))
        else:
            print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
