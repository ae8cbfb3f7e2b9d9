"""One pass of the sheets or forms workload, in a fresh interpreter.

    python3 bench/worker.py <mode> <manifest.json> <trace 0|1>

The parent starts this script with `src` on PYTHONPATH, times it from spawn
to the "ready" line it prints once `udisc.cli` is imported, and reads the
JSON line it prints last. Modes:

    sheets         load, resolve and render every sheet of the manifest
    forms          run `hform_report` and render every Gram file
    sheets-probe   time deduce and brauer layers on their own
    forms-probe    time the hermforms layers on their own
    main           call `udisc.cli.main(argv)` for every argv of the manifest

With trace 1 the worker records a span around each call it makes into
udisc and returns the spans; with trace 0 it records only answer times.
"""

import contextlib
import io
import json
import sys
import time
from fractions import Fraction

import udisc.cli as cli
from udisc import brauer, deduce, hermforms, quadfield, symbols  # loaded by udisc.cli
from udisc.quadfield import ImagQuadField


class Spans:
    """Spans kept in memory: [name, start_ms, end_ms, item, tag]."""

    def __init__(self, on: bool):
        self.on = on
        self.rows = []
        self.t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name, item, tag=None):
        if not self.on:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.rows.append([name, (start - self.t0) * 1e3, (end - self.t0) * 1e3, item, tag])


def answer_sheet(path, sp, item):
    with sp.span("cli.load", item):
        ff = cli.load_fact_file(path)
    with sp.span("deduce.resolve", item):
        dd = deduce.resolve(ff.sheet)
    free = sum(1 for s in dd.statuses.values() if s is deduce.PlaceStatus.UNKNOWN)
    if sp.on and free >= 2:
        # tag resolve with the number of free places it enumerated over
        sp.rows[-1][4] = "u%d" % free
    with sp.span("cli.report", item):
        r = cli.report_from_deduction(dd)
    with sp.span("cli.render_text", item):
        text = cli.render_report_text(r)
    with sp.span("cli.render_json", item):
        js = json.dumps(cli.report_to_json(r), indent=2)
    return text, js


def answer_form(path, sp, item):
    with sp.span("cli.hform_report", item):
        r = cli.hform_report(path)
    # the sheets' text render is the one with a search in it; keep apart
    with sp.span("cli.render_form_text", item):
        text = cli.render_report_text(r)
    with sp.span("cli.render_json", item):
        js = json.dumps(cli.report_to_json(r), indent=2)
    return text, js


def run_pass(items, answer, sp):
    answers = []
    t_pass = time.perf_counter()
    for item in items:
        t = time.perf_counter()
        try:
            text, js = answer(item["path"], sp, item["id"])
            err = None
        except Exception as e:  # a failed answer is counted, not fatal
            text = js = None
            err = "%s: %s" % (type(e).__name__, e)
        answers.append({"id": item["id"], "ms": (time.perf_counter() - t) * 1e3,
                        "text": text, "json": js, "error": err})
    return answers, time.perf_counter() - t_pass


def probe_sheets(items, sp):
    # classes come from the parent (answers of an earlier pass), so no
    # resolve runs here first and warms the factoring cache for them
    for item in items:
        ff = cli.load_fact_file(item["path"])
        with sp.span("deduce.local_rules", item["id"]):
            deduce.apply_local_rules(ff.sheet)
        if "ram" in item:
            cls = brauer.BrauerClassQ(frozenset(item["ram"]))
            tag = "k%d" % len(cls.ram)
            with sp.span("brauer.l_disc", item["id"], tag):
                brauer.l_disc(cls, ImagQuadField(item["d0"]))
            with sp.span("brauer.pair_presentation", item["id"], tag):
                brauer.pair_presentation(cls)


def probe_forms(items, sp):
    for item in items:
        with sp.span("cli.load", item["id"]):
            ff = cli.load_fact_file(item["path"])
        h = ff.gram
        zero = h.field.elem(0, 0)
        diagonal = all(e == zero for i, row in enumerate(h.entries)
                       for j, e in enumerate(row) if i != j)
        # per-n points follow the dense forms, whose cost grows with n
        tag = None if diagonal else "n%d" % h.n
        with sp.span("hermforms.gram", item["id"]):
            hermforms.HermitianGram(h.field, h.entries)
        with sp.span("hermforms.diagonalize", item["id"]):
            hermforms.diagonalize(h)
        with sp.span("hermforms.delta", item["id"]):
            hermforms.delta(h)
        with sp.span("hermforms.disc", item["id"]):
            hermforms.disc(h)
        q = hermforms.transfer_quadratic(h)
        with sp.span("hermforms.quad_invariants", item["id"], tag):
            hermforms.quad_invariants(q)
        with sp.span("hermforms.clifford", item["id"], tag):
            hermforms.clifford_invariant(q)


def probe_main(items, sp):
    for item in items:
        out, err = io.StringIO(), io.StringIO()
        with sp.span("cli.main", item["id"]):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cli.main(item["argv"])
        spec = item["spec"]
        if "hilbert" in spec:
            a, b = (Fraction(x) for x in spec["hilbert"])
            with sp.span("symbols.hilbert", item["id"]):
                [symbols.hilbert(a, b, v) for v in symbols.relevant_places(a, b)]
        if "is_norm" in spec:
            a, d0 = spec["is_norm"]
            with sp.span("quadfield.is_norm", item["id"]):
                quadfield.is_norm(a, ImagQuadField(d0))


def main():
    print("ready", flush=True)
    mode, manifest, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(manifest) as f:
        items = json.load(f)
    sp = Spans(trace or mode.endswith("probe") or mode == "main")
    result = {"answers": [], "pass_s": None}
    if mode == "sheets":
        result["answers"], result["pass_s"] = run_pass(items, answer_sheet, sp)
    elif mode == "forms":
        result["answers"], result["pass_s"] = run_pass(items, answer_form, sp)
    elif mode == "sheets-probe":
        probe_sheets(items, sp)
    elif mode == "forms-probe":
        probe_forms(items, sp)
    elif mode == "main":
        probe_main(items, sp)
    else:
        raise SystemExit("unknown mode %r" % mode)
    result["spans"] = sp.rows
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
