#!/usr/bin/env python3
"""Benchmark of udisc as it is used: cold processes, sheets, forms.

    python3 bench/run.py --workload {cli,sheets,forms} --seed N --seconds S --trace {0,1}

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (answer_p50_ms, pass_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones, from a separate
run that records spans. bench/README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
CORPUS = SRC / "udisc" / "corpus"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 120
PROBE_REPEATS = 5
GEN_REPEATS = 9  # input generation takes ~1 ms for cli; its median needs many
PREFLIGHT_REPEATS = 3
IMPORT_ARGV = [sys.executable, "-c", "import udisc.cli"]


class Child:
    """One finished child process: exit code, output, wall time, peak RSS."""

    def __init__(self, argv, ready_line=False):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            self.ready_s = None
            if ready_line:
                first = proc.stdout.readline()
                self.ready_s = time.perf_counter() - t0
                if first.strip() != "ready":
                    self.ready_s = None
            # stderr is drained on a thread so neither pipe can fill up
            err = []
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            reader.start()
            self.stdout = proc.stdout.read()
            reader.join()
            self.stderr = err[0]
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            proc.stdout.close()
            proc.stderr.close()
        self.rc = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024.0


# --- inputs -----------------------------------------------------------------


def corpus_items(kind: str) -> list:
    """The bundled rows with an expected block: sheets or Gram matrices."""
    items = []
    for path in sorted(CORPUS.glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("out_of_scope") or "expected" not in doc:
            continue
        if kind == "sheets" and "character" in doc:
            c = doc["character"]
            meta = {"kind": "corpus", "expected": doc["expected"], "d0": c["delta0"],
                    "degree": c["degree"]}
        elif kind == "forms" and "gram" in doc:
            g = doc["gram"]
            entries = [[(Fraction(a, b), Fraction(c, d)) for a, b, c, d in row]
                       for row in g["entries"]]
            meta = {"kind": "form", "d0": g["delta0"], "n": len(entries),
                    "entries": entries, "expected": doc["expected"]}
        else:
            continue
        items.append({"id": "corpus_" + path.stem, "path": str(path), "meta": meta})
    return items


def build_inputs(workload, seed, profile, directory: Path) -> dict:
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "cli":
        return {"mix": gen.cli_inputs(rng, directory)}
    make = gen.sheets if workload == "sheets" else gen.forms
    items = make(rng, profile, directory) + corpus_items(workload)
    manifest = write_manifest(directory, "manifest.json",
                              [{"id": it["id"], "path": it["path"]} for it in items])
    return {"items": items, "manifest": manifest}


def write_manifest(directory: Path, name: str, rows) -> str:
    path = directory / name
    path.write_text(json.dumps(rows))
    return str(path)


# --- passes -----------------------------------------------------------------


def cli_round(mix, trace):
    """Run every argv of the mix as its own `python -m udisc.cli` process."""
    answers, spans = [], []
    t0 = time.perf_counter()
    for i, m in enumerate(mix):
        start = (time.perf_counter() - t0) * 1e3
        c = Child([sys.executable, "-m", "udisc.cli"] + m["argv"])
        answers.append({"id": "cli%d" % i, "ms": c.wall_s * 1e3, "rc": c.rc,
                        "stdout": c.stdout, "stderr": c.stderr, "rss_mb": c.rss_mb})
        if trace:
            spans.append(["cli.process", start, start + c.wall_s * 1e3, "cli%d" % i,
                          m["argv"][0]])
    return {"answers": answers, "pass_s": time.perf_counter() - t0, "ready_s": None,
            "rss_mb": max(a["rss_mb"] for a in answers), "spans": spans}


def worker_pass(mode, manifest, trace):
    """One fresh worker interpreter running one pass or probe."""
    c = Child([sys.executable, str(HERE / "worker.py"), mode, manifest, str(int(trace))],
              ready_line=True)
    lines = c.stdout.strip().split("\n")
    if c.rc != 0 or c.ready_s is None or not lines or not lines[-1].startswith("{"):
        raise RuntimeError("worker %s failed (exit %s): %s" % (mode, c.rc, c.stderr[-2000:]))
    res = json.loads(lines[-1])
    res["ready_s"] = c.ready_s
    res["rss_mb"] = c.rss_mb
    return res


def run_loop(workload, inputs, seconds, trace):
    """Whole passes until the next one would end after `seconds`."""
    passes = []
    t0 = time.perf_counter()
    walls = []
    while True:
        t = time.perf_counter()
        if workload == "cli":
            passes.append(cli_round(inputs["mix"], trace))
        else:
            passes.append(worker_pass(workload, inputs["manifest"], trace))
        walls.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            return passes


# --- checks -----------------------------------------------------------------


# udisc deduce exits 0 on a unique answer and 2 on a candidate list
EXPECTED_RC = {"unique": 0, "candidates": 2}


def check_cli_answer(ctx, spec, a) -> list:
    kind = spec["kind"]
    if kind == "symbol":
        return check.check_symbol(spec, a["rc"], a["stdout"])
    if kind == "isnorm":
        return check.check_isnorm(spec, a["rc"], a["stdout"])
    if kind == "corpus":
        last = a["stdout"].strip().split("\n")[-1]
        return [] if a["rc"] == 0 and last.endswith(": all pass") else [
            "corpus exited %d: %s" % (a["rc"], last)]
    meta = spec["meta"]
    if kind == "hform":
        js = check.form_json_from_text(a["stdout"])
        if js is None:
            return ["unparsable hform output %r" % a["stdout"][:200]]
        return check.check_form(ctx, meta, check.form_truth(meta), js)
    # deduce: JSON output is checked directly, text through the JSON it shows
    if spec["json"]:
        return check.check_sheet(ctx, meta, None, a["stdout"])
    first = a["stdout"].split("\n")[0]
    parsed = check.parse_unique_line(first)
    if parsed is None:
        return ["unparsable deduce output %r" % first]
    disc, a_, b_, ram = parsed
    out = check.check_unique(ctx, meta, {"kind": "unique", "disc": disc, "ram": list(ram)})
    if oracle.pair_class(a_, b_) != meta["ram"]:
        out.append("displayed (%d,%d)_Q is not the planted class" % (a_, b_))
    return out


def failed_answer(workload, spec, a) -> bool:
    """The operation itself failed: an exception, or an exit code of error."""
    if workload != "cli":
        return a["error"] is not None
    want = 0
    if spec["kind"] == "deduce":
        want = EXPECTED_RC[spec["meta"]["kind"]]
    return a["rc"] != want or "Traceback" in a["stderr"]


def check_passes(workload, inputs, passes):
    """(attempted, failed, problems) over every answer of every pass."""
    ctx = check.Context()
    specs = ([m["spec"] for m in inputs["mix"]] if workload == "cli"
             else [it["meta"] for it in inputs["items"]])
    truths = {}
    seen = {}
    attempted = failed = 0
    problems = []
    for p in passes:
        if len(p["answers"]) != len(specs):
            raise RuntimeError("a pass answered %d of %d inputs" % (len(p["answers"]), len(specs)))
        for i, (spec, a) in enumerate(zip(specs, p["answers"])):
            attempted += 1
            if failed_answer(workload, spec, a):
                failed += 1
                continue
            key = (i, a.get("stdout"), a.get("text"), a.get("json"))
            if key not in seen:
                if workload == "cli":
                    found = check_cli_answer(ctx, spec, a)
                elif workload == "sheets":
                    found = check.check_sheet(ctx, spec, a["text"], a["json"])
                else:
                    if i not in truths:
                        truths[i] = check.form_truth(spec)
                    js = json.loads(a["json"])
                    found = check.check_form(ctx, spec, truths[i], js)
                    found += check.check_form_text(a["text"], js)
                seen[key] = found
                problems += ["%s: %s" % (a["id"], f) for f in found]
    return attempted, failed, problems


# --- metrics ----------------------------------------------------------------


def end_to_end(passes, gen_s, ready_s) -> dict:
    answers = [a["ms"] for p in passes for a in p["answers"]]
    setup = statistics.median(gen_s) + statistics.median(ready_s)
    return {
        "answer_p50_ms": {"value": statistics.median(answers), "unit": "ms"},
        "pass_s": {"value": statistics.median(p["pass_s"] for p in passes), "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": max(p["rss_mb"] for p in passes), "unit": "MB"},
    }


def _layer_args(spec):
    # the arguments of the symbols / quadfield call behind a cli question
    if spec["kind"] == "symbol" and "place" not in spec:
        return {"hilbert": [str(spec["a"]), str(spec["b"])]}
    if spec["kind"] == "isnorm":
        return {"is_norm": [spec["a"], spec["d0"]]}
    return {}


def timed_children(argv, n):
    return [Child(argv).wall_s * 1e3 for _ in range(n)]


def probe(workload, seed, profile, work, loop_passes):
    """(spans by name, counts, span rows): the workload's own traced passes,
    plus one traced pass of each other workload and the layer probes, all in
    fresh workers."""
    spans = {"host.python_start": timed_children([sys.executable, "-c", "pass"], PROBE_REPEATS),
             "cli.import": timed_children(IMPORT_ARGV, PROBE_REPEATS)}
    rows = [r for p in loop_passes for r in p["spans"]] if workload == "cli" else []
    counts = {"deduce.candidates": [], "hermforms.places": []}
    cli_in = build_inputs("cli", seed, profile, work / "cli")
    main_manifest = write_manifest(work, "main.json", [
        {"id": "cli%d" % i, "argv": m["argv"], "spec": _layer_args(m["spec"])}
        for i, m in enumerate(cli_in["mix"])])
    rows += worker_pass("main", main_manifest, True)["spans"]
    for kind in ("sheets", "forms"):
        inputs = build_inputs(kind, seed, profile, work / kind)
        passes = loop_passes if kind == workload else [worker_pass(kind, inputs["manifest"], True)]
        for p in passes:
            rows += p["spans"]
            docs = [json.loads(a["json"]) for a in p["answers"] if a["json"]]
            if kind == "sheets":
                counts["deduce.candidates"].append(
                    sum(len(d["items"]) for d in docs if d["kind"] == "candidates"))
            else:
                counts["hermforms.places"].append(sum(len(d["transfer"]["hasse"]) for d in docs))
        make = gen.sheets if kind == "sheets" else gen.forms
        extra = make(random.Random("%s-probe:%d" % (kind, seed)), profile,
                     work / kind, kind + "-probe")
        probes = []
        for it in inputs["items"] + extra:
            row = {"id": it["id"], "path": it["path"]}
            if it["meta"]["kind"] == "unique":
                row.update(ram=list(it["meta"]["ram"]), d0=it["meta"]["d0"])
            probes.append(row)
        manifest = write_manifest(work, kind + "-probe.json", probes)
        rows += worker_pass(kind + "-probe", manifest, True)["spans"]
    for name, start, end, item, tag in rows:
        spans.setdefault(name, []).append(end - start)
        if tag:
            spans.setdefault("%s.%s" % (name, tag), []).append(end - start)
    return spans, counts, rows


def layer_metric_names(profile) -> list:
    """Every per-layer metric the traced run reports for a profile."""
    lad = gen.PROFILES[profile]
    sheets = lad["sheets"] + lad["sheets-probe"]
    ks = sorted({size for shape, size, _ in sheets if shape == "unique"})
    us = sorted({size for shape, size, _ in lad["sheets"] if shape == "candidates"})
    ns = sorted({size for shape, size, _ in lad["forms"] + lad["forms-probe"]
                 if shape == "dense"})
    names = ["host.python_start_ms", "cli.import_ms", "cli.main_ms", "symbols.hilbert_ms",
             "quadfield.is_norm_ms", "cli.load_ms",
             "cli.render_text_ms", "cli.render_json_ms", "deduce.local_rules_ms",
             "deduce.resolve_ms"]
    names += ["deduce.resolve_ms.u%d" % u for u in us] + ["deduce.candidates"]
    names += ["brauer.l_disc_ms.k%d" % k for k in ks]
    names += ["brauer.pair_presentation_ms.k%d" % k for k in ks]
    names += ["hermforms.%s_ms" % s for s in ("gram", "disc", "delta", "diagonalize")]
    names += ["hermforms.quad_invariants_ms.n%d" % n for n in ns]
    names += ["hermforms.clifford_ms.n%d" % n for n in ns]
    return names + ["hermforms.places"]


def per_layer(spans, counts, profile) -> dict:
    """Median span per call for times, median per pass for counts."""
    metrics = {}
    for name in layer_metric_names(profile):
        if name in counts:
            if counts[name]:
                metrics[name] = {"value": statistics.median(counts[name]), "unit": "count"}
            continue
        # "brauer.l_disc_ms.k6" is measured by the spans "brauer.l_disc.k6"
        span = name.replace("_ms", "")
        if spans.get(span):
            metrics[name] = {"value": statistics.median(spans[span]), "unit": "ms"}
    return metrics


# --- main -------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=["cli", "sheets", "forms"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--profile", choices=sorted(gen.PROFILES), default="full",
                    help="input sizes; 'tiny' is for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "udisc" / "cli.py").is_file() or not CORPUS.is_dir():
        print("error: run from the udisc repository root (no src/udisc here)", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        gen_s = []
        for _ in range(GEN_REPEATS):
            t = time.perf_counter()
            inputs = build_inputs(args.workload, args.seed, args.profile, work / "inputs")
            gen_s.append(time.perf_counter() - t)
        ready_s = None
        if args.workload == "cli" and not args.trace:
            # no worker to start: check the program imports, as a worker would
            ready_s = [Child(IMPORT_ARGV).wall_s for _ in range(PREFLIGHT_REPEATS)]
        passes = run_loop(args.workload, inputs, args.seconds, bool(args.trace))
        attempted, failed, problems = check_passes(args.workload, inputs, passes)
        if args.trace:
            spans, counts, rows = probe(args.workload, args.seed, args.profile, work, passes)
            metrics = per_layer(spans, counts, args.profile)
        else:
            metrics = end_to_end(passes, gen_s, ready_s or [p["ready_s"] for p in passes])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    per_item = {}
    for p in passes:
        for a in p["answers"]:
            per_item.setdefault(a["id"], []).append(a["ms"])
    detail = dict(result, problems=problems[:50], profile=args.profile,
                  passes=[p["pass_s"] for p in passes],
                  answer_ms={k: statistics.median(v) for k, v in per_item.items()})
    (OUT / ("result-%s.json" % stem)).write_text(json.dumps(detail, indent=1))
    if args.trace:
        (OUT / ("trace-%s.json" % stem)).write_text(json.dumps(
            {"columns": ["name", "start_ms", "end_ms", "item", "tag"], "spans": rows}))
    for p in problems[:20]:
        print("problem:", p, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
