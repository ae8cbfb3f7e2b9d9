#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny profile of every workload, the
result format, the metric lists of BENCHMARK.json, and that the checks
reject corrupted answers.

    python3 bench/selftest.py        # from the repository root, ~30 s

Prints one line per check and exits 1 on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def ok(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        sys.exit(1)


def bench(workload, trace, cwd=run.ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--profile", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    last = proc.stdout.strip().split("\n")[-1]
    return json.loads(last)


def test_spec():
    ok(list(E2E) == ["answer_p50_ms", "pass_s", "setup_s", "peak_rss_mb"],
       "BENCHMARK.json lists the four end-to-end metrics")
    ok(list(LAYER) == run.layer_metric_names("full"),
       "BENCHMARK.json lists the per-layer metrics the full profile reports")


def test_runs():
    for workload in ("cli", "sheets", "forms"):
        proc = bench(workload, 0)
        ok(proc.returncode == 0, "%s tiny run exits 0" % workload)
        res = result_line(proc)
        ok(sorted(res) == ["attempted", "correct", "failed", "metrics"],
           "%s result has exactly the four keys" % workload)
        ok(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
           "%s answers are correct (%d attempted)" % (workload, res["attempted"]))
        ok({k: v["unit"] for k, v in res["metrics"].items()} == E2E,
           "%s reports every end-to-end metric with its unit" % workload)
        ok(all(v["value"] > 0 for v in res["metrics"].values()),
           "%s end-to-end values are positive" % workload)
    proc = bench("sheets", 1)
    res = result_line(proc)
    names = run.layer_metric_names("tiny")
    ok(proc.returncode == 0 and list(res["metrics"]) == names,
       "traced run reports every per-layer metric of the tiny profile")


def corrupt(workload, edit):
    """Run one tiny pass, apply `edit` to its answers, return the problems."""
    work = run.ROOT / ".bench_work" / "selftest"
    inputs = run.build_inputs(workload, 7, "tiny", work)
    if workload == "cli":
        passes = [run.cli_round(inputs["mix"], False)]
    else:
        passes = [run.worker_pass(workload, inputs["manifest"], False)]
    clean = run.check_passes(workload, inputs, passes)[2]
    edit(inputs, passes[0]["answers"])
    bad = run.check_passes(workload, inputs, passes)[2]
    shutil.rmtree(work, ignore_errors=True)
    return clean, bad


def _edit_json(answers, item_id, fn):
    for a in answers:
        if a["id"] == item_id:
            doc = json.loads(a["json"])
            fn(doc)
            a["json"] = json.dumps(doc, indent=2)
            return
    raise KeyError(item_id)


def test_corruption():
    def bump_disc(inputs, answers):
        _edit_json(answers, "unique_k2_q1", lambda d: d.update(disc=d["disc"] * 3))

    def drop_candidate(inputs, answers):
        _edit_json(answers, "candidates_u3_q3", lambda d: d["items"].pop())

    def wrong_pair(inputs, answers):
        a = next(a for a in answers if a["id"] == "unique_k2_q3")
        a["text"] = re.sub(r"Delta = \(-?\d+,-?\d+\)", "Delta = (1,1)", a["text"], count=1)

    def flip_hasse(inputs, answers):
        def fn(d):
            v = next(iter(d["transfer"]["hasse"]))
            d["transfer"]["hasse"][v] *= -1
        _edit_json(answers, "dense_n3_q3", fn)

    def wrong_delta(inputs, answers):
        _edit_json(answers, "diag_n2_q1", lambda d: d.update(ram=["inf", 7]))

    def flip_symbol(inputs, answers):
        a = answers[0]
        a["stdout"] = a["stdout"].replace(":1", ":X").replace(":-1", ":1").replace(":X", ":-1")

    def flip_norm(inputs, answers):
        a = answers[3]
        a["stdout"] = "false\n" if a["stdout"].strip() == "true" else "true\n"

    def corpus_fail(inputs, answers):
        answers[-1]["stdout"] = answers[-1]["stdout"].replace("all pass", "1 failure")

    cases = [("sheets", bump_disc, "a non-minimal unique disc"),
             ("sheets", drop_candidate, "a missing candidate"),
             ("sheets", wrong_pair, "a wrong displayed pair (a,b)"),
             ("forms", flip_hasse, "a flipped Hasse symbol"),
             ("forms", wrong_delta, "a wrong Delta"),
             ("cli", flip_symbol, "flipped Hilbert symbols"),
             ("cli", flip_norm, "a wrong norm verdict"),
             ("cli", corpus_fail, "a corpus failure")]
    for workload, edit, what in cases:
        clean, bad = corrupt(workload, edit)
        ok(not clean and bad, "%s: %s is rejected (%s)" % (workload, what, bad[0] if bad else "-"))


def test_bare_directory():
    # only BENCHMARK.json and the benchmark's files: no program to measure
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    ok(proc.returncode != 0 and not proc.stdout.strip(),
       "without the program the benchmark fails and prints no result")


if __name__ == "__main__":
    test_spec()
    test_bare_directory()
    test_corruption()
    test_runs()
    print("selftest passed")
