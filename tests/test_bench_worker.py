"""Smoke test of the benchmark's call surface.

`bench/worker.py` calls udisc's functions by name. Each of its four pass
modes runs here, unchanged, on a two-row manifest of corpus files, so a
change that removes or renames a name the benchmark calls fails tier-1.
The test only reads `bench/`.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
CORPUS = ROOT / "src" / "udisc" / "corpus"

SHEETS = ["o10p2_chi33", "u37_chi27"]
GRAMS = ["q10_i2", "q10_unimod4"]


def manifest_rows(mode):
    rows = []
    for fid in SHEETS if mode.startswith("sheets") else GRAMS:
        path = CORPUS / (fid + ".json")
        row = {"id": fid, "path": str(path)}
        if mode == "sheets-probe":
            doc = json.loads(path.read_text())
            row.update(ram=doc["expected"]["ram"], d0=doc["character"]["delta0"])
        rows.append(row)
    return rows


def run_worker(mode, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(manifest_rows(mode)))
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(WORKER), mode, str(manifest), "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1])


@pytest.mark.parametrize("mode", ["sheets", "forms"])
def test_answer_modes(mode, tmp_path):
    result = run_worker(mode, tmp_path)
    answers = result["answers"]
    assert [a["id"] for a in answers] == [r["id"] for r in manifest_rows(mode)]
    assert [a["error"] for a in answers] == [None, None]
    assert all(a["text"] and json.loads(a["json"]) for a in answers)
    assert result["pass_s"] > 0


@pytest.mark.parametrize("mode,names", [
    ("sheets-probe", {"deduce.local_rules", "brauer.l_disc", "brauer.pair_presentation"}),
    ("forms-probe", {"cli.load", "hermforms.gram", "hermforms.diagonalize",
                     "hermforms.delta", "hermforms.disc",
                     "hermforms.quad_invariants", "hermforms.clifford"}),
])
def test_probe_modes(mode, names, tmp_path):
    result = run_worker(mode, tmp_path)
    spans = result["spans"]
    assert {row[0] for row in spans} == names
    # every probe ran once per manifest row
    assert len(spans) == 2 * len(names)
