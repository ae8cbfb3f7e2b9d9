"""The README's command-line examples run as shown.

Every `udisc ...` line in a README code block goes through `main` from
the repository root, and the shown `deduce` transcript must match the
real output. Every key that a table of the fact-file loader accepts is
named in the README's "Fact files" section, and the "Deduction" rule table
names each row of `_RULES`.
"""
import shlex
from pathlib import Path

import pytest

from udisc import cli
from udisc.cli import main
from udisc.deduce import _RULES

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = README.split("```")[1::2]
EXAMPLES = [line.split("#")[0].split()[1:]
            for block in BLOCKS for line in block.splitlines()
            if line.startswith("udisc ")]
TRANSCRIPTS = [block.strip().splitlines() for block in BLOCKS
               if block.strip().startswith("$ udisc ")]


def test_examples_are_found():
    assert [argv[0] for argv in EXAMPLES] == [
        "symbol", "symbol", "isnorm", "hform", "deduce", "corpus"]
    assert len(TRANSCRIPTS) == 1


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_example_answers(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("lines", TRANSCRIPTS, ids=lambda t: t[0])
def test_transcript_matches(lines, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(lines[0])[2:]) == 0
    out = capsys.readouterr().out.splitlines()
    assert (out[0], out[-1]) == (lines[1], lines[-1])
    # "..." stands for the rest of a line, or alone for whole lines
    for line in lines[1:]:
        if line.endswith("..."):
            assert any(o.startswith(line[:-3]) for o in out), line
        else:
            assert line in out, line


def _is_table(t):
    # a schema table: rows (reader, default), and rules keyed by a function
    return isinstance(t, dict) and t and all(
        row is None and callable(k) or isinstance(k, str) and isinstance(row, tuple)
        and len(row) == 2 and callable(row[0]) for k, row in t.items())


TABLES = {name: t for name, t in vars(cli).items() if _is_table(t)}


def test_loader_tables_are_found():
    assert {"_FILE", "_SHEET", "_CONSTITUENT", "_GRAM", "_CANDIDATES_EXPECTED"} <= set(TABLES)
    assert len(TABLES) == 13


def test_fact_file_keys_are_documented():
    section = README.split("### Fact files")[1].split("\n## ")[0]
    accepted = {k for t in TABLES.values() for k in t if isinstance(k, str)}
    assert sorted(k for k in accepted if "`%s`" % k not in section) == []


def test_rule_table_names_every_rule():
    section = README.split("* **Deduction.**")[1].split("\n## ")[0]
    rows = [line.strip() for line in section.splitlines() if line.strip().startswith("| ")]
    names = [row.strip("|").split("|")[-1].strip() for row in rows[1:]]
    assert names == [r.name for r in _RULES]
