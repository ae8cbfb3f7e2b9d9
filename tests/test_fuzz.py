"""Seeded mutation fuzz of the bundled fact files through `main`.

Each mutant replaces one value of one corpus file: with another type, its
negative, zero, a huge power of 2, null, a list, or deep nesting. Every
mutant goes through `deduce` and `hform`, in text and `--json`, and each
file's mutants through `corpus`. Whatever the input, `main` must return an
exit code and raise nothing.
"""
import json
import random

import pytest

from udisc.cli import corpus_dir, main

SEED = 8
MUTANTS_PER_FILE = 6
# json.loads parses nesting this deep only past the recursion limit
TOO_DEEP = 200_000
CORPUS = sorted(corpus_dir().glob("*.json"))
# values json.dumps cannot write, spliced into the text in place of a mark:
# an integer over the 4300-digit limit, and nesting too deep to parse
RAW = {
    "\x00long\x00": "1" + "0" * 5000,
    "\x00deep\x00": "[" * TOO_DEEP + "]" * TOO_DEEP,
}


def _slots(node):
    # (container, key) for every value below node, depth first
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield node, k
        if isinstance(v, (dict, list)) and v:
            yield from _slots(v)


def _replacements(v):
    out = ["x", 1.5, True, None, {}, [], [v], 0, 2 ** 64, 2 ** 14000,
           [[[[[[[[[[v]]]]]]]]]], *RAW]
    if isinstance(v, int) and not isinstance(v, bool):
        out += [-v, v + 1, v * 2 ** 64]
    return out


def _mutants(path, rng):
    text = path.read_text()
    for _ in range(MUTANTS_PER_FILE):
        doc = json.loads(text)
        slots = list(_slots(doc))
        node, key = rng.choice(slots)
        node[key] = rng.choice(_replacements(node[key]))
        out = json.dumps(doc)
        for mark, raw in RAW.items():
            out = out.replace(json.dumps(mark), raw)
        yield out


def _run(capsys, argv, codes):
    rc = main(argv)
    capsys.readouterr()
    assert rc in codes, argv


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_mutants_exit_cleanly(path, tmp_path, capsys):
    rng = random.Random("%d:%s" % (SEED, path.stem))
    for i, text in enumerate(_mutants(path, rng)):
        f = tmp_path / ("%s_%d.json" % (path.stem, i))
        f.write_text(text)
        for json_flag in ([], ["--json"]):
            _run(capsys, json_flag + ["deduce", str(f)], {0, 1, 2})
            _run(capsys, ["hform", str(f)] + json_flag, {0, 1})
    _run(capsys, ["corpus", str(tmp_path)], {0, 3})
    _run(capsys, ["--json", "corpus", str(tmp_path)], {0, 3})


# files that json cannot decode: a UTF-16 byte order mark, and nesting
# beyond the recursion limit
UNDECODABLE = {
    "bom": b"\xff\xfe{\x00}\x00",
    "deep": b"[" * TOO_DEEP,
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
@pytest.mark.parametrize("command", ["deduce", "hform"])
def test_undecodable_file_is_an_error(case, command, tmp_path, capsys):
    f = tmp_path / (case + ".json")
    f.write_bytes(UNDECODABLE[case])
    assert main([command, str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["--json", command, str(f)]) == 1
    assert json.loads(capsys.readouterr().out)["kind"] == "error"


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_undecodable_file_fails_its_corpus_row(case, tmp_path, capsys):
    (tmp_path / (case + ".json")).write_bytes(UNDECODABLE[case])
    assert main(["corpus", str(tmp_path)]) == 3
    row = capsys.readouterr().out.splitlines()[0].split()
    assert row[:4] == ["FAIL", case, "load", "error:"]
