"""The fact-file loader's verdicts on mutated corpus files match a golden file.

Each mutant of a bundled fact file carries two faults in one object or
list: a removed key, a value of the wrong type, `[1, 0]`, `["inf", "inf"]`,
or an unknown key holding a wrong-typed value. For every pair of keys of
every object there are three mutants: the first key removed and the second
given a bad value, the reverse, and both given bad values. Each object also
gets an unknown key and one more fault, and each list two bad entries. The
bad values are drawn with `random.Random` seeded by the file name. So the
golden file pins which of two faults the loader names first, and with it
the order in which it reads keys and checks the rules between them. For
each mutant it holds the `FactFileError` message, or "ok".

Rewrite the golden file only for an intended change of a loader message:

    PYTHONPATH=src python tests/test_loader_golden.py
"""
import json
import random
import tempfile
from pathlib import Path

from udisc.cli import FactFileError, corpus_dir, load_fact_file

SEED = 19
GOLDEN = Path(__file__).with_name("loader_golden.jsonl")
CORPUS = sorted(corpus_dir().glob("*.json"))
# as JSON text, so that each mutant gets its own list or object
WRONG_TYPES = ("7", '"x"', "true", "null", "[]", "{}")
VALUE_FAULTS = ("type", "zero_den", "double_inf")
FAULTS = ("remove", *VALUE_FAULTS)


def _containers(node):
    # every non-empty object and list in node, node first, depth first
    if node:
        yield node
    for v in node.values() if isinstance(node, dict) else node:
        if isinstance(v, (dict, list)):
            yield from _containers(v)


def _plans(doc, rng):
    """(container index, two (key, fault) pairs) for each mutant of doc."""
    for c, node in enumerate(_containers(doc)):
        if isinstance(node, list):
            yield c, [(rng.randrange(len(node)), rng.choice(VALUE_FAULTS))
                      for _ in range(2)]
            continue
        keys = list(node)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                yield c, [(a, "remove"), (b, rng.choice(VALUE_FAULTS))]
                yield c, [(a, rng.choice(VALUE_FAULTS)), (b, "remove")]
                yield c, [(a, rng.choice(VALUE_FAULTS)), (b, rng.choice(VALUE_FAULTS))]
        yield c, [("bogus", "unknown"), (rng.choice(keys), rng.choice(FAULTS))]


def _wrong_type(rng, v):
    return rng.choice([w for w in map(json.loads, WRONG_TYPES) if type(w) is not type(v)])


def mutants(path):
    rng = random.Random("%d:%s" % (SEED, path.stem))
    text = path.read_text()
    for c, faults in _plans(json.loads(text), rng):
        doc = json.loads(text)
        node = list(_containers(doc))[c]
        for key, fault in faults:
            if fault == "remove":
                del node[key]
            elif fault == "unknown":
                node[key] = _wrong_type(rng, 1)
            elif fault == "type":
                node[key] = _wrong_type(rng, node[key])
            else:
                node[key] = {"zero_den": [1, 0], "double_inf": ["inf", "inf"]}[fault]
        yield json.dumps(doc)


def verdict(path):
    try:
        load_fact_file(path)
    except FactFileError as e:
        return str(e)
    return "ok"


def verdicts():
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "mutant.json"
        for path in CORPUS:
            for i, text in enumerate(mutants(path)):
                f.write_text(text)
                out.append([path.stem, i, verdict(f)])
    return out


def test_golden_covers_every_file():
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert {g[0] for g in golden} == {p.stem for p in CORPUS}
    assert "ok" in {g[2] for g in golden} and len({g[2] for g in golden}) > 100


def test_verdicts_match_golden():
    golden = GOLDEN.read_text().splitlines()
    got = verdicts()
    assert len(got) == len(golden)
    for want, g in zip(golden, got):
        assert json.dumps(g) == want


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(v) + "\n" for v in verdicts()))
