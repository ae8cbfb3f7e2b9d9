"""`udisc` gives the same exit code, stdout and stderr on a fixed set of argvs.

Each line of cli_golden.jsonl holds one argv and what `main` returned and
printed for it, run in process. The argvs are drawn from seeds, and their
input files are rebuilt for each run:

- `deduce` and `hform`, in text and `--json`, on every bundled corpus file;
- `corpus`, in text and `--json`;
- the `full` sheets and forms ladders of `bench/gen.py` for GEN_SEED, in
  both modes, and its cli rounds for CLI_SEEDS;
- seeded `symbol` and `isnorm` argvs, refused ones among them;
- one sheet per relation kind, a constituent with `ortho_disc`, an odd
  `q_class` of 7 places, `ortho_disc: 0`, an under-determined sheet and
  two that are not quasi-split;
- `corpus` on a directory whose rows pass, fail, or do not load;
- every 7th mutant of the loader golden, through `deduce` and `--json hform`;
- usage errors and missing files.

Left out because each takes over a second: the `sheets-probe` and
`forms-probe` ladders of `bench/gen.py` (k = 8 text reports, dense n = 12).

In the file, the corpus directory is written {corpus} and the directory of
the rebuilt inputs {tmp}. Rewrite the golden file only for an intended change
of an output, and list that change in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from test_loader_golden import CORPUS, mutants

from udisc.cli import corpus_dir, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.jsonl")
GEN_SEED = 73
CLI_SEEDS = (3, 5, 31, 73)
SEED = 12
MUTANT_STRIDE = 7


def _gen():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    return gen


def _write(tmp, name, doc):
    path = tmp / name
    path.write_text(json.dumps(doc))
    return str(path)


def _corpus_doc(stem):
    return json.loads((corpus_dir() / (stem + ".json")).read_text())


def _edge_sheets(tmp):
    """Files for the relation kinds no corpus sheet carries, and edge values."""
    induction = {"id": "induced",
                 "character": {"degree": 2, "delta0": 3,
                               "group_order_factors": {"2": 1, "3": 1, "5": 1}},
                 "relations": [{"kind": "induction", "psi_class_ram": ["inf", 5],
                                "index": 3, "field_degree_odd": True}]}
    tensor = {"id": "tensor",
              "character": {"degree": 4, "delta0": 3,
                            "group_order_factors": {"2": 2, "3": 1, "5": 1}},
              "relations": [{"kind": "tensor", "class_ram": [2, 5], "psi_degree": 3}]}
    odd = _corpus_doc("hn_chi25")
    odd["character"]["alpha_facts"]["q_class"] = ["inf", 2, 3, 5, 7, 11, 13]
    files = [_write(tmp, "induced.json", induction), _write(tmp, "tensor.json", tensor),
             _write(tmp, "odd_class.json", odd)]
    for name, value in (("ortho", [-3, 7]), ("ortho_zero", 0)):
        doc = _corpus_doc("u37_chi27")
        doc["relations"][0]["constituents"][0] = {
            "indicator": "+", "degree": 342, "class_ram": [], "ortho_disc": value}
        files.append(_write(tmp, name + ".json", doc))
    # eleven inert unknowns, more than resolve enumerates
    wide = {"id": "wide", "character": {
        "degree": 4, "delta0": 3, "split_schur_trivial": False,
        "group_order_factors": {str(p): 1 for p in (2, 3, 5, 11, 17, 23, 29, 41, 47, 53, 59)}}}
    files.append(_write(tmp, "wide.json", wide))
    for stem in ("on3_chi57", "on3_chi57_partial"):
        doc = _corpus_doc(stem)
        doc["character"]["quasi_split"] = False
        files.append(_write(tmp, stem + "_not_quasi_split.json", doc))
    return files


def _corpus_rows(tmp):
    """A directory for `corpus`: rows that pass, fail, lack an expected
    block, do not load, or are out of scope."""
    rows = tmp / "rows"
    rows.mkdir()
    for stem in ("hn_chi25", "q10_i2", "on3_chi31", "on3_chi57_partial"):
        _write(rows, stem + ".json", _corpus_doc(stem))
    wrong = _corpus_doc("o10p2_chi33")
    wrong["expected"]["disc"] = 7
    _write(rows, "wrong.json", wrong)
    gram = _corpus_doc("q10_unimod2")
    gram["expected"]["kind"] = "unique"
    _write(rows, "gram_kind.json", gram)
    candidates = _corpus_doc("on3_chi57_partial")
    candidates["expected"]["discs"] = [-5]
    _write(rows, "candidates.json", candidates)
    bare = _corpus_doc("hn_chi35")
    del bare["expected"]
    _write(rows, "bare.json", bare)
    (rows / "broken.json").write_text("{")
    return str(rows)


def _rational(rng):
    digits = rng.choice((1, 2, 4, 8))
    num = rng.choice((-1, 1)) * rng.randint(1, 10 ** digits)
    return str(num) if rng.random() < 0.5 else "%d/%d" % (num, rng.randint(1, 10 ** digits))


# malformed, zero or out-of-range arguments that symbol and isnorm refuse
REFUSED = ("0", "0/5", "1/0", "x", "", "1e5000", "3.5.1", "--1", "2/-3")


def _symbol_isnorm(rng):
    argvs = []
    for _ in range(150):
        a, b = _rational(rng), _rational(rng)
        mode = ["--json"] if rng.random() < 0.3 else []
        extra = [] if rng.random() < 0.6 else [rng.choice(("inf", "2", "3", "5", "7", "97"))]
        argvs.append(mode + ["symbol", a, b] + extra)
    for _ in range(80):
        mode = ["--json"] if rng.random() < 0.3 else []
        argvs.append(mode + ["isnorm", _rational(rng), str(rng.randint(1, 40))])
    for bad in REFUSED:
        argvs += [["symbol", bad, "3"], ["symbol", "-1", bad], ["isnorm", bad, "3"]]
    argvs += [["symbol", "2", "3", p] for p in ("1", "4", "-3", "x", "Inf")]
    argvs += [["isnorm", "5", d] for d in ("4", "0", "-3", "x", "12")]
    argvs += [["symbol"], ["symbol", "1"], ["symbol", "1", "2", "3", "4"], ["isnorm", "1"],
              ["--json", "symbol", "0", "1"], ["--json", "isnorm", "2", "9"]]
    return argvs


def _usage(tmp):
    missing = str(tmp / "missing.json")
    return [[], ["-h"], ["--json"], ["bogus"], ["deduce"], ["deduce", "-x", missing],
            ["deduce", missing], ["--json", "hform", missing], ["corpus", ""],
            ["corpus", str(tmp / "missing")], ["corpus", "a", "b"]]


def argvs(tmp: Path) -> list:
    """Every argv of the golden file; the files they name are written to tmp."""
    gen = _gen()
    out = []
    for cmd in ("deduce", "hform"):
        for path in CORPUS:
            out += [[cmd, str(path)], ["--json", cmd, str(path)]]
    out += [["corpus"], ["--json", "corpus"]]
    for kind, make, cmd in (("sheets", gen.sheets, "deduce"), ("forms", gen.forms, "hform")):
        (tmp / kind).mkdir()
        for item in make(random.Random("%s:%d" % (kind, GEN_SEED)), "full", tmp / kind):
            out += [[cmd, item["path"]], ["--json", cmd, item["path"]]]
    for seed in CLI_SEEDS:
        (tmp / ("cli%d" % seed)).mkdir()
        out += [m["argv"] for m in gen.cli_inputs(random.Random("cli:%d" % seed),
                                                  tmp / ("cli%d" % seed))]
    out += _symbol_isnorm(random.Random(SEED))
    for path in _edge_sheets(tmp):
        out += [["deduce", path], ["--json", "deduce", path]]
    rows = _corpus_rows(tmp)
    out += [["corpus", rows], ["--json", "corpus", rows]]
    (tmp / "mutants").mkdir()
    k = 0
    for path in CORPUS:
        for i, text in enumerate(mutants(path)):
            if k % MUTANT_STRIDE == 0:
                f = tmp / "mutants" / ("%s_%d.json" % (path.stem, i))
                f.write_text(text)
                out += [["deduce", str(f)], ["--json", "hform", str(f)]]
            k += 1
    out += _usage(tmp)
    # the cli rounds all run corpus
    return [list(a) for a in dict.fromkeys(map(tuple, out))]


def replay(tmp: Path) -> list:
    """One golden record per argv, with {corpus} and {tmp} for the two dirs."""
    dirs = ((str(corpus_dir()), "{corpus}"), (str(tmp), "{tmp}"))

    def generic(s):
        for real, name in dirs:
            s = s.replace(real, name)
        return s

    records = []
    for argv in argvs(tmp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        records.append({"argv": [generic(a) for a in argv], "rc": rc,
                        "out": generic(out.getvalue()), "err": generic(err.getvalue())})
    return records


def test_outputs_ignore_the_hash_seed(tmp_path):
    # under seeds 0 and 3, a Python set of the odd sheet's 7 places prints
    # them in different orders
    odd = next(p for p in _edge_sheets(tmp_path) if p.endswith("odd_class.json"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in (["deduce", odd], ["--json", "deduce", odd]):
        runs = [subprocess.run([sys.executable, "-m", "udisc.cli", *argv], capture_output=True,
                               text=True, timeout=120, env=dict(env, PYTHONHASHSEED=seed))
                for seed in ("0", "3")]
        assert len({(p.returncode, p.stdout, p.stderr) for p in runs}) == 1, argv


def test_outputs_match_golden():
    golden = GOLDEN.read_text().splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        got = replay(Path(tmp))
    assert len(got) == len(golden)
    for want, g in zip(golden, got):
        assert json.dumps(g) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text("".join(json.dumps(r) + "\n" for r in replay(Path(tmp))))
