"""udisc does the same counted work on a fixed set of inputs.

Wall time on a shared machine is noisy; the number of Hilbert symbols
evaluated, searches run and numbers factored is not. Each line of
work_golden.jsonl holds one input and what answering it counted, in
process and from cold caches, as the benchmark worker answers it: load,
`resolve` or `hform_report`, then the text and JSON renders. The inputs
are every in-scope corpus file and the `full` sheets and forms ladders of
`bench/gen.py` for the CLI golden's GEN_SEED, rebuilt for each run.

The counts are taken by wrapping functions here, so the runtime pays
nothing for them:

- `hasse_symbol`: every evaluation of the symbol kernel;
- `pair_hilbert`: the `hilbert` calls of `pair_presentation`'s search;
- `l_disc`: every l_disc call;
- `representatives`: builds of `brauer._representatives`' per-field table;
- `factor`: `arith._factor_abs` cache misses;
- `rho`, `ecm`: calls of the two splitting methods;
- `factor_prime`, `factor_trial`, `factor_rho`, `factor_ecm`: the same
  misses by the last path each took: answered at once by the cached
  primality test, by trial division alone, with rho, or with ECM;
- `is_prime_big`: `arith.is_prime` cache misses above 10^6.

Trial division is seen as a loop over `arith._SMALL_PRIMES` outside
`is_prime`, which loops over the same list.

A cached function keeps its cache, and only its misses are counted; one
that loses its cache counts every call. A change of any count rewrites
the lines concerned, listed in CHANGES.md with before and after:

    PYTHONPATH=src python tests/test_work_golden.py
"""
import json
import random
import tempfile
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from test_cli_golden import GEN_SEED, _gen
from test_loader_golden import CORPUS

from udisc import arith, brauer, cli, deduce, hermforms, quadfield, symbols

GOLDEN = Path(__file__).with_name("work_golden.jsonl")

# (key, module, name): the bodies to count, each looked up where its callers
# find it
COUNTED = (
    ("hasse_symbol", symbols, "hasse_symbol"),
    ("hasse_symbol", hermforms, "hasse_symbol"),
    ("pair_hilbert", brauer, "hilbert"),
    ("l_disc", deduce, "l_disc"),
    ("l_disc", hermforms, "l_disc"),
    ("representatives", brauer, "_representatives"),
    ("rho", arith, "_rho"),
    ("ecm", arith, "_ecm"),
)
KEYS = ("hasse_symbol", "pair_hilbert", "l_disc", "representatives", "factor", "rho", "ecm",
        "factor_prime", "factor_trial", "factor_rho", "factor_ecm", "is_prime_big")
BIG = 10 ** 6


def _count(monkeypatch, counts):
    for key, module, name in COUNTED:
        fn = getattr(module, name)
        body = getattr(fn, "__wrapped__", fn)

        def counted(*args, _key=key, _body=body):
            counts[_key] += 1
            return _body(*args)

        if body is not fn:  # an lru_cache: a new one, so only misses count
            counted = lru_cache(**fn.cache_parameters())(counted)
        monkeypatch.setattr(module, name, counted)
    _count_factoring(monkeypatch, counts)


class _SmallPrimes(list):
    """arith._SMALL_PRIMES, counting the loops over it outside is_prime."""

    in_is_prime = False
    trial_loops = 0

    def __iter__(self):
        self.trial_loops += not self.in_is_prime
        return super().__iter__()


def _count_factoring(monkeypatch, counts):
    small = _SmallPrimes(arith._SMALL_PRIMES)
    prime_body, factor_body = arith.is_prime.__wrapped__, arith._factor_abs.__wrapped__

    @lru_cache(**arith.is_prime.cache_parameters())
    def is_prime(n):
        counts["is_prime_big"] += n > BIG
        small.in_is_prime = True
        try:
            return prime_body(n)
        finally:
            small.in_is_prime = False

    @lru_cache(**arith._factor_abs.cache_parameters())
    def factor_abs(n):
        counts["factor"] += 1
        ecm, rho, loops = counts["ecm"], counts["rho"], small.trial_loops
        out = factor_body(n)
        counts["factor_ecm" if counts["ecm"] > ecm else "factor_rho" if counts["rho"] > rho
               else "factor_trial" if small.trial_loops > loops else "factor_prime"] += 1
        return out

    monkeypatch.setattr(arith, "_SMALL_PRIMES", small)
    monkeypatch.setattr(arith, "_factor_abs", factor_abs)
    for module in (arith, cli, deduce, quadfield, symbols):
        monkeypatch.setattr(module, "is_prime", is_prime)


def _clear_caches():
    for module in (arith, brauer, quadfield):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def _answer(path: str, is_gram: bool):
    if is_gram:
        r = cli.hform_report(path)
    else:
        r = cli.report_from_deduction(deduce.resolve(cli.load_fact_file(path).sheet))
    cli.render_report_text(r)
    json.dumps(cli.report_to_json(r), indent=2)


def inputs(tmp: Path) -> list:
    """(name, path, is_gram) for every input; the generated files go to tmp."""
    out = []
    for path in CORPUS:
        doc = json.loads(path.read_text())
        if not doc.get("out_of_scope"):
            out.append(("corpus/" + path.stem, str(path), "gram" in doc))
    gen = _gen()
    for kind, make in (("sheets", gen.sheets), ("forms", gen.forms)):
        (tmp / kind).mkdir()
        for item in make(random.Random("%s:%d" % (kind, GEN_SEED)), "full", tmp / kind):
            out.append(("%s/%s" % (kind, item["id"]), item["path"], kind == "forms"))
    return out


def records(monkeypatch, tmp: Path) -> list:
    counts = Counter()
    _count(monkeypatch, counts)
    out = []
    for name, path, is_gram in inputs(tmp):
        _clear_caches()
        counts.clear()
        _answer(path, is_gram)
        out.append({"input": name, **{k: counts[k] for k in KEYS}})
    return out


def test_work_matches_golden(monkeypatch, tmp_path):
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    got = records(monkeypatch, tmp_path)
    assert [r["input"] for r in got] == [r["input"] for r in golden]
    assert [g for g, w in zip(got, golden) if g != w] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        GOLDEN.write_text("".join(json.dumps(r) + "\n" for r in records(mp, Path(tmp))))
