"""Command line surface: fact-file loading, report rendering, exit codes.

Expected strings are frozen by hand from the published tables and from
direct Hilbert-symbol computations; the CLI must reproduce them exactly.
"""
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import udisc
from udisc import arith
from udisc.brauer import BrauerClassQ
from udisc.cli import (
    MAX_GRAM_DIM,
    FactFile,
    FactFileError,
    Report,
    corpus_dir,
    deduce_report,
    hform_report,
    load_fact_file,
    main,
    report_from_json,
    report_to_json,
)
from udisc.hermforms import HermitianGram
from udisc.quadfield import ImagQuadField, QuadElem
from udisc.symbols import INF


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def corpus_path(fid):
    return str(corpus_dir() / (fid + ".json"))


def write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload, indent=2))
    return str(p)


# minimal sheet payloads used by the error-path tests

SHEET_CHI33 = {
    "id": "o10p2_chi33",
    "character": {
        "degree": 110670,
        "delta0": 15,
        "group_order_factors": {"2": 20, "3": 5, "5": 2, "7": 1, "17": 1, "31": 1},
        "mod_facts": [
            {"p": 7, "status": "UnitaryStable"},
            {"p": 5, "status": "Irreducible"},
            {"p": 5, "status": "OrthSquare"},
        ],
    },
}

# eleven inert unknowns over Q(sqrt-3), beyond the enumeration cutoff
SHEET_WIDE = {
    "id": "wide",
    "character": {
        "degree": 4,
        "delta0": 3,
        "split_schur_trivial": False,
        "group_order_factors": {
            "2": 1, "3": 1, "5": 1, "11": 1, "17": 1, "23": 1,
            "29": 1, "41": 1, "47": 1, "53": 1, "59": 1,
        },
    },
}

# every place decided but an odd number ramify
SHEET_PARITY = {
    "id": "parity",
    "character": {
        "degree": 2,
        "delta0": 3,
        "group_order_factors": {"2": 1, "3": 1},
        "mod_facts": [
            {"p": 2, "status": "UnitaryStable"},
            {"p": 3, "status": "OrthSquare"},
        ],
    },
}

GRAM_I2 = {
    "id": "i2",
    "gram": {
        "delta0": 10,
        "entries": [
            [[1, 1, 0, 1], [0, 1, 0, 1]],
            [[0, 1, 0, 1], [1, 1, 0, 1]],
        ],
    },
}


class TestSymbolCommand:
    def test_minus_one_minus_one(self, capsys):
        rc, out, _ = run(capsys, "symbol", "-1", "-1")
        assert rc == 0
        assert out.strip() == "inf:-1 2:-1"

    def test_single_place(self, capsys):
        rc, out, _ = run(capsys, "symbol", "-1", "-1", "2")
        assert rc == 0
        assert out.strip() == "2:-1"

    def test_infinite_place(self, capsys):
        rc, out, _ = run(capsys, "symbol", "-1", "-1", "inf")
        assert rc == 0
        assert out.strip() == "inf:-1"

    def test_two_three(self, capsys):
        rc, out, _ = run(capsys, "symbol", "2", "3")
        assert rc == 0
        assert out.strip() == "inf:1 2:-1 3:-1"

    def test_fraction_argument(self, capsys):
        rc, out, _ = run(capsys, "symbol", "7/5", "3", "5")
        assert rc == 0
        assert out.strip() == "5:-1"

    def test_negative_fraction_argument(self, capsys):
        rc, out, _ = run(capsys, "symbol", "-7/5", "3", "5")
        assert rc == 0
        assert out.strip() == "5:-1"

    def test_values_multiply_to_one(self, capsys):
        rc, out, _ = run(capsys, "symbol", "30", "-42")
        assert rc == 0
        vals = [int(tok.split(":")[1]) for tok in out.split()]
        prod = 1
        for v in vals:
            prod *= v
        assert prod == 1

    def test_zero_argument_rejected(self, capsys):
        rc, _, err = run(capsys, "symbol", "0", "3")
        assert rc == 1
        assert "nonzero" in err

    def test_malformed_argument_rejected(self, capsys):
        rc, _, err = run(capsys, "symbol", "x", "3")
        assert rc == 1
        assert err != ""

    def test_composite_place_rejected(self, capsys):
        rc, _, err = run(capsys, "symbol", "-1", "-1", "4")
        assert rc == 1
        assert "prime" in err

    # a place is whatever int() reads as a prime, so signs, surrounding space
    # and non-ASCII digits pass; a string over the digit limit is refused
    @pytest.mark.parametrize("place,want", [
        ("0", None),
        ("+3", "3:-1\n"),
        (" 3 ", "3:-1\n"),
        ("3.0", None),
        ("٣", "3:-1\n"),
        ("1000000007", "1000000007:1\n"),
        ("1" * 5000, None),
    ])
    def test_place_argument(self, capsys, place, want):
        got = run(capsys, "symbol", "2", "3", place)
        if want is None:
            assert got == (1, "", 'error: place must be "inf" or a prime\n')
        else:
            assert got == (0, want, "")

    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, "--json", "symbol", "-1", "-1")
        assert rc == 0
        assert json.loads(out) == {
            "a": "-1", "b": "-1", "values": {"inf": -1, "2": -1},
        }

    def test_json_flag_after_subcommand(self, capsys):
        rc, out, _ = run(capsys, "symbol", "--json", "-1", "-1")
        assert rc == 0
        assert json.loads(out)["values"] == {"inf": -1, "2": -1}

    # 10^5000 and 10^-5000 have more digits than str() will print
    @pytest.mark.parametrize("command", ["symbol", "isnorm"])
    @pytest.mark.parametrize("a", ["1e5000", "-1e-5000"])
    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_rational_over_digit_limit_rejected(self, capsys, command, a, mode):
        rc, out, err = run(capsys, *mode, command, a, "3")
        assert (rc, out) == (1, "")
        assert err == "error: rational %r: more than %d digits\n" % (a, sys.get_int_max_str_digits())


    # an argument over 40 characters is named by its first 40 and its length
    @pytest.mark.parametrize("command,a,want", [
        ("symbol", "1" * 5000, "rational {}: more than {} digits"),
        ("symbol", "1/" + "3" * 4400, "rational {}: more than {} digits"),
        ("isnorm", "7" * 4301, "rational {}: more than {} digits"),
        ("symbol", "x" * 41, "malformed rational {}"),
        ("symbol", "1" * 41 + "e5000", "rational {}: more than {} digits"),
    ], ids=["5000-digits", "long-denominator", "isnorm-4301-digits", "41-letters",
            "long-exponent"])
    def test_long_argument_is_shown_cut(self, capsys, command, a, want):
        shown = "%r... (%d characters)" % (a[:40], len(a))
        want = want.format(shown, sys.get_int_max_str_digits())
        assert run(capsys, command, a, "3") == (1, "", "error: %s\n" % want)

    # Fraction would compute 10**exponent before any digit check
    @pytest.mark.parametrize("command", ["symbol", "isnorm"])
    @pytest.mark.parametrize("a", ["1e1000000000", "-1e-1000000000", "1E+4301"])
    def test_exponent_over_digit_limit_rejected_at_once(self, capsys, command, a):
        start = time.perf_counter()
        rc, out, err = run(capsys, command, a, "3")
        assert time.perf_counter() - start < 1.0
        assert (rc, out) == (1, "")
        assert err == "error: rational %r: more than %d digits\n" % (a, sys.get_int_max_str_digits())

    def test_exponent_within_digit_limit_is_read(self, capsys):
        rc, out, _ = run(capsys, "symbol", "1e4299", "3")
        assert (rc, out) == run(capsys, "symbol", "10", "3")[:2]


class TestIsnormCommand:
    def test_seven_is_a_norm_for_delta0_three(self, capsys):
        rc, out, _ = run(capsys, "isnorm", "7", "3")
        assert rc == 0
        assert out.strip() == "true"

    def test_minus_one_is_not(self, capsys):
        rc, out, _ = run(capsys, "isnorm", "-1", "3")
        assert rc == 0
        assert out.strip() == "false"

    def test_field_norm_of_the_generator(self, capsys):
        rc, out, _ = run(capsys, "isnorm", "10", "10")
        assert rc == 0
        assert out.strip() == "true"

    def test_fraction_argument(self, capsys):
        rc, out, _ = run(capsys, "isnorm", "7/9", "7")
        assert out.strip() == "true"
        rc, out, _ = run(capsys, "isnorm", "-7/9", "7")
        assert out.strip() == "false"

    def test_bad_delta0(self, capsys):
        rc, _, err = run(capsys, "isnorm", "3", "0")
        assert rc == 1
        assert err != ""
        rc, _, err = run(capsys, "isnorm", "3", "4")
        assert rc == 1
        assert err != ""

    # a delta0 that int() does not read, over the digit limit too, is refused
    # in ImagQuadField's words rather than the interpreter's, and one over 40
    # characters is shown as its first 40 and its length
    @pytest.mark.parametrize("delta0", ["x", "3.0", "1" * 5000])
    def test_delta0_not_an_integer(self, capsys, delta0):
        shown = repr(delta0) if len(delta0) <= 40 else "'%s'... (5000 characters)" % ("1" * 40)
        assert run(capsys, "isnorm", "5", delta0) == (
            1, "", "error: delta0 must be a positive integer, got %s\n" % shown)

    def test_zero_rejected(self, capsys):
        rc, _, err = run(capsys, "isnorm", "0", "3")
        assert rc == 1
        assert "nonzero" in err

    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, "--json", "isnorm", "7", "3")
        assert rc == 0
        assert json.loads(out) == {"a": "7", "delta0": 3, "is_norm": True}


# parity must ramify one of 7 and 13, which both split in Q(sqrt-3)
SHEET_SPLIT_ONLY = {
    "id": "split_only",
    "character": {
        "degree": 2,
        "delta0": 3,
        "split_schur_trivial": False,
        "group_order_factors": {"2": 1, "3": 1, "7": 1, "13": 1},
        "mod_facts": [
            {"p": 2, "status": "Irreducible"},
            {"p": 3, "status": "OrthSquare"},
        ],
    },
}


class TestHformCommand:
    def test_identity_rank_two(self, capsys, tmp_path):
        path = write_json(tmp_path, "i2.json", GRAM_I2)
        rc, out, _ = run(capsys, "hform", path)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "disc=-1 ram{inf,2} clifford=OK"
        assert "transfer dim=4 disc=1 signature=(4,0) definite=true" in lines
        assert "hasse inf:1 2:1 5:1" in lines

    def test_hasse_line_is_an_isometry_invariant(self, capsys, tmp_path):
        # [[49,7],[7,2]] = G^T G for G = [[7,1],[0,1]], isometric to the
        # identity; 7 splits in Q(sqrt-3), so it is not a place of the line
        lines = []
        for rows in ([[1, 0], [0, 1]], [[49, 7], [7, 2]]):
            payload = {"id": "iso", "gram": {"delta0": 3, "entries": [
                [[x, 1, 0, 1] for x in row] for row in rows]}}
            rc, out, _ = run(capsys, "hform", write_json(tmp_path, "iso.json", payload))
            assert rc == 0
            lines.append(out.splitlines()[2])
        # (1, -3)_v (3, -1)_v = (3, -1)_v: -1 at 2 and 3
        assert lines == ["hasse inf:1 2:-1 3:-1"] * 2

    def test_only_det_and_the_field_are_factored(self, monkeypatch, tmp_path):
        # a dense n = 8 form over Q(sqrt-7); the pivots are ratios of leading
        # minors and the transfer has 16 coefficients, none of them factored
        rng = random.Random(8)
        n, d0 = 8, 7
        cells = [[None] * n for _ in range(n)]
        for i in range(n):
            cells[i][i] = [rng.randint(-40, 40) or 1, rng.randint(1, 6), 0, 1]
            for j in range(i + 1, n):
                x, y = [rng.randint(-9, 9), rng.randint(1, 4)], [rng.randint(-9, 9), 1]
                cells[i][j], cells[j][i] = x + y, x + [-y[0], 1]
        path = write_json(tmp_path, "dense.json",
                          {"id": "dense", "gram": {"delta0": d0, "entries": cells}})
        det = math.prod(load_fact_file(path).gram.diagonal)
        arith._factor_abs.cache_clear()
        arith.is_prime.cache_clear()
        factored = []
        real = arith._factor_abs

        def counted(m):
            factored.append(m)
            return real(m)

        monkeypatch.setattr(arith, "_factor_abs", counted)
        hform_report(path)
        # delta0 = 7, field_disc = -7: their divisors, primes of the places
        # found, and det's numerator and denominator
        allowed = {abs(det.numerator), det.denominator}
        assert allowed <= set(factored)
        assert all(m in allowed or 14 % m == 0 or arith.is_prime(m) for m in factored), (
            sorted(set(factored)))

    def test_class_represented_by_a_split_prime(self, capsys, tmp_path):
        # (3) over Q(sqrt-14): the class ram{2,7} of (-56, 3)_Q has no
        # representative over -1, 2 and 7; the split prime 3 is one
        path = write_json(tmp_path, "three.json", {
            "id": "three",
            "gram": {"delta0": 14, "entries": [[[3, 1, 0, 1]]]},
        })
        rc, out, _ = run(capsys, "hform", path)
        assert rc == 0
        assert out.splitlines()[0] == "disc=3 ram{2,7} clifford=OK"

    def test_identity_rank_four(self, capsys):
        rc, out, _ = run(capsys, "hform", corpus_path("q10_i4"))
        assert rc == 0
        assert out.splitlines()[0] == "disc=1 ram{} clifford=OK"

    def test_scaled_diagonal(self, capsys):
        rc, out, _ = run(capsys, "hform", corpus_path("q10_unimod2"))
        assert rc == 0
        assert out.splitlines()[0] == "disc=-2 ram{inf,5} clifford=OK"

    def test_each_stage_runs_once_per_form(self, monkeypatch):
        import udisc.hermforms as hf

        # the one elimination runs when the Gram matrix is built; det(h) is
        # taken once, and the places, delta and the transfer all read it or
        # the diagonal
        calls = []
        for name in ("_congruence_diagonal", "signed_det"):
            def counted(*args, _real=getattr(hf, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(hf, name, counted)
        hform_report(corpus_path("q10_unimod4"))
        assert sorted(calls) == ["_congruence_diagonal", "signed_det"]

    def test_nondiagonal_entries(self, capsys, tmp_path):
        # det = 2*6 - N(1 + sqrt(-10)) = 12 - 11 = 1, positive definite
        payload = {
            "id": "offdiag",
            "gram": {
                "delta0": 10,
                "entries": [
                    [[2, 1, 0, 1], [1, 1, 1, 1]],
                    [[1, 1, -1, 1], [6, 1, 0, 1]],
                ],
            },
        }
        path = write_json(tmp_path, "offdiag.json", payload)
        rc, out, _ = run(capsys, "hform", path)
        assert rc == 0
        assert out.splitlines()[0] == "disc=-1 ram{inf,2} clifford=OK"
        assert "definite=true" in out

    def test_degenerate_is_an_error(self, capsys, tmp_path):
        payload = {
            "id": "degenerate",
            "gram": {
                "delta0": 10,
                "entries": [
                    [[1, 1, 0, 1], [0, 1, 0, 1]],
                    [[0, 1, 0, 1], [0, 1, 0, 1]],
                ],
            },
        }
        path = write_json(tmp_path, "bad.json", payload)
        rc, _, err = run(capsys, "hform", path)
        assert rc == 1
        assert "degenerate" in err

    def test_non_hermitian_is_an_error(self, capsys, tmp_path):
        payload = {
            "id": "skew",
            "gram": {
                "delta0": 10,
                "entries": [
                    [[1, 1, 0, 1], [1, 1, 0, 1]],
                    [[2, 1, 0, 1], [1, 1, 0, 1]],
                ],
            },
        }
        path = write_json(tmp_path, "skew.json", payload)
        rc, _, err = run(capsys, "hform", path)
        assert rc == 1

    def test_dimension_limit(self, capsys, tmp_path):
        def identity(n):
            return {"id": "id%d" % n, "gram": {"delta0": 1, "entries": [
                [[int(i == j), 1, 0, 1] for j in range(n)] for i in range(n)]},
                "expected": {"kind": "hform", "disc": 1, "ram": []}}

        path = write_json(tmp_path, "at.json", identity(MAX_GRAM_DIM))
        rc, out, _ = run(capsys, "hform", path)
        assert (rc, out.splitlines()[0]) == (0, "disc=1 ram{} clifford=OK")
        over = tmp_path / "over"
        over.mkdir()
        path = write_json(over, "over.json", identity(MAX_GRAM_DIM + 1))
        msg = "gram.entries: %d rows, more than the limit of %d" % (
            MAX_GRAM_DIM + 1, MAX_GRAM_DIM)
        rc, out, err = run(capsys, "hform", path)
        assert (rc, out, err) == (1, "", "error: %s\n" % msg)
        rc, out, _ = run(capsys, "--json", "hform", path)
        data = json.loads(out)
        assert (rc, data["kind"], data["error"]) == (1, "error", msg)
        rc, out, _ = run(capsys, "corpus", str(over))
        assert rc == 3
        assert out.splitlines()[0].split()[:4] == ["FAIL", "over", "load", "error:"]
        assert out.splitlines()[0].endswith(msg)

    def test_missing_gram_block(self, capsys, tmp_path):
        path = write_json(tmp_path, "nogram.json", SHEET_CHI33)
        rc, _, err = run(capsys, "hform", path)
        assert rc == 1
        assert "gram" in err

    def test_out_of_scope_file_is_an_error(self, capsys):
        rc, out, err = run(capsys, "hform", corpus_path("on3_chi31"))
        assert (rc, out) == (1, "")
        assert err.startswith("error: on3_chi31: out of scope: character field")

    def test_json_flag_after_subcommand(self, capsys):
        path = corpus_path("q10_i2")
        rc, out, _ = run(capsys, "hform", path, "--json")
        assert rc == 0
        assert json.loads(out) == report_to_json(hform_report(path))

    def test_json_output(self, capsys, tmp_path):
        path = write_json(tmp_path, "i2.json", GRAM_I2)
        rc, out, _ = run(capsys, "--json", "hform", path)
        assert rc == 0
        data = json.loads(out)
        assert data["kind"] == "unique"
        assert data["disc"] == -1
        assert data["ram"] == ["inf", 2]
        assert data["transfer"]["clifford_ok"] is True
        assert data["transfer"]["signature"] == [4, 0]
        assert data["transfer"]["hasse"] == {"inf": 1, "2": 1, "5": 1}

    def test_report_round_trip(self, tmp_path):
        path = write_json(tmp_path, "i2.json", GRAM_I2)
        rep = hform_report(path)
        again = report_from_json(json.loads(json.dumps(report_to_json(rep))))
        assert again == rep


UNIQUE_ROWS = [
    ("o10p2_chi33", -1, "ram{inf,3}"),
    ("o10p2_chi51", -2, "ram{inf,5}"),
    ("o10p2_chi68", 1, "ram{}"),
    ("o10p2_chi79", -3, "ram{inf,3}"),
    ("o10p2_chi81", -3, "ram{inf,3}"),
    ("on3_chi3", 1, "ram{}"),
    ("on3_chi5", 1, "ram{}"),
    ("on3_chi53", 55, "ram{5,11}"),
    ("on3_chi57", -10, "ram{inf,2,3,5}"),
    ("on3_chi59", 1, "ram{}"),
    ("on3_chi69", -11, "ram{inf,11}"),
    ("hn_chi25", -3, "ram{inf,3}"),
    ("hn_chi35", 3, "ram{3,5}"),
    ("u37_chi13", -7, "ram{inf,7}"),
    ("u37_chi15", -7, "ram{inf,7}"),
    ("u37_chi27", 21, "ram{3,7}"),
    ("s63_chi2", -2, "ram{inf,2}"),
]


class TestDeduceCommand:
    def test_first_line_matches_published_row(self, capsys):
        rc, out, _ = run(capsys, "deduce", corpus_path("o10p2_chi33"))
        assert rc == 0
        assert out.splitlines()[0] == "disc = -1, Delta = (-1,-3)_Q, ram{inf,3}"

    def test_trace_is_printed(self, capsys):
        rc, out, _ = run(capsys, "deduce", corpus_path("o10p2_chi33"))
        lines = out.splitlines()
        assert "trace:" in lines
        assert any("parity closure" in ln for ln in lines)

    def test_alpha_row(self, capsys):
        rc, out, _ = run(capsys, "deduce", corpus_path("hn_chi35"))
        assert rc == 0
        assert out.splitlines()[0] == "disc = 3, Delta = (3,5)_Q, ram{3,5}"
        assert any("alpha fixed algebra" in ln for ln in out.splitlines())

    def test_quaternion_row(self, capsys):
        rc, out, _ = run(capsys, "deduce", corpus_path("s63_chi2"))
        assert rc == 0
        assert out.splitlines()[0] == "disc = -2, Delta = (-1,-1)_Q, ram{inf,2}"

    def test_no_pair_presentation_still_renders(self, capsys, monkeypatch):
        monkeypatch.setattr("udisc.cli.pair_presentation", lambda c: None)
        rc, out, err = run(capsys, "deduce", corpus_path("o10p2_chi33"))
        assert rc == 0
        assert out.splitlines()[0] == "disc = -1, ram{inf,3}"
        assert "Traceback" not in out + err

    def test_restriction_row(self, capsys):
        rc, out, _ = run(capsys, "deduce", corpus_path("u37_chi27"))
        assert rc == 0
        assert out.splitlines()[0] == "disc = 21, Delta = (3,-7)_Q, ram{3,7}"

    @pytest.mark.parametrize("fid,disc,ram", UNIQUE_ROWS)
    def test_every_unique_corpus_row(self, capsys, fid, disc, ram):
        rc, out, _ = run(capsys, "deduce", corpus_path(fid))
        assert rc == 0
        first = out.splitlines()[0]
        assert first.startswith("disc = %d," % disc)
        assert first.endswith(ram)

    def test_superscript_key_is_a_load_error(self, capsys, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["group_order_factors"]["\u00b2"] = 1
        path = write_json(tmp_path, "sup.json", payload)
        rc, out, err = run(capsys, "deduce", path)
        assert rc == 1
        assert out == ""
        assert err == (
            "error: character.group_order_factors.\u00b2: expected a prime key\n"
        )

    def test_candidate_list(self, capsys):
        rc, out, _ = run(capsys, "deduce", corpus_path("on3_chi57_partial"))
        assert rc == 2
        lines = out.splitlines()
        assert lines[0] == "candidates = {-5, -10}"
        assert "  -5 ram{inf,5}" in lines
        assert "  -10 ram{inf,2,3,5}" in lines

    def test_under_determined(self, capsys, tmp_path):
        path = write_json(tmp_path, "wide.json", SHEET_WIDE)
        rc, out, _ = run(capsys, "deduce", path)
        assert rc == 2
        lines = out.splitlines()
        assert lines[0] == "under-determined: 11 free places"
        assert "  free: 2, 3, 5, 11, 17, 23, 29, 41, 47, 53, 59" in lines

    def test_not_quasi_split_has_no_disc(self, capsys, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["quasi_split"] = False
        path = write_json(tmp_path, "nqs.json", payload)
        rc, out, _ = run(capsys, "deduce", path)
        assert rc == 0
        assert out.splitlines()[0] == "disc = n/a, Delta = (-1,-3)_Q, ram{inf,3}"

    def test_not_quasi_split_candidates_are_counted(self, capsys, tmp_path):
        payload = json.load(open(corpus_path("on3_chi57_partial")))
        payload["character"]["quasi_split"] = False
        path = write_json(tmp_path, "nqs.json", payload)
        rc, out, _ = run(capsys, "deduce", path)
        assert rc == 2
        assert out.splitlines()[:3] == [
            "candidates = 2 classes", "  ram{inf,5}", "  ram{inf,2,3,5}"]

    def test_parity_violation_is_an_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "parity.json", SHEET_PARITY)
        rc, _, err = run(capsys, "deduce", path)
        assert rc == 1
        assert "parity" in err

    def test_split_place_is_an_error(self, capsys, tmp_path):
        payload = json.loads(json.dumps(SHEET_SPLIT_ONLY))
        payload["character"]["group_order_factors"].pop("13")
        path = write_json(tmp_path, "split.json", payload)
        rc, out, err = run(capsys, "deduce", path)
        assert (rc, out) == (1, "")
        assert "ramifies 7, which splits in Q(sqrt(-3))" in err

    def test_no_candidate_left_is_an_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "split.json", SHEET_SPLIT_ONLY)
        rc, out, err = run(capsys, "deduce", path)
        assert (rc, out) == (1, "")
        assert "every free place (7, 13) splits" in err
        rc, out, _ = run(capsys, "deduce", "--json", path)
        assert rc == 1
        assert json.loads(out)["kind"] == "error"

    def test_out_of_scope_file_is_an_error(self, capsys):
        rc, _, err = run(capsys, "deduce", corpus_path("on3_chi31"))
        assert rc == 1
        assert "out of scope" in err

    def test_missing_character_block(self, capsys):
        rc, _, err = run(capsys, "deduce", corpus_path("q10_i2"))
        assert rc == 1
        assert "character" in err

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, "deduce", "/no/such/file.json")
        assert rc == 1
        assert err != ""

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{ nope")
        rc, _, err = run(capsys, "deduce", str(p))
        assert rc == 1
        assert "line 1" in err

    def test_byte_order_mark_is_refused_as_json_refuses_it(self, capsys, tmp_path):
        p = tmp_path / "bom.json"
        p.write_bytes(b"\xef\xbb\xbf" + json.dumps(SHEET_CHI33).encode())
        with pytest.raises(json.JSONDecodeError) as e:
            json.loads(p.read_text(encoding="utf-8"))
        assert run(capsys, "deduce", str(p)) == (
            1, "", "error: line 1, column 1: %s\n" % e.value.msg)

    def test_schema_error_names_the_path(self, capsys, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["mod_facts"][0]["status"] = "Weird"
        path = write_json(tmp_path, "weird.json", payload)
        rc, _, err = run(capsys, "deduce", path)
        assert rc == 1
        assert "mod_facts[0].status" in err

    def test_float_rational_rejected(self, capsys, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["alpha_facts"] = {
            "q_class": [], "m": 3, "indicator_ext": "+", "alpha_disc": 0.5,
        }
        path = write_json(tmp_path, "floaty.json", payload)
        rc, _, err = run(capsys, "deduce", path)
        assert rc == 1
        assert "alpha_disc" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["degres"] = 4
        path = write_json(tmp_path, "typo.json", payload)
        rc, _, err = run(capsys, "deduce", path)
        assert rc == 1
        assert "degres" in err

    def test_json_error_report(self, capsys, tmp_path):
        path = write_json(tmp_path, "parity.json", SHEET_PARITY)
        rc, out, _ = run(capsys, "--json", "deduce", path)
        assert rc == 1
        data = json.loads(out)
        assert data["kind"] == "error"
        assert "parity" in data["error"]

    def test_json_matches_text_data(self, capsys):
        path = corpus_path("o10p2_chi33")
        rc, out, _ = run(capsys, "--json", "deduce", path)
        assert rc == 0
        data = json.loads(out)
        assert data["kind"] == "unique"
        assert data["disc"] == -1
        assert data["ram"] == ["inf", 3]
        assert all(len(t) == 3 for t in data["trace"])
        assert data == report_to_json(deduce_report(path))

    def test_report_round_trip_on_all_rows(self):
        for fid, _, _ in UNIQUE_ROWS:
            rep = deduce_report(corpus_path(fid))
            again = report_from_json(json.loads(json.dumps(report_to_json(rep))))
            assert again == rep

    def test_candidates_report_round_trip(self):
        rep = deduce_report(corpus_path("on3_chi57_partial"))
        assert rep.kind == "candidates"
        assert [it["disc"] for it in rep.items] == [-5, -10]
        again = report_from_json(json.loads(json.dumps(report_to_json(rep))))
        assert again == rep


# relations of the two kinds no corpus sheet carries, over Q(sqrt-3)
SHEET_INDUCTION = {
    "id": "induced",
    "character": {"degree": 2, "delta0": 3,
                  "group_order_factors": {"2": 1, "3": 1, "5": 1}},
    "relations": [{"kind": "induction", "psi_class_ram": ["inf", 5],
                   "index": 3, "field_degree_odd": True}],
}

SHEET_TENSOR = {
    "id": "tensor",
    "character": {"degree": 4, "delta0": 3,
                  "group_order_factors": {"2": 2, "3": 1, "5": 1}},
    "relations": [{"kind": "tensor", "class_ram": [2, 5], "psi_degree": 3}],
}


class TestRelationKinds:
    """Induction and tensor relations read from a fact file.

    By hand: -5 and 5 are inert in Q(sqrt-3), and (-3,-5)_v = -1 exactly
    at inf and 5 ((-5|3) = 1, and both are units at 2 with -3 = 5 mod 8),
    so the odd-index induction from the class ram{inf,5} has disc -5;
    (-2,-5)_Q also ramifies exactly at inf and 5 ((-2|5) = -1, and at 2
    its factors (2,-5)_2 and (-1,-5)_2 are both -1). The tensor class
    ram{2,5}^3 is ram{2,5}, the class of (-3,10)_Q since 2 and 5 are inert
    with odd valuation in 10; (2,5)_Q ramifies at 5 ((2|5) = -1) and at 2
    ((2,u)_2 = -1 for u = 5 mod 8)."""

    def test_induction_answer(self, capsys, tmp_path):
        path = write_json(tmp_path, "ind.json", SHEET_INDUCTION)
        rc, out, _ = run(capsys, "deduce", path)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "disc = -5, Delta = (-2,-5)_Q, ram{inf,5}"
        assert [ln.split(" - ")[1] for ln in lines[3:]] == ["induction from subgroup"] * 3
        rc, out, _ = run(capsys, "deduce", "--json", path)
        assert rc == 0
        assert (json.loads(out)["disc"], json.loads(out)["ram"]) == (-5, ["inf", 5])

    def test_tensor_answer(self, capsys, tmp_path):
        path = write_json(tmp_path, "ten.json", SHEET_TENSOR)
        rc, out, _ = run(capsys, "deduce", path)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "disc = 10, Delta = (2,5)_Q, ram{2,5}"
        assert [ln.split(" - ")[1] for ln in lines[3:]] == ["tensor factorisation"] * 3

    def test_even_index_is_the_trivial_class(self, capsys, tmp_path):
        payload = json.loads(json.dumps(SHEET_INDUCTION))
        payload["relations"][0]["index"] = 2
        payload["character"]["degree"] = 4
        payload["character"]["group_order_factors"]["2"] = 2
        rc, out, _ = run(capsys, "deduce", write_json(tmp_path, "even.json", payload))
        assert rc == 0
        assert out.splitlines()[0] == "disc = 1, Delta = (1,1)_Q, ram{}"
        # at degree 2 the archimedean place must ramify, and the trivial
        # class does not
        payload["character"]["degree"] = 2
        rc, out, err = run(capsys, "deduce", write_json(tmp_path, "even.json", payload))
        assert (rc, out) == (1, "")
        assert err == ("error: contradiction at place inf: rule 'infinite place parity'"
                       " gives Ramified, rule 'induction from subgroup' gives Unramified\n")

    def test_even_field_degree_gives_no_conclusion(self, capsys, tmp_path):
        # the relation decides nothing, and the sheet's other facts still do
        payload = json.loads(Path(corpus_path("o10p2_chi33")).read_text())
        payload["relations"] = [{"kind": "induction", "psi_class_ram": ["inf", 5],
                                 "index": 3, "field_degree_odd": False}]
        path = write_json(tmp_path, "deg.json", payload)
        rc, out, err = run(capsys, "deduce", path)
        assert (rc, err) == (0, "")
        assert out.splitlines()[0] == "disc = -1, Delta = (-1,-3)_Q, ram{inf,3}"
        assert "induction" not in out

    @pytest.mark.parametrize("base,field,value,msg", [
        (SHEET_INDUCTION, "psi_class_ram", [9],
         'relations[0].psi_class_ram[0]: expected "inf" or a prime'),
        (SHEET_INDUCTION, "psi_class_ram", ["inf"],
         "relations[0].psi_class_ram: ramification set must have even size: {'inf'}"),
        (SHEET_INDUCTION, "psi_class_ram", "inf",
         "relations[0].psi_class_ram: expected a list of places"),
        (SHEET_INDUCTION, "index", 0, "relations[0].index: expected a positive integer"),
        (SHEET_INDUCTION, "index", "3", "relations[0].index: expected a positive integer"),
        (SHEET_TENSOR, "psi_degree", 0,
         "relations[0].psi_degree: expected a positive integer"),
        (SHEET_TENSOR, "psi_degree", True,
         "relations[0].psi_degree: expected a positive integer"),
    ])
    def test_malformed_field(self, tmp_path, base, field, value, msg):
        payload = json.loads(json.dumps(base))
        payload["relations"][0][field] = value
        with pytest.raises(FactFileError) as e:
            load_fact_file(write_json(tmp_path, "bad.json", payload))
        assert str(e.value) == msg


class TestCorpusCommand:
    def test_shipped_corpus_all_pass(self, capsys):
        rc, out, _ = run(capsys, "corpus")
        assert rc == 0
        assert "18 sheets, 4 grams, 10 skipped: all pass" in out

    def test_rows_are_sorted_by_id(self, capsys):
        rc, out, _ = run(capsys, "corpus")
        order = ["hn_chi25", "hn_chi35", "o10p2_chi33", "on3_chi3",
                 "q10_i2", "s63_chi2", "u37_chi13"]
        positions = [out.index(fid) for fid in order]
        assert positions == sorted(positions)

    def test_out_of_scope_rows_are_skipped_with_note(self, capsys):
        rc, out, _ = run(capsys, "corpus")
        assert "skip" in out
        assert "on3_chi31" in out
        assert "not imaginary quadratic" in out

    def test_gram_rows_are_checked(self, capsys):
        rc, out, _ = run(capsys, "corpus")
        assert "disc 2 ram{2,5}" in out

    def test_candidate_row_is_checked(self, capsys):
        rc, out, _ = run(capsys, "corpus")
        assert "candidates {-5, -10}" in out

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "corpus")
        _, out2, _ = run(capsys, "corpus")
        assert out1 == out2

    def test_explicit_directory_argument(self, capsys):
        rc, out, _ = run(capsys, "corpus", str(corpus_dir()))
        assert rc == 0
        assert "all pass" in out

    def test_empty_argument_is_not_a_directory(self, capsys):
        # not the bundled corpus, and not the working directory Path("") names
        assert run(capsys, "corpus", "") == (1, "", "error: '' is not a directory\n")
        assert run(capsys, "corpus", "/nonexistent") == (
            1, "", "error: /nonexistent is not a directory\n")

    def test_empty_directory(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 0
        assert "0 sheets" in out

    def test_non_json_files_ignored(self, capsys, tmp_path):
        (tmp_path / "notes.txt").write_text("not a fact file")
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 0
        assert "0 sheets" in out

    def test_mismatch_fails_naming_the_row(self, capsys, tmp_path):
        payload = json.load(open(corpus_path("o10p2_chi33")))
        payload["expected"]["disc"] = -2
        write_json(tmp_path, "o10p2_chi33.json", payload)
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert "FAIL" in out
        assert "o10p2_chi33" in out
        assert "1 failure" in out

    def test_candidate_mismatch_fails(self, capsys, tmp_path):
        payload = json.load(open(corpus_path("on3_chi57_partial")))
        payload["expected"]["discs"] = [-5]
        write_json(tmp_path, "on3_chi57_partial.json", payload)
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert "on3_chi57_partial" in out

    def test_gram_mismatch_fails(self, capsys, tmp_path):
        payload = json.load(open(corpus_path("q10_i2")))
        payload["expected"]["disc"] = 1
        write_json(tmp_path, "q10_i2.json", payload)
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert "q10_i2" in out

    def test_engine_error_fails_the_row(self, capsys, tmp_path):
        payload = json.loads(json.dumps(SHEET_PARITY))
        payload["expected"] = {"kind": "unique", "disc": 1, "ram": []}
        write_json(tmp_path, "parity.json", payload)
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert "parity" in out

    def test_superscript_key_fails_the_row(self, capsys, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["group_order_factors"]["\u00b2"] = 1
        payload["expected"] = {"kind": "unique", "disc": -1, "ram": ["inf", 3]}
        write_json(tmp_path, "sup.json", payload)
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert out.splitlines()[0].split() == [
            "FAIL", "sup", "load", "error:",
            "character.group_order_factors.\u00b2:", "expected", "a", "prime", "key",
        ]

    def test_programming_error_propagates(self, capsys, monkeypatch):
        def broken(ff):
            raise TypeError("bug in the checker")

        monkeypatch.setattr("udisc.cli._check_corpus_row", broken)
        with pytest.raises(TypeError, match="bug in the checker"):
            main(["corpus"])

    def test_row_without_a_block_fails(self, capsys, tmp_path):
        write_json(tmp_path, "bare.json", {
            "id": "bare", "expected": {"kind": "unique", "disc": 1, "ram": []}})
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert out.splitlines()[0].split(None, 2) == [
            "FAIL", "bare", "error: character: missing (this file has no fact sheet)"]

    @pytest.mark.parametrize("source,expected,detail,mod_facts", [
        ("q10_i2", {"kind": "unique", "disc": 2, "ram": [2, 5]},
         "expected kind 'unique' does not fit a gram row", []),
        ("o10p2_chi33", {"kind": "hform", "disc": -1, "ram": ["inf", 3]},
         "expected kind 'hform' does not fit a character row", []),
        ("o10p2_chi33", {"kind": "candidates", "discs": [-1, -3]},
         "expected candidates, got unique", []),
        ("on3_chi57_partial", {"kind": "unique", "disc": -5, "ram": ["inf", 5]},
         "expected unique, got candidates", []),
        # the kind is checked before the sheet, which contradicts itself at 3
        ("on3_chi57", {"kind": "hform", "disc": -10, "ram": ["inf", 2, 3, 5]},
         "expected kind 'hform' does not fit a character row",
         [{"p": 3, "status": "OrthSquare"}]),
    ])
    def test_expected_kind_mismatch_fails(self, capsys, tmp_path, source, expected, detail,
                                          mod_facts):
        payload = json.load(open(corpus_path(source)))
        payload["expected"] = expected
        if mod_facts:
            payload["character"]["mod_facts"] += mod_facts
        write_json(tmp_path, source + ".json", payload)
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert out.splitlines() == ["FAIL  %-20s%s" % (source, detail),
                                    "%d sheets, %d grams, 0 skipped: 1 failure"
                                    % ((0, 1) if source == "q10_i2" else (1, 0))]

    def test_row_without_expected_fails(self, capsys, tmp_path):
        write_json(tmp_path, "bare.json", SHEET_CHI33)
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert "expected" in out

    def test_missing_directory(self, capsys):
        rc, _, err = run(capsys, "corpus", "/no/such/dir")
        assert rc == 1
        assert err != ""

    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, "--json", "corpus")
        assert rc == 0
        data = json.loads(out)
        assert data["sheets"] == 18
        assert data["grams"] == 4
        assert data["skipped"] == 10
        assert data["failures"] == 0
        ids = [row["id"] for row in data["rows"]]
        assert ids == sorted(ids)

    def test_json_flag_after_subcommand(self, capsys):
        _, before, _ = run(capsys, "--json", "corpus")
        rc, after, _ = run(capsys, "corpus", "--json")
        assert (rc, after) == (0, before)


def _constituent(payload):
    return payload["relations"][0]["constituents"][0]


# a 5000-character value, and how a refusal names it
LONG = "x" * 5000
LONG_SHOWN = "'%s'... (5000 characters)" % ("x" * 40)


class TestLoader:
    def test_sheet_fields(self):
        ff = load_fact_file(corpus_path("o10p2_chi33"))
        assert isinstance(ff, FactFile)
        assert ff.id == "o10p2_chi33"
        assert ff.sheet.degree == 110670
        assert ff.sheet.field == ImagQuadField(15)
        assert len(ff.sheet.mod_facts) == 3
        assert ff.expected == {"kind": "unique", "disc": -1, "ram": ["inf", 3]}

    def test_gram_fields(self):
        ff = load_fact_file(corpus_path("q10_i2"))
        assert ff.gram is not None
        assert ff.gram.field == ImagQuadField(10)
        assert ff.expected["kind"] == "hform"

    def test_character_and_gram_together_are_refused(self, capsys, tmp_path):
        # deduce would answer from the one block, hform from the other
        path = write_json(tmp_path, "both.json",
                          dict(SHEET_CHI33, gram=GRAM_I2["gram"], expected={
                              "kind": "unique", "disc": -1, "ram": ["inf", 3]}))
        msg = "fact file: give at most one of character and gram"
        for command in ("deduce", "hform"):
            assert run(capsys, command, path) == (1, "", "error: %s\n" % msg)
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert out.splitlines() == ["FAIL  both                load error: " + msg,
                                    "0 sheets, 0 grams, 0 skipped: 1 failure"]

    def test_gram_agrees_with_the_public_constructor(self, tmp_path):
        # cells with negative and unreduced denominators, and the mirror cell
        # written apart from its conjugate: the loader's integer matrices give
        # the entries and pivots that HermitianGram(field, entries) gives
        rng = random.Random(23)
        dens = [1, -1, 2, -2, 3, 4, -6, 12]
        for _ in range(40):
            d0 = rng.choice([1, 2, 3, 5, 7, 10, 15])
            n = rng.randint(1, 6)
            cells = [[None] * n for _ in range(n)]
            for i in range(n):
                k = rng.choice(dens)
                cells[i][i] = [(rng.randint(-9, 9) or 1) * k, rng.choice(dens) * k, 0,
                               rng.choice(dens)]
                for j in range(i + 1, n):
                    a, b, c, d = (rng.randint(-6, 6), rng.choice(dens),
                                  rng.randint(-6, 6), rng.choice(dens))
                    k = rng.choice([1, 2, -3])
                    cells[i][j], cells[j][i] = [a, b, c, d], [a * k, b * k, -c, d]
            path = write_json(tmp_path, "g.json",
                              {"id": "g", "gram": {"delta0": d0, "entries": cells}})
            L = ImagQuadField(d0)
            want = tuple(tuple(QuadElem(Fraction(a, b), Fraction(c, d), L)
                               for a, b, c, d in row) for row in cells)
            ff = load_fact_file(path)
            assert ff.gram.entries == want
            assert ff.gram.diagonal == HermitianGram(L, want).diagonal

    @pytest.mark.parametrize("entries,msg", [
        ([], "gram: empty Gram matrix"),
        ([[[1, 1, 0, 1], [1, 1, 0, 1]], [[2, 1, 0, 1], [1, 1, 0, 1]]],
         "gram: not Hermitian: entry (1,0) is not the conjugate of entry (0,1)"),
        ([[[1, 1, 0, 1], [0, 1, 0, 1]], [[0, 1, 0, 1], [0, 1, 0, 1]]],
         "gram: degenerate Hermitian Gram matrix"),
    ])
    def test_gram_matrix_errors(self, tmp_path, entries, msg):
        path = write_json(tmp_path, "g.json",
                          {"id": "g", "gram": {"delta0": 1, "entries": entries}})
        with pytest.raises(FactFileError) as e:
            load_fact_file(path)
        assert str(e.value) == msg

    @pytest.mark.parametrize("entries,msg", [
        ([[[1, 1, 0, 1], [0, 1, 0, 1]], [[0, 1, 0, 1]]],
         "gram.entries[1]: expected a row of 2 entries"),
        ([[[1, 1, 0, 1], [0, 1, 0, 1]], "row"],
         "gram.entries[1]: expected a row of 2 entries"),
        ([[[1, 1, 0, 1], [0, 1, 0]], [[0, 1, 0, 1], [1, 1, 0, 1]]],
         "gram.entries[0][1]: expected [x_num, x_den, y_num, y_den]"),
        ([[[1, 1, 0, 1], [0, 1, 0, 1]], [[0, 1, True, 1], [1, 1, 0, 1]]],
         "gram.entries[1][0]: expected [x_num, x_den, y_num, y_den]"),
        ([[[1, 1, 0, 1], [0, 1, 0, 1]], [[0, 1, 0, 1], [1, 1, 0, 0]]],
         "gram.entries[1][1]: zero denominator"),
        ([[[1, 0, 0, 1]]], "gram.entries[0][0]: zero denominator"),
    ])
    def test_gram_cell_errors(self, tmp_path, entries, msg):
        path = write_json(tmp_path, "g.json",
                          {"id": "g", "gram": {"delta0": 1, "entries": entries}})
        with pytest.raises(FactFileError) as e:
            load_fact_file(path)
        assert str(e.value) == msg

    def test_top_level_relations(self):
        ff = load_fact_file(corpus_path("u37_chi13"))
        assert len(ff.sheet.relations) == 1

    def test_character_level_relations_also_accepted(self, tmp_path):
        payload = json.load(open(corpus_path("u37_chi13")))
        payload["character"]["relations"] = payload.pop("relations")
        path = write_json(tmp_path, "u.json", payload)
        ff = load_fact_file(path)
        assert len(ff.sheet.relations) == 1

    def test_alpha_parts_fold_to_a_rational(self):
        ff = load_fact_file(corpus_path("hn_chi25"))
        # (-1)^(210/2) * 33 * (-1)^(656040/2) * 1 = -33
        assert ff.sheet.alpha_facts.alpha_disc == Fraction(-33)

    def test_out_of_scope(self):
        ff = load_fact_file(corpus_path("on3_chi31"))
        assert ff.out_of_scope
        assert ff.sheet is None

    def test_composite_order_key_rejected(self, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["group_order_factors"]["4"] = 1
        path = write_json(tmp_path, "f.json", payload)
        with pytest.raises(FactFileError, match="group_order_factors"):
            load_fact_file(path)

    # str.isdigit accepts both keys; int() rejects "²" and reads "٣" as 3
    @pytest.mark.parametrize("key", ["\u00b2", "\u0663"])
    @pytest.mark.parametrize("block", ["group_order_factors", "orth_dim_sum_mod4"])
    def test_non_ascii_digit_key_rejected(self, tmp_path, key, block):
        payload = json.loads(json.dumps(SHEET_CHI33))
        if block == "group_order_factors":
            payload["character"]["group_order_factors"][key] = 1
            where = "character.group_order_factors." + key
        else:
            payload["character"]["structural"] = {"orth_dim_sum_mod4": {key: 1}}
            where = "character.structural.orth_dim_sum_mod4." + key
        path = write_json(tmp_path, "f.json", payload)
        with pytest.raises(FactFileError) as info:
            load_fact_file(path)
        assert str(info.value) == where + ": expected a prime key"

    @pytest.mark.parametrize("block", ["group_order_factors", "orth_dim_sum_mod4"])
    def test_leading_zero_key_rejected(self, tmp_path, block):
        # "03" would otherwise overwrite the entry for "3"
        payload = json.loads(json.dumps(SHEET_CHI33))
        if block == "group_order_factors":
            payload["character"]["group_order_factors"]["03"] = 1
            where = "character.group_order_factors.03"
        else:
            payload["character"]["structural"] = {
                "orth_dim_sum_mod4": {"3": 1, "03": 2}}
            where = "character.structural.orth_dim_sum_mod4.03"
        path = write_json(tmp_path, "f.json", payload)
        with pytest.raises(FactFileError) as info:
            load_fact_file(path)
        assert str(info.value) == where + ": expected a prime key without leading zeros"

    @pytest.mark.parametrize("old,new,where", [
        ('"degree": 110670', '"degree": 110670, "degree": 2', "character.degree"),
        ('"3": 5', '"3": 5, "3": 1', "character.group_order_factors.3"),
        ('"id": "o10p2_chi33"', '"id": "a", "id": "b"', "fact file.id"),
        ('"p": 7,', '"p": 7, "p": 5,', "character.mod_facts[0].p"),
        ('"3": 5', '"%s": 5, "%s": 1' % ("x" * 5000, "x" * 5000),
         "character.group_order_factors.%r... (5000 characters)" % ("x" * 40)),
    ])
    def test_literal_duplicate_key_rejected(self, tmp_path, old, new, where):
        text = json.dumps(SHEET_CHI33)
        assert old in text
        path = tmp_path / "f.json"
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(FactFileError) as info:
            load_fact_file(path)
        assert str(info.value) == where + ": duplicate key"

    def test_oversized_integer_literal(self, capsys, tmp_path):
        # json.loads refuses integer literals over 4300 digits with a plain
        # ValueError, whose text differs between Python 3.10 and 3.11; the
        # loader words the refusal itself
        text = json.dumps(SHEET_CHI33).replace("110670", "1" * 5000)
        (tmp_path / "big.json").write_text(text)
        rc, out, err = run(capsys, "deduce", str(tmp_path / "big.json"))
        assert rc == 1
        assert out == ""
        assert err == "error: fact file: an integer has more than %d digits\n" % (
            sys.get_int_max_str_digits())
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert out.splitlines()[0].split()[:5] == [
            "FAIL", "big", "load", "error:", "fact"]
        assert out.splitlines()[-1] == "0 sheets, 0 grams, 0 skipped: 1 failure"

    @pytest.mark.parametrize("where, key, msg", [
        ("group_order_factors", "1" * 5000, "a key has more than %d digits"
         % sys.get_int_max_str_digits()),
        ("group_order_factors", "x" * 5000, "expected a prime key"),
        ("mod_facts", "x" * 5000, "unknown key"),
    ], ids=["5000-digit-key", "5000-letter-key", "5000-letter-unknown-key"])
    def test_oversized_key_is_named_briefly(self, capsys, tmp_path, where, key, msg):
        # int() refuses a key over the digit limit in the interpreter's
        # words, with a hint a user of the CLI cannot act on; a key over 40
        # characters is named by its first 40 and its length
        payload = json.loads(json.dumps(SHEET_CHI33))
        block = payload["character"][where]
        (block if isinstance(block, dict) else block[0])[key] = 1
        rc, out, err = run(capsys, "deduce", write_json(tmp_path, "big.json", payload))
        at = "group_order_factors" if where == "group_order_factors" else "mod_facts[0]"
        assert (rc, out) == (1, "")
        assert err == "error: character.%s.%r... (5000 characters): %s\n" % (at, key[:40], msg)
        assert len(err) < 200

    def test_fact_file_is_read_as_utf8_in_any_locale(self, tmp_path):
        # JSON text is UTF-8; under the C locale, read_text() without an
        # encoding decodes it as ASCII
        payload = json.load(open(corpus_path("on3_chi57"), encoding="utf-8"))
        payload["note"] = "character pair 57,58 of 3.ON — degree 116622"
        path = tmp_path / "on3_chi57.json"
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        argv = [sys.executable, "-m", "udisc.cli", "deduce", str(path)]
        src = str(Path(udisc.__file__).parent.parent)
        base = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        c_env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0",
                     PYTHONCOERCECLOCALE="0")
        c = subprocess.run(argv, env=c_env, capture_output=True, text=True, timeout=120)
        assert base.returncode == 0, base.stderr
        assert base.stdout.startswith("disc = -10, Delta = (-3,-10)_Q, ram{inf,2,3,5}\n")
        assert (c.returncode, c.stdout, c.stderr) == (0, base.stdout, "")

    def test_nonprime_fact_rejected(self, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["mod_facts"][0]["p"] = 6
        path = write_json(tmp_path, "f.json", payload)
        with pytest.raises(FactFileError, match=r"mod_facts\[0\]\.p"):
            load_fact_file(path)

    def test_zero_denominator_rejected(self, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["alpha_facts"] = {
            "q_class": [], "m": 3, "indicator_ext": "+", "alpha_disc": [5, 0],
        }
        path = write_json(tmp_path, "f.json", payload)
        with pytest.raises(FactFileError, match="denominator"):
            load_fact_file(path)

    def test_alpha_needs_exactly_one_disc_source(self, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["alpha_facts"] = {
            "q_class": [], "m": 3, "indicator_ext": "+",
            "alpha_disc": 5, "parts": [{"dim": 2, "det": [5, 1]}],
        }
        path = write_json(tmp_path, "f.json", payload)
        with pytest.raises(FactFileError, match="alpha_disc"):
            load_fact_file(path)

    def test_alpha_part_dim_must_be_even(self, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["alpha_facts"] = {
            "q_class": [], "m": 3, "indicator_ext": "+",
            "parts": [{"dim": 3, "det": [5, 1]}],
        }
        path = write_json(tmp_path, "f.json", payload)
        with pytest.raises(FactFileError, match="dim"):
            load_fact_file(path)

    def test_bad_constituent_indicator(self, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["relations"] = [{
            "kind": "restriction",
            "constituents": [{"indicator": "x", "degree": 2}],
        }]
        path = write_json(tmp_path, "f.json", payload)
        with pytest.raises(FactFileError, match="indicator"):
            load_fact_file(path)

    def test_unknown_relation_kind(self, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["relations"] = [{"kind": "fusion"}]
        path = write_json(tmp_path, "f.json", payload)
        with pytest.raises(FactFileError, match="fusion"):
            load_fact_file(path)

    def test_bad_place_in_class(self, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["character"]["alpha_facts"] = {
            "q_class": [9], "m": 3, "indicator_ext": "+", "alpha_disc": 5,
        }
        path = write_json(tmp_path, "f.json", payload)
        with pytest.raises(FactFileError, match=r"q_class\[0\]"):
            load_fact_file(path)

    def test_constituent_by_delta_ram(self, capsys, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["relations"] = [{"kind": "restriction", "constituents": [
            {"indicator": "o", "degree": 2, "delta_ram": ["inf", 3]}]}]
        path = write_json(tmp_path, "f.json", payload)
        (c,) = load_fact_file(path).sheet.relations[0].constituents
        assert c.delta_class == BrauerClassQ(frozenset([INF, 3]))
        rc, out, _ = run(capsys, "deduce", path)
        assert (rc, out.splitlines()[0]) == (0, "disc = -1, Delta = (-1,-3)_Q, ram{inf,3}")

    @pytest.mark.parametrize("edit,msg", [
        (lambda d: _constituent(d).update(delta_disc=-3, delta_ram=["inf", 3]),
         "relations[0].constituents[0]: give at most one of delta_disc and delta_ram"),
        (lambda d: _constituent(d).update(delta_disc=0),
         "relations[0].constituents[0].delta_disc: must be nonzero"),
        (lambda d: _constituent(d).update(indicator="+", class_ram=[], ortho_disc=[0, 5]),
         "relations[0].constituents[0].ortho_disc: must be nonzero"),
        (lambda d: d["relations"][0].pop("kind"),
         'relations[0]: expected an object with a "kind" key'),
        (lambda d: d["character"].update(alpha_facts={
            "q_class": [], "m": 3, "indicator_ext": "+", "alpha_disc": 0}),
         "character.alpha_facts.alpha_disc: must be nonzero"),
        (lambda d: d["character"].update(alpha_facts={
            "q_class": [], "m": 3, "indicator_ext": "+",
            "parts": [{"dim": 2, "det": 5}, {"dim": 4, "det": [0, 7]}]}),
         "character.alpha_facts.parts[1].det: determinant must be nonzero"),
        (lambda d: d.update(expected={"kind": "candidates", "discs": []}),
         "expected.discs: expected at least one candidate"),
        (lambda d: d.update(expected={"kind": "maybe"}),
         "expected.kind: unknown expected kind 'maybe'"),
        (lambda d: d.update(expected={"kind": LONG}),
         "expected.kind: unknown expected kind " + LONG_SHOWN),
        (lambda d: d["relations"][0].update(kind=LONG),
         "relations[0].kind: unknown relation kind " + LONG_SHOWN),
        (lambda d: _constituent(d).update(indicator=LONG),
         "relations[0].constituents[0]: indicator must be '+', '-' or 'o', got " + LONG_SHOWN),
        (lambda d: d["character"].update(alpha_facts={
            "q_class": [], "m": 3, "indicator_ext": LONG, "alpha_disc": 5}),
         "character.alpha_facts: extension indicator must be '+' or '-', got " + LONG_SHOWN),
        (lambda d: d.pop("character"), "relations: requires a character block"),
    ])
    def test_schema_error(self, tmp_path, edit, msg):
        payload = json.loads(json.dumps(SHEET_CHI33))
        payload["relations"] = [{"kind": "restriction", "constituents": [
            {"indicator": "o", "degree": 2}]}]
        edit(payload)
        path = write_json(tmp_path, "f.json", payload)
        with pytest.raises(FactFileError) as e:
            load_fact_file(path)
        assert str(e.value) == msg

    def test_id_defaults_to_file_stem(self, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        del payload["id"]
        path = write_json(tmp_path, "stem_name.json", payload)
        ff = load_fact_file(path)
        assert ff.id == "stem_name"


# the product of two 26-digit primes
HARD = 10000000000000000000000013 * 20000000000000000000000009
LIMIT = ("no factor of a 51-digit composite found within the budget of"
         " 1 ECM curves at B1 = 50")


class TestFactoringLimit:
    """Inputs past the factoring budget exit 1 with an error naming their path.

    The budget is shrunk in-process so that each case gives up at once.
    """

    @pytest.fixture(autouse=True)
    def tiny_budget(self, monkeypatch):
        monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 8)
        monkeypatch.setattr(arith, "_ECM_BUDGET", (1, 50))

    @pytest.mark.parametrize("argv", [
        ["symbol", str(HARD), "3"],
        ["symbol", "3", "-1/%d" % HARD],
        ["isnorm", str(HARD), "3"],
        ["isnorm", "7", str(HARD)],
    ])
    def test_command_line_arguments(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == "error: %s\n" % LIMIT

    @pytest.mark.parametrize("key", ["ortho_disc", "delta_disc"])
    def test_constituent_rational(self, capsys, tmp_path, key):
        payload = json.load(open(corpus_path("u37_chi27")))
        constituents = payload["relations"][0]["constituents"]
        if key == "ortho_disc":
            constituents[0] = {"indicator": "+", "degree": 342, "class_ram": [],
                               "ortho_disc": [-HARD, 1]}
        else:
            constituents[0]["delta_disc"] = [HARD, 1]
        path = write_json(tmp_path, "hard.json", payload)
        rc, out, _ = run(capsys, "--json", "deduce", path)
        assert rc == 1
        assert json.loads(out)["kind"] == "error"
        assert json.loads(out)["error"] == (
            "relations[0].constituents[0].%s: %s" % (key, LIMIT))
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert out.startswith("FAIL  hard                load error: relations[0]")

    def test_rational_derived_from_a_sheet(self, capsys, tmp_path):
        # each alpha part is a prime, but the rules factor their product
        payload = json.load(open(corpus_path("hn_chi25")))
        parts = payload["character"]["alpha_facts"]["parts"]
        parts[0]["det"] = [10000000000000000000000013, 1]
        parts[1]["det"] = [20000000000000000000000009, 1]
        path = write_json(tmp_path, "hard.json", payload)
        rc, out, err = run(capsys, "deduce", path)
        assert (rc, out) == (1, "")
        assert err == "error: character: %s\n" % LIMIT
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert out.startswith("FAIL  hn_chi25            error: character: ")

    def test_gram_determinant(self, capsys, tmp_path):
        payload = {"id": "hard", "gram": {"delta0": 1, "entries": [[[HARD, 1, 0, 1]]]},
                   "expected": {"kind": "hform", "disc": 1, "ram": []}}
        path = write_json(tmp_path, "hard.json", payload)
        rc, out, _ = run(capsys, "--json", "hform", path)
        assert rc == 1
        assert json.loads(out)["error"] == "gram: " + LIMIT
        rc, out, _ = run(capsys, "corpus", str(tmp_path))
        assert rc == 3
        assert out.startswith("FAIL  hard                error: gram: ")


class TestReportSerialization:
    @pytest.mark.parametrize("command, fid, kind", [
        ("deduce", "o10p2_chi33", "unique"),
        ("deduce", "on3_chi57_partial", "candidates"),
        ("hform", "q10_unimod4", "unique"),
        ("hform", "o10p2_chi33", "error"),
    ])
    def test_json_key_order(self, capsys, command, fid, kind):
        _, out, _ = run(capsys, "--json", command, corpus_path(fid))
        doc = json.loads(out)
        assert doc["kind"] == kind
        assert list(doc) == ["id", "kind", "disc", "ram", "items", "free",
                             "trace", "error", "transfer"]

    def test_error_report_round_trip(self):
        rep = Report(id="x", kind="error", error="boom")
        again = report_from_json(json.loads(json.dumps(report_to_json(rep))))
        assert again == rep

    def test_unknown_field_rejected(self):
        with pytest.raises(FactFileError, match="surprise"):
            report_from_json({"id": "x", "kind": "unique", "surprise": 1})


USAGE = "usage: udisc [-h] [--json] command [argument ...]"


class TestUsageErrors:
    """A usage error prints a usage line and one error line on stderr and
    exits 1; a help request prints the command listing and exits 0."""

    def usage_error(self, capsys, argv, usage, reason):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == "%s\nudisc: error: %s\n" % (usage, reason)

    def test_missing_subcommand(self, capsys):
        for argv in [], ["--json"], ["--"]:
            self.usage_error(capsys, argv, USAGE, "missing command")

    def test_missing_argument(self, capsys):
        self.usage_error(capsys, ["symbol", "-1"], "usage: udisc [--json] symbol a b [place]",
                         "wrong number of arguments: 1")

    def test_unknown_subcommand(self, capsys):
        for argv in ["frobnicate"], ["--jsn", "corpus"], ["", "corpus"]:
            self.usage_error(capsys, argv, USAGE, "unknown command %r (choose from"
                             " deduce, hform, symbol, isnorm, corpus)" % argv[0])

    @pytest.mark.parametrize("argv,usage", [
        (["symbol", "1", "2", "3", "4"], "symbol a b [place]"),
        (["symbol", "-h"], "symbol a b [place]"),
        (["isnorm", "1"], "isnorm a delta0"),
        (["deduce"], "deduce file"),
        (["hform", "a", "b"], "hform file"),
        (["corpus", "a", "b"], "corpus [dir]"),
    ])
    def test_wrong_argument_count(self, capsys, argv, usage):
        self.usage_error(capsys, argv, "usage: udisc [--json] " + usage,
                         "wrong number of arguments: %d" % (len(argv) - 1))

    @pytest.mark.parametrize("argv,usage", [
        (["deduce", "-x"], "deduce file"),
        (["--json", "hform", "--", "-5"], "hform file"),
        (["corpus", "-"], "corpus [dir]"),
        (["corpus", "--jsn"], "corpus [dir]"),
    ])
    def test_option_to_a_path_command(self, capsys, argv, usage):
        self.usage_error(capsys, argv, "usage: udisc [--json] " + usage,
                         "unrecognized option %r" % argv[-1])

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["--json", "-h"], ["-h", "symbol", "1"], ["deduce", "-h"],
        ["hform", corpus_path("q10_i2"), "--help"], ["corpus", "-h"], ["corpus", "--", "-h"]])
    def test_help(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        assert out.splitlines() == [
            USAGE, "",
            "unitary discriminants of Hermitian forms and characters", "",
            "commands:",
            "  deduce file           run the deduction engine on a fact file",
            "  hform file            invariants of a Gram matrix fact file",
            "  symbol a b [place]    Hilbert symbols (a,b)_v",
            "  isnorm a delta0       is a a norm of Q(sqrt(-delta0))?",
            "  corpus [dir]          re-check a directory of fact files", "",
            "--json, before or after the command, prints JSON instead of text",
        ]

    @pytest.mark.parametrize("argv", [
        ["symbol", "-h", "3"], ["symbol", "3", "--help"], ["isnorm", "-h", "3"]])
    def test_numeric_commands_read_every_token_as_an_argument(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        flag = next(a for a in argv if a.startswith("-"))
        assert (rc, out, err) == (1, "", "error: malformed rational %r\n" % flag)


BASE_MODULES = ["udisc", "udisc.arith", "udisc.brauer", "udisc.cli",
                "udisc.quadfield", "udisc.symbols"]


@pytest.mark.parametrize("argv, extra", [
    (["symbol", "-1", "-1"], []),
    (["isnorm", "5", "1"], []),
    (["deduce", corpus_path("o10p2_chi33")], ["udisc.deduce"]),
    (["hform", corpus_path("q10_unimod4")], ["udisc.hermforms"]),
    (["corpus"], ["udisc.deduce", "udisc.hermforms"]),
], ids=["symbol", "isnorm", "deduce", "hform", "corpus"])
def test_subcommand_loads_only_what_it_uses(argv, extra):
    # one subcommand through main in a fresh interpreter, as `udisc` runs it
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "import udisc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = udisc.cli.main(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'udisc')\n"
        "added = sorted({'argparse', 'dataclasses', 'gettext'}\n"
        "               & (set(sys.modules) - before))\n"
        "print(json.dumps([rc, loaded, added]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(udisc.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, loaded, added = json.loads(proc.stdout)
    assert rc == 0
    assert loaded == sorted(BASE_MODULES + extra)
    assert added == []


# two 26-digit primes, both 2 mod 3 and so inert in Q(sqrt(-3)); their
# product is beyond the factoring budget
BIG_P = 25080330703369597437700091
BIG_Q = 78801772797767169992055857


def _big_prime_sheet(**extra):
    return {"id": "big", "character": dict(
        degree=4, delta0=3,
        group_order_factors={"2": 1, "3": 1, str(BIG_P): 1, str(BIG_Q): 1},
        **extra)}


class TestBigPrimeClasses:
    """Classes ramified at two large primes are never rebuilt by factoring."""

    def answer(self, capsys, tmp_path, payload, *mode):
        path = write_json(tmp_path, "big.json", payload)
        start = time.perf_counter()
        rc, out, err = run(capsys, *mode, "deduce", path)
        assert time.perf_counter() - start < 1.0
        assert (rc, err) == (0, "")
        return out

    def test_defect_one_sheet_answers_with_its_pair(self, capsys, tmp_path):
        payload = _big_prime_sheet(mod_facts=[
            {"p": 2, "status": "Irreducible"},
            {"p": 3, "status": "OrthSquare"},
            {"p": BIG_P, "status": "NotUnitaryStable", "defect_one": True},
            {"p": BIG_Q, "status": "NotUnitaryStable", "defect_one": True},
        ])
        out = self.answer(capsys, tmp_path, payload)
        assert out.splitlines()[0] == (
            "disc = %d, Delta = (%d,%d)_Q, ram{%d,%d}"
            % (BIG_P * BIG_Q, 3 * BIG_P, -BIG_Q, BIG_P, BIG_Q))
        data = json.loads(self.answer(capsys, tmp_path, payload, "--json"))
        assert (data["kind"], data["disc"], data["ram"]) == (
            "unique", BIG_P * BIG_Q, [BIG_P, BIG_Q])

    @pytest.mark.parametrize("indicator, disc, ram", [
        ("+", 5 * BIG_P * BIG_Q, [3, 5, BIG_P, BIG_Q]),
        ("-", BIG_P * BIG_Q, [BIG_P, BIG_Q]),
    ])
    def test_alpha_sheet_answers(self, capsys, tmp_path, indicator, disc, ram):
        payload = _big_prime_sheet(alpha_facts={
            "q_class": [BIG_P, BIG_Q], "m": 1, "alpha_disc": 5,
            "indicator_ext": indicator})
        payload["character"]["group_order_factors"]["5"] = 1
        out = self.answer(capsys, tmp_path, payload)
        assert out.startswith("disc = %d, Delta = (" % disc)
        assert out.splitlines()[0].endswith(
            "ram{%s}" % ",".join(str(v) for v in ram))
        data = json.loads(self.answer(capsys, tmp_path, payload, "--json"))
        assert (data["kind"], data["disc"], data["ram"]) == ("unique", disc, ram)


def test_single_survivor_beside_split_unknowns_is_unique(capsys, tmp_path):
    # 7 splits in Q(sqrt-3) and stays unknown; parity leaves one class
    path = write_json(tmp_path, "split7.json", {"id": "split7", "character": {
        "degree": 2, "delta0": 3, "split_schur_trivial": False,
        "group_order_factors": {"2": 1, "3": 1, "7": 1},
        "mod_facts": [{"p": 2, "status": "Irreducible"}]}})
    rc, out, _ = run(capsys, "deduce", path)
    assert (rc, out.splitlines()[0]) == (0, "disc = -1, Delta = (-1,-3)_Q, ram{inf,3}")
    rc, out, _ = run(capsys, "--json", "deduce", path)
    data = json.loads(out)
    assert (rc, data["kind"], data["disc"], data["ram"]) == (0, "unique", -1, ["inf", 3])


def test_split_unknowns_are_not_free_places(capsys, tmp_path):
    # Q(i): 5, 13 and 17 split, so only the eight other unknowns are free
    primes = (2, 3, 7, 11, 19, 23, 31, 43, 5, 13, 17)
    path = write_json(tmp_path, "wide.json", {"id": "wide", "character": {
        "degree": 4, "delta0": 1, "split_schur_trivial": False,
        "group_order_factors": {str(p): 1 for p in primes}}})
    rc, out, _ = run(capsys, "--json", "deduce", path)
    data = json.loads(out)
    assert (rc, data["kind"], len(data["items"])) == (2, "candidates", 128)
    assert {v for it in data["items"] for v in it["ram"]} == {
        2, 3, 7, 11, 19, 23, 31, 43}
