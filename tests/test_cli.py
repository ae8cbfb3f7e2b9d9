"""Command line surface: fact-file loading, report rendering, exit codes.

Expected strings are frozen by hand from the published tables and from
direct Hilbert-symbol computations; the CLI must reproduce them exactly.
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from udisc.cli import (
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
from udisc.quadfield import ImagQuadField


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

    def test_zero_rejected(self, capsys):
        rc, _, err = run(capsys, "isnorm", "0", "3")
        assert rc == 1
        assert "nonzero" in err

    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, "--json", "isnorm", "7", "3")
        assert rc == 0
        assert json.loads(out) == {"a": "7", "delta0": 3, "is_norm": True}


class TestHformCommand:
    def test_identity_rank_two(self, capsys, tmp_path):
        path = write_json(tmp_path, "i2.json", GRAM_I2)
        rc, out, _ = run(capsys, "hform", path)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "disc=-1 ram{inf,2} clifford=OK"
        assert "transfer dim=4 disc=1 signature=(4,0) definite=true" in lines
        assert "hasse inf:1 2:1 5:1" in lines

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

        calls = []
        for name in ("_determinant", "diagonalize", "delta"):
            def counted(*args, _real=getattr(hf, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(hf, name, counted)
        hform_report(corpus_path("q10_unimod4"))
        assert sorted(calls) == ["_determinant", "delta", "diagonalize"]

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

    def test_missing_gram_block(self, capsys, tmp_path):
        path = write_json(tmp_path, "nogram.json", SHEET_CHI33)
        rc, _, err = run(capsys, "hform", path)
        assert rc == 1
        assert "gram" in err

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

    def test_parity_violation_is_an_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "parity.json", SHEET_PARITY)
        rc, _, err = run(capsys, "deduce", path)
        assert rc == 1
        assert "parity" in err

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

    def test_programming_error_propagates(self, capsys, monkeypatch):
        def broken(ff):
            raise TypeError("bug in the checker")

        monkeypatch.setattr("udisc.cli._check_corpus_row", broken)
        with pytest.raises(TypeError, match="bug in the checker"):
            main(["corpus"])

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

    def test_id_defaults_to_file_stem(self, tmp_path):
        payload = json.loads(json.dumps(SHEET_CHI33))
        del payload["id"]
        path = write_json(tmp_path, "stem_name.json", payload)
        ff = load_fact_file(path)
        assert ff.id == "stem_name"


class TestReportSerialization:
    def test_error_report_round_trip(self):
        rep = Report(id="x", kind="error", error="boom")
        again = report_from_json(json.loads(json.dumps(report_to_json(rep))))
        assert again == rep

    def test_unknown_field_rejected(self):
        with pytest.raises(FactFileError, match="surprise"):
            report_from_json({"id": "x", "kind": "unique", "surprise": 1})


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_argument(self, capsys):
        assert main(["symbol", "-1"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
