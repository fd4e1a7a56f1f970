"""End-to-end tests of the command line driver: parsing, output formats,
determinism, and the composite verification suites."""

import csv
import io
import json

import pytest

from shifted_hankel import __version__
from shifted_hankel.cli import report_exit_code, run, run_suite
from shifted_hankel.report import VerificationReport
from shifted_hankel.staircase_combinatorics import (
    enumerate_pp,
    partition_to_text,
    path_to_text,
    pp_to_dyck,
    pp_to_hv,
)


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestMoments:
    def test_mb_at_two(self, capsys):
        rc, out, _ = invoke(
            capsys, "moments", "--family", "Mb", "--b", "2", "--count", "4"
        )
        assert rc == 0
        assert out == "1 3 10 35\n"

    def test_catalan(self, capsys):
        rc, out, _ = invoke(
            capsys, "moments", "--family", "catalan", "--count", "6"
        )
        assert rc == 0
        assert out == "1 1 2 5 14 42\n"

    def test_rational_b(self, capsys):
        rc, out, _ = invoke(
            capsys, "moments", "--family", "Mcap", "--b", "-3/2", "--count", "3"
        )
        assert rc == 0
        assert out.split() == ["1", "1/2", "15/4"]

    def test_missing_b_is_usage_error(self, capsys):
        rc, _, err = invoke(capsys, "moments", "--family", "Mb", "--count", "4")
        assert rc == 2
        assert err

    def test_float_b_rejected(self, capsys):
        rc, _, err = invoke(
            capsys, "moments", "--family", "Mb", "--b", "0.5", "--count", "4"
        )
        assert rc == 2
        assert "rational" in err

    def test_jacobi_grammar(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "moments",
            "--family",
            "jacobi",
            "--jacobi",
            "s: [1], 2; t: [], 1",
            "--count",
            "5",
        )
        assert rc == 0
        assert out == "1 1 2 5 14\n"

    def test_jacobi_formal_parameter(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "moments",
            "--family",
            "jacobi",
            "--jacobi",
            "s: [b+2], 2; t: [2-b], 1",
            "--count",
            "3",
        )
        assert rc == 0
        lines = out.strip().split(" ")
        assert lines[0] == "1"
        assert "b" in out

    def test_jacobi_requires_spec_text(self, capsys):
        rc, _, err = invoke(capsys, "moments", "--family", "jacobi")
        assert rc == 2
        assert err

    def test_bad_jacobi_grammar(self, capsys):
        rc, _, _ = invoke(
            capsys, "moments", "--family", "jacobi", "--jacobi", "nonsense"
        )
        assert rc == 2


class TestPoly:
    def test_hb_one(self, capsys):
        rc, out, _ = invoke(capsys, "poly", "--which", "Hb", "--n", "1")
        assert rc == 0
        assert out == "b*x + 1\n"

    def test_h2_one(self, capsys):
        rc, out, _ = invoke(capsys, "poly", "--which", "H2", "--n", "1")
        assert rc == 0
        assert out == "2*x + 1\n"

    def test_h_zero_is_one(self, capsys):
        rc, out, _ = invoke(capsys, "poly", "--which", "H", "--n", "0")
        assert rc == 0
        assert out == "1\n"

    def test_unknown_kind(self, capsys):
        rc, _, _ = invoke(capsys, "poly", "--which", "Q", "--n", "1")
        assert rc == 2

    def test_json_shape(self, capsys):
        rc, out, _ = invoke(
            capsys, "poly", "--which", "V", "--n", "1", "--format", "json"
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["which"] == "V"
        assert payload["poly"] == "2*b*x - b + 2"


class TestHankel:
    def test_text_table(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "hankel",
            "--family",
            "catalan",
            "--n",
            "0..3",
            "--k",
            "0..3",
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert lines[1].split() == ["0", "1", "1", "1", "1"]
        assert "14" in lines[4].split()

    def test_single_value_ranges(self, capsys):
        rc, out, _ = invoke(
            capsys, "hankel", "--family", "catalan", "--n", "2", "--k", "2"
        )
        assert rc == 0
        assert out.strip().split("\n")[-1].split() == ["2", "3"]

    def test_range_cap(self, capsys):
        rc, _, err = invoke(
            capsys, "hankel", "--family", "catalan", "--n", "0..65", "--k", "0"
        )
        assert rc == 2
        assert "64" in err

    def test_reversed_range(self, capsys):
        rc, _, _ = invoke(
            capsys, "hankel", "--family", "catalan", "--n", "3..1", "--k", "0"
        )
        assert rc == 2

    def test_json_round_trips_bytewise(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "hankel",
            "--family",
            "Mb",
            "--b",
            "3",
            "--n",
            "0..2",
            "--k",
            "0..2",
            "--format",
            "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out
        assert payload["values"][0][0] == "1"

    def test_csv_rows(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "hankel",
            "--family",
            "catalan",
            "--n",
            "0..1",
            "--k",
            "0..1",
            "--format",
            "csv",
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "family,n,k,b,value"
        assert len(lines) == 5
        assert lines[1] == "catalan,0,0,,1"


class TestVerifyLibrarySuites:
    def test_th1_passes(self, capsys):
        rc, out, _ = invoke(
            capsys, "verify", "--suite", "th1", "--n-max", "4", "--k-max", "4"
        )
        assert rc == 0
        assert "PASS" in out

    def test_th1_json_is_deterministic(self, capsys):
        argv = (
            "verify", "--suite", "th1", "--n-max", "3", "--k-max", "3",
            "--format", "json",
        )
        rc1, out1, _ = invoke(capsys, *argv)
        rc2, out2, _ = invoke(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert list(payload) == ["suite", "grid", "cells", "summary", "meta"]
        assert payload["summary"] == {"pass": 16, "fail": 0}
        assert json.dumps(payload, indent=2) + "\n" == out1

    def test_th4_with_b_override(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "verify", "--suite", "th4", "--n-max", "2", "--k-max", "2",
            "--b", "1", "--b", "-2", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert {c["b"] for c in payload["cells"]} == {"1", "-2"}
        assert payload["summary"]["pass"] == 18

    def test_unknown_suite(self, capsys):
        rc, _, err = invoke(capsys, "verify", "--suite", "nope")
        assert rc == 2
        assert err

    def test_csv_emits_one_cell_per_row(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "verify", "--suite", "eq1_6", "--n-max", "2", "--k-max", "2",
            "--format", "csv",
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "suite,n,k,b,status,lhs,rhs"
        assert len(lines) == 5
        assert all(line.startswith("eq1_6,") for line in lines[1:])


class TestVerifyCompositeSuites:
    def test_th10(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "verify", "--suite", "th10", "--n-max", "4", "--k-max", "3",
            "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert "sign_law" in payload["grid"]

    def test_condensation_all_families(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "verify", "--suite", "condensation", "--n-max", "3",
            "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["grid"]["families"] == ["H", "Hb", "H2", "V", "h"]
        assert payload["summary"]["pass"] == 20

    def test_gf(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "verify", "--suite", "gf", "--n-max", "12", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        # 12 series cells + 8 anchor cells + 3 parameters x 12 coefficients
        assert payload["summary"] == {"pass": 56, "fail": 0}

    def test_basis(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "verify", "--suite", "basis", "--n-max", "6", "--format", "json",
        )
        assert rc == 0
        assert json.loads(out)["summary"]["fail"] == 0

    def test_pp_count(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "verify", "--suite", "pp-count", "--n-max", "3", "--k-max", "2",
            "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["summary"]["pass"] == 9
        lhs = {
            (c["n"], c["k"]): c["lhs"] for c in payload["cells"]
        }
        assert lhs[(3, 2)] == "14"

    def test_bijection_roundtrip(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "verify", "--suite", "bijection-roundtrip",
            "--n-max", "3", "--k-max", "2", "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["summary"]["pass"] == 18
        assert payload["grid"]["models"] == ["dyck", "hv"]


class TestEnumerateAndBijectionCommands:
    def test_enumerate_count_only(self, capsys):
        rc, out, _ = invoke(capsys, "enumerate-pp", "--n", "3", "--k", "2")
        assert rc == 0
        assert out == "count: 14\n"

    def test_enumerate_list(self, capsys):
        rc, out, _ = invoke(
            capsys, "enumerate-pp", "--n", "3", "--k", "2", "--list"
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "count: 14"
        assert len(lines) == 15
        assert lines[1] == "0,0;0"
        assert lines[-1] == "2,2;2"

    def test_enumerate_json(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "enumerate-pp", "--n", "2", "--k", "1", "--list",
            "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["partitions"] == ["0", "1"]

    def test_bijection_dyck(self, capsys):
        rc, out, _ = invoke(
            capsys, "bijection", "--n", "3", "--k", "1", "--which", "dyck"
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert all(line.endswith("[ok]") for line in lines)

    def test_bijection_hv(self, capsys):
        rc, out, _ = invoke(
            capsys,
            "bijection", "--n", "2", "--k", "2", "--which", "hv",
            "--format", "json",
        )
        assert rc == 0
        payload = json.loads(out)
        assert len(payload["cells"]) == 3
        assert all(c["status"] == "ok" for c in payload["cells"])

    def test_invalid_order(self, capsys):
        rc, _, _ = invoke(capsys, "enumerate-pp", "--n", "0", "--k", "2")
        assert rc == 2


class TestPlumbing:
    def test_no_arguments_is_usage_error(self, capsys):
        rc, _, err = invoke(capsys)
        assert rc == 2
        assert err

    def test_help_exits_zero(self, capsys):
        rc, out, _ = invoke(capsys, "--help")
        assert rc == 0
        assert "moments" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = invoke(
            capsys,
            "verify", "--suite", "th1", "--n-max", "2", "--k-max", "2",
            "--format", "json", "--output", str(target),
        )
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["suite"] == "th1"

    def test_exit_code_reflects_failures(self):
        good = VerificationReport(suite="demo", grid={})
        good.add(n=0, ok=True, lhs="1", rhs="1")
        assert report_exit_code(good) == 0
        bad = VerificationReport(suite="demo", grid={})
        bad.add(n=0, ok=False, lhs="1", rhs="2")
        assert report_exit_code(bad) == 1

    def test_run_suite_is_importable(self):
        report = run_suite("th1", n_max=2, k_max=2)
        assert report.passed
        with pytest.raises(ValueError, match="suite"):
            run_suite("bogus")


def _csv_text(rows):
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


META = {"generator": "shifted-hankel", "version": __version__}


class TestRenderingMatchesLibrary:
    """Each format of the listing commands equals a rendering built here
    from the enumerator and the encoders."""

    @pytest.mark.parametrize("n, k", [(1, 2), (3, 2), (4, 1)])
    def test_enumerate_list_formats(self, capsys, n, k):
        listed = [partition_to_text(p) for p in enumerate_pp(n, k)]
        expected = {
            "text": "\n".join(
                [f"count: {len(listed)}"]
                + [line if line else "(empty)" for line in listed]
            )
            + "\n",
            "json": _json_text(
                {
                    "n": n,
                    "k": k,
                    "count": len(listed),
                    "partitions": listed,
                    "meta": META,
                }
            ),
            "csv": _csv_text(
                [["n", "k", "partition"]]
                + [[str(n), str(k), line] for line in listed]
            ),
        }
        for fmt, want in expected.items():
            rc, out, _ = invoke(
                capsys, "enumerate-pp", "--list", "--n", str(n), "--k", str(k),
                "--format", fmt,
            )
            assert rc == 0
            assert out == want, fmt

    @pytest.mark.parametrize(
        "which, n, k",
        [("dyck", 3, 2), ("dyck", 3, 0), ("hv", 3, 2), ("hv", 1, 0)],
    )
    def test_bijection_formats(self, capsys, which, n, k):
        encode = pp_to_dyck if which == "dyck" else pp_to_hv
        cells = [
            (
                partition_to_text(p),
                ";".join(path_to_text(path) for path in encode(p).paths),
            )
            for p in enumerate_pp(n, k)
        ]
        expected = {
            "text": "".join(
                f"{ptext or '(empty)'} -> {ftext or '(no paths)'} [ok]\n"
                for ptext, ftext in cells
            ),
            "json": _json_text(
                {
                    "n": n,
                    "k": k,
                    "model": which,
                    "cells": [
                        {"partition": ptext, "image": ftext, "status": "ok"}
                        for ptext, ftext in cells
                    ],
                    "meta": META,
                }
            ),
            "csv": _csv_text(
                [["n", "k", "model", "partition", "image", "status"]]
                + [
                    [str(n), str(k), which, ptext, ftext, "ok"]
                    for ptext, ftext in cells
                ]
            ),
        }
        for fmt, want in expected.items():
            rc, out, _ = invoke(
                capsys, "bijection", "--which", which, "--n", str(n),
                "--k", str(k), "--format", fmt,
            )
            assert rc == 0
            assert out == want, fmt


class TestRefusals:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify", "--suite", "pp-count", "--n-max", "0"), "empty grid"),
            (
                ("verify", "--suite", "bijection-roundtrip", "--n-max", "0"),
                "empty grid",
            ),
            (
                ("verify", "--suite", "bijection-roundtrip", "--cap", "-5"),
                "cap must be at least 0",
            ),
            (("verify", "--suite", "pp-count", "--cap", "1.5"), "cap"),
        ],
        ids=["pp-count-zero-cells", "bijection-zero-cells", "cap-negative",
             "cap-not-integer"],
    )
    def test_exit_two_with_message(self, capsys, argv, message):
        rc, out, err = invoke(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert message in err


class TestRefusedSuiteInputs:
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ("verify", "--suite", "th1", "--b", "1"), "does not take b",
                id="th1-b",
            ),
            pytest.param(
                ("verify", "--suite", "cor7", "--b", "2"), "does not take b",
                id="cor7-b",
            ),
            pytest.param(
                ("verify", "--suite", "th10", "--b", "1"), "does not take b",
                id="th10-b",
            ),
            pytest.param(
                ("verify", "--suite", "eq1_6", "--n-max", "0"), "empty grid",
                id="eq1_6-zero-cells",
            ),
            pytest.param(
                ("verify", "--suite", "cor7", "--k-max", "0"), "empty grid",
                id="cor7-zero-cells",
            ),
        ],
    )
    def test_exit_two_with_message(self, capsys, argv, message):
        rc, out, err = invoke(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert message in err

    def test_suites_that_read_b_still_take_it(self, capsys):
        for suite in ("th4", "gf"):
            rc, _, _ = invoke(
                capsys, "verify", "--suite", suite, "--n-max", "2", "--b", "3"
            )
            assert rc == 0, suite

    def test_float_b_is_refused(self):
        with pytest.raises(TypeError, match="float"):
            run_suite("gf", n_max=2, b_values=[0.5])
