import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, GOLDEN_CASES, compare_golden, record_json_dict
import selbergdim
from selbergdim import cli, resonance
from selbergdim.dims import DimQuery, compute_record
from selbergdim.resonance import config_from_json


@pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(run_cli, name, argv, expected_code):
    code, out, err = run_cli(*argv)
    assert err == ""
    assert code == expected_code
    compare_golden(name, out)


class TestExitCodes:
    def test_dims_out_of_range_r_is_usage_error(self, run_cli):
        code, out, err = run_cli("dims", "-m", "2", "-n", "4", "-r", "9")
        assert code == 1
        assert out == ""
        assert "r must satisfy" in err

    def test_dims_missing_flag_is_usage_error(self, run_cli):
        code, _, err = run_cli("dims", "-m", "2", "-n", "4")
        assert code == 1
        assert "error" in err

    def test_table_reversed_range_is_usage_error(self, run_cli):
        code, _, err = run_cli("table", "--m-range", "4..2", "--n-range", "4..6")
        assert code == 1
        assert "empty range" in err

    def test_table_malformed_range_is_usage_error(self, run_cli):
        code, _, err = run_cli("table", "--m-range", "2..x", "--n-range", "4..6")
        assert code == 1
        assert "invalid range" in err

    def test_classify_violation_exits_3_but_prints_report(self, run_cli):
        code, out, _ = run_cli("classify", str(DATA_DIR / "config_violation.json"))
        assert code == 3
        assert "assumption_valid = false" in out
        assert "diagonal" in out

    def test_classify_parse_error_names_position(self, run_cli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 2, "g": "1/2", "lambdas": ["1/4", "1/0"]}', encoding="utf-8")
        code, out, err = run_cli("classify", str(bad))
        assert code == 1
        assert out == ""
        assert "lambdas[1]" in err and "denominator is zero" in err

    def test_classify_missing_file(self, run_cli, tmp_path):
        code, _, err = run_cli("classify", str(tmp_path / "nope.json"))
        assert code == 1
        assert "cannot read" in err

    def test_classify_non_utf8_file(self, run_cli, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b'\xff\xfe{"m":1}')
        code, out, err = run_cli("classify", str(bad))
        assert code == 1
        assert out == ""
        assert "cannot read" in err and "Traceback" not in err

    def test_classify_integer_over_the_digit_limit(self, run_cli, tmp_path):
        big = tmp_path / "big.json"
        big.write_text('{"m": 1' + "0" * 4999 + ', "g": "1/2", "lambdas": ["1/4"]}')
        code, out, err = run_cli("classify", str(big))
        assert code == 1
        assert out == ""
        assert "not valid JSON" in err and err.count("\n") == 1

    def test_verify_unknown_suite_is_usage_error(self, run_cli):
        code, _, err = run_cli("verify", "everything")
        assert code == 1
        assert "invalid choice" in err

    def test_verify_zero_cases_rejected(self, run_cli):
        code, _, err = run_cli("verify", "pfaff", "--cases", "0")
        assert code == 1
        assert "--cases" in err

    def test_verify_negative_cases_rejected(self, run_cli):
        for suite in ("pfaff", "hockey", "all"):
            code, out, err = run_cli("verify", suite, "--cases", "-3")
            assert (code, out) == (1, "")
            assert "--cases" in err

    def test_verify_passing_suite_exits_zero(self, run_cli):
        code, out, _ = run_cli("verify", "pochhammer", "--cases", "5")
        assert code == 0
        assert "all checks passed" in out


# D = C(19998, 10000) has 6,018 digits, over the default int-to-str limit.
BIG_DIMS = ("dims", "-m", "10000", "-n", "10000", "-r", "2")
DIGIT_LIMIT_HINT = "PYTHONINTMAXSTRDIGITS=0 lifts it"


class TestDigitLimit:
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_dims_over_the_limit_is_one_error_line(self, run_cli, fmt):
        code, out, err = run_cli(*BIG_DIMS, "--format", fmt)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "more digits than the interpreter's int-to-str limit" in err
        assert DIGIT_LIMIT_HINT in err

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_table_stops_at_the_record_over_the_limit(self, run_cli, monkeypatch, fmt):
        small = cli._row_of(compute_record(DimQuery(2, 4, 1)))
        big = cli._row_of(compute_record(DimQuery(10000, 10000, 2)))
        monkeypatch.setattr(cli, "_iter_rows", lambda *args: iter([small, big, small]))
        code, out, err = run_cli("table", "--m-range", "2..2", "--n-range", "4..4",
                                 "--format", fmt)
        assert code == 1
        assert err.count("\n") == 1 and DIGIT_LIMIT_HINT in err
        # csv and json stream: the record before the long one is already out.
        assert out == {
            "csv": "m,n,r,D,K_recursion,K_reduction,K_closed,I_sum,I_hyp,I_subtract,"
                   "routes_agree,in_validity_range\n2,4,1,6,1,1,1,5,5,5,true,true\n",
            "json": "[\n" + cli._record_json(small, 1),
            "pretty": "",
        }[fmt]

    def test_lifted_limit_prints_the_exact_record(self):
        src = Path(selbergdim.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "selbergdim", *BIG_DIMS, "--format", "json"],
            env=env, capture_output=True, text=True, check=False,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            doc = json.loads(proc.stdout)
            expected = record_json_dict(compute_record(DimQuery(10000, 10000, 2)))
        finally:
            sys.set_int_max_str_digits(limit)
        assert doc == expected
        assert doc["D"] == math.comb(19998, 10000)


class TestDeterminism:
    def test_byte_identical_reruns(self, run_cli):
        first = run_cli("table", "--m-range", "2..4", "--n-range", "4..6",
                        "--r-policy", "only-n", "--format", "csv")
        second = run_cli("table", "--m-range", "2..4", "--n-range", "4..6",
                         "--r-policy", "only-n", "--format", "csv")
        assert first == second

    def test_verify_deterministic_given_seed(self, run_cli):
        first = run_cli("verify", "pfaff", "--seed", "11", "--cases", "40", "--format", "json")
        second = run_cli("verify", "pfaff", "--seed", "11", "--cases", "40", "--format", "json")
        assert first == second

    def test_parser_shared_across_calls(self, run_cli, monkeypatch):
        # main parses with the parser built at import; a usage error in one
        # call leaves nothing behind for the next.
        def no_rebuild():
            raise AssertionError("main must not build a new parser")

        monkeypatch.setattr(cli, "_build_parser", no_rebuild)
        first = run_cli("dims", "-m", "4", "-n", "5", "-r", "3", "--format", "csv")
        assert run_cli("dims", "-m", "4", "-n", "5")[0] == 1
        assert run_cli("verify", "pfaff", "--cases", "0")[0] == 1
        assert run_cli("dims", "-m", "4", "-n", "5", "-r", "3", "--format", "csv") == first
        assert first[0] == 0

    def test_verify_seed_changes_draws(self, run_cli):
        _, out_a, _ = run_cli("verify", "pfaff", "--seed", "1", "--cases", "40", "--format", "json")
        _, out_b, _ = run_cli("verify", "pfaff", "--seed", "2", "--cases", "40", "--format", "json")
        assert json.loads(out_a)["results"][0]["skipped"] != json.loads(out_b)["results"][0]["skipped"]


class TestRoundTrip:
    def test_classify_json_config_reparses_to_equal_value(self, run_cli):
        source = DATA_DIR / "config_resonant.json"
        code, out, _ = run_cli("classify", str(source), "--format", "json")
        assert code == 0
        emitted = json.loads(out)["config"]
        assert config_from_json(emitted) == config_from_json(source.read_text(encoding="utf-8"))

    def test_table_out_file_matches_stdout(self, run_cli, tmp_path):
        out_path = tmp_path / "t.csv"
        code, out, _ = run_cli("table", "--m-range", "2..2", "--n-range", "4..4",
                               "--format", "csv", "--out", str(out_path))
        assert code == 0
        assert out == ""
        code2, stdout, _ = run_cli("table", "--m-range", "2..2", "--n-range", "4..4",
                                   "--format", "csv")
        assert out_path.read_text(encoding="utf-8") == stdout

    def test_table_unwritable_out_is_io_error(self, run_cli, tmp_path):
        code, _, err = run_cli("table", "--m-range", "2..2", "--n-range", "4..4",
                               "--out", str(tmp_path / "no" / "dir" / "t.csv"))
        assert code == 1
        assert "cannot write" in err


class TestContent:
    def test_dims_json_has_consolidated_image_value(self, run_cli):
        code, out, _ = run_cli("dims", "-m", "4", "-n", "5", "-r", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["I"] == 8
        assert doc["I_hyp"] == "8"  # rational text form on purpose
        assert doc["K"] == 27

    def test_dims_pretty_shows_image_value(self, run_cli):
        code, out, _ = run_cli("dims", "-m", "2", "-n", "4", "-r", "4")
        assert code == 0
        assert "I = 2" in out

    def test_table_row_counts(self, run_cli):
        _, out, _ = run_cli("table", "--m-range", "2..2", "--n-range", "4..4", "--format", "csv")
        rows = out.strip().split("\n")
        assert len(rows) == 1 + 5  # header + r = 0..4
        _, out, _ = run_cli("table", "--m-range", "2..4", "--n-range", "4..6",
                            "--r-policy", "only-n", "--format", "csv")
        rows = out.strip().split("\n")
        assert len(rows) == 1 + 9
        assert all(row.split(",")[10] == "true" for row in rows[1:])  # routes_agree column

    def test_csv_never_contains_a_decimal_point(self, run_cli):
        _, out, _ = run_cli("table", "--m-range", "1..5", "--n-range", "2..7", "--format", "csv")
        assert "." not in out

    def test_classify_violation_csv_leaves_record_cells_blank(self, run_cli):
        config = str(DATA_DIR / "config_violation.json")
        code, out, err = run_cli("classify", config, "--format", "csv")
        assert (code, err) == (3, "")
        assert out == (
            "m,n,r,lambda_infinity,assumption_valid,violations,D,K_recursion,"
            "K_reduction,K_closed,I_sum,I_hyp,I_subtract,routes_agree,in_validity_range\n"
            "2,2,0,-31/12,false,diagonal:k=2:value=2,,,,,,,,,\n"
        )

    def test_dims_n1_pole_edge_is_visible_and_exits_2(self, run_cli):
        code, out, _ = run_cli("dims", "-m", "2", "-n", "1", "-r", "1", "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["I_hyp"] is None
        assert doc["hyp_error"] is not None
        assert doc["routes_agree"] is False


class TestCsvQuoting:
    def test_plain_cells_are_written_as_they_are(self):
        assert cli._csv_row(["4", "-13/12", "true", ""]) == "4,-13/12,true,"

    @pytest.mark.parametrize(
        "cells",
        [["a,b", "c"], ['say "hi"', ""], ["two\nlines", "x"], ["cr\rhere"], ['",', ",,"], [","]],
    )
    def test_special_cells_are_quoted_and_read_back(self, cells):
        line = cli._csv_row(cells)
        assert list(csv.reader(io.StringIO(line + "\n"))) == [cells]
        quoted = [cell for cell in cells if any(c in cell for c in ',"\r\n')]
        assert all(f'"{cell.replace(chr(34), chr(34) * 2)}"' in line for cell in quoted)


# The per-cell rule _csv_row applied to every line before it gained its
# plain-join fast path, kept verbatim as an oracle.
_FROZEN_CSV_QUOTED = re.compile(r'[",\r\n]')


def frozen_csv_row(cells):
    return ",".join(
        '"' + cell.replace('"', '""') + '"' if _FROZEN_CSV_QUOTED.search(cell) else cell
        for cell in cells
    )


class TestCsvRowMatchesFrozenRule:
    @settings(max_examples=500)
    @given(st.lists(st.text(alphabet='0123456789/-,"\r\na', max_size=6), max_size=6))
    @example(cells=[])
    @example(cells=[""])
    @example(cells=["", ""])
    @example(cells=["a,b"])
    @example(cells=["1", "2,"])
    def test_same_line_and_read_back(self, cells):
        line = cli._csv_row(cells)
        assert line == frozen_csv_row(cells)
        # One empty cell and no cell both write an empty line, read back as no cell.
        expected = [] if cells == [""] else cells
        assert list(csv.reader(io.StringIO(line + "\n"))) == [expected]


def test_classify_classifies_once(run_cli, monkeypatch):
    calls = []
    real = resonance.classify

    def counting(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(resonance, "classify", counting)
    code, out, _ = run_cli("classify", str(DATA_DIR / "config_resonant.json"), "--format", "json")
    assert code == 0
    assert json.loads(out)["dimensions"]["routes_agree"] is True
    assert len(calls) == 1
