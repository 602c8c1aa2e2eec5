import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR, GOLDEN_CASES, compare_golden, frozen_record_cells, record_json_dict, replace_row,
    row_of,
)
import selbergdim
from selbergdim import cli, dims, resonance
from selbergdim.dims import DimQuery, compute_record
from selbergdim.exactnum import format_rational
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

    def test_classify_path_with_nul_byte(self, run_cli):
        # open() raises ValueError, not OSError, for an embedded NUL.
        code, out, err = run_cli("classify", "a\x00b.json")
        assert (code, out) == (1, "")
        assert err.startswith("selbergdim classify: error: cannot read ")
        assert err.count("\n") == 1

    def test_table_out_path_with_nul_byte(self, run_cli):
        code, out, err = run_cli("table", "--m-range", "2..2", "--n-range", "4..4",
                                 "--out", "a\x00b")
        assert (code, out) == (1, "")
        assert err.startswith("selbergdim table: error: cannot write ")
        assert err.count("\n") == 1

    @staticmethod
    def classify_past_the_digit_limit(run_cli, tmp_path, doc: str, field: str) -> None:
        # A 5,000-digit value: one line in the words of the dims digit check,
        # naming the field, not Python's own text.
        big = tmp_path / "big.json"
        big.write_text(doc % ("1" + "0" * 4999))
        assert run_cli("classify", str(big)) == (
            1,
            "",
            f"selbergdim classify: error: {field}: a value has more digits than the "
            "interpreter's int-to-str limit (4300); PYTHONINTMAXSTRDIGITS=0 lifts it\n",
        )

    def test_classify_integer_over_the_digit_limit(self, run_cli, tmp_path):
        doc = '{"m": %s, "g": "1/2", "lambdas": ["1/4"]}'
        self.classify_past_the_digit_limit(run_cli, tmp_path, doc, "m")

    @pytest.mark.parametrize("field, doc", [
        ("g", '{"m": 2, "g": "%s/3", "lambdas": ["1/4"]}'),
        ("lambdas[1]", '{"m": 2, "g": "1/2", "lambdas": ["1/4", "-1/%s"]}'),
    ], ids=["g", "lambda"])
    def test_classify_rational_over_the_digit_limit(self, run_cli, tmp_path, field, doc):
        self.classify_past_the_digit_limit(run_cli, tmp_path, doc, field)

    @staticmethod
    def classify_process(config: Path) -> subprocess.CompletedProcess:
        # A real process, as the traceback these guard against is what it prints.
        src = Path(selbergdim.__file__).parent.parent
        return subprocess.run(
            [sys.executable, "-m", "selbergdim", "classify", str(config)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=False, timeout=10,
        )

    def test_classify_deeply_nested_document(self, tmp_path):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        proc = self.classify_process(nested)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("selbergdim classify: error: not valid JSON: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_classify_m_past_the_index_limit(self, tmp_path):
        # The tests run up to k = m, a range longer than sys.maxsize.
        huge = tmp_path / "huge-m.json"
        huge.write_text('{"m": 1' + "0" * 30 + ', "g": "1/3", "lambdas": ["1/5"]}')
        start = time.perf_counter()
        proc = self.classify_process(huge)
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "selbergdim classify: error: too large: this request counts past the "
            "interpreter's index limit\n"
        )

    @pytest.mark.parametrize("argv", [
        ("dims", "-m", "3", "-n", str(10**30), "-r", str(10**30)),
        ("table", "--m-range", "3..3", "--n-range", f"{10**30}..{10**30}", "--r-policy", "only-n"),
    ], ids=lambda argv: argv[0])
    def test_k_row_past_the_index_limit_is_one_line(self, run_cli, argv):
        # A K row of 10^30 + 1 entries is longer than any list can be.
        code, _, err = run_cli(*argv, "--format", "json")
        assert code == 1
        assert err == (
            f"selbergdim {argv[0]}: error: too large: this request counts past the "
            "interpreter's index limit\n"
        )

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

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_verify_cases_below_one_is_reported_by_verify(self, run_cli, cases):
        # As a --cases that is no int is: verify's usage, then its error line.
        _, _, not_int = run_cli("verify", "pfaff", "--cases", "x")
        usage = not_int[:not_int.index("selbergdim verify: error: ")]
        assert usage.startswith("usage: selbergdim verify ")
        assert run_cli("verify", "pfaff", "--cases", cases) == (
            1, "", usage + "selbergdim verify: error: --cases must be >= 1\n"
        )

    @pytest.mark.parametrize("argv,message", [
        (("-m", "0", "-n", "3", "-r", "1"), "m must be >= 1, got 0"),
        (("-m", "2", "-n", "0", "-r", "0"), "n must be >= 1, got 0"),
        (("-m", "2", "-n", "3", "-r", "-1"), "r must satisfy 0 <= r <= n=3, got -1"),
        (("-m", "2", "-n", "3", "-r", "4"), "r must satisfy 0 <= r <= n=3, got 4"),
    ])
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_dims_domain_error_is_one_line(self, run_cli, argv, message, fmt):
        assert run_cli("dims", *argv, "--format", fmt) == (
            1, "", f"selbergdim dims: error: {message}\n"
        )

    @pytest.mark.parametrize("argv", [
        ("dims", "-m", "3", "-n", "1000", "-r", "1000"),
        ("table", "--m-range", "3..3", "--n-range", "1000..1000", "--r-policy", "only-n"),
        ("classify", str(DATA_DIR / "config_resonant.json")),
    ], ids=lambda argv: argv[0])
    def test_out_of_memory_is_one_line(self, run_cli, monkeypatch, argv):
        # A K row too large for the process's memory limit ends the same way.
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(dims, "_k_recursion_row", no_memory)
        code, out, err = run_cli(*argv, "--format", "json")
        assert (code, out) == (1, "")
        assert err == (
            f"selbergdim {argv[0]}: error: out of memory: the rows of this request do not fit\n"
        )

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
        small = row_of(compute_record(DimQuery(2, 4, 1)))
        big = row_of(compute_record(DimQuery(10000, 10000, 2)))
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

    def test_table_out_stops_at_the_record_over_the_limit(self, run_cli, monkeypatch, tmp_path):
        # The digit limit's ValueError in mid-stream is not a write error.
        small = row_of(compute_record(DimQuery(2, 4, 1)))
        big = row_of(compute_record(DimQuery(10000, 10000, 2)))
        monkeypatch.setattr(cli, "_iter_rows", lambda *args: iter([small, big, small]))
        path = tmp_path / "table.csv"
        code, out, err = run_cli("table", "--m-range", "2..2", "--n-range", "4..4",
                                 "--out", str(path))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and DIGIT_LIMIT_HINT in err and "cannot write" not in err
        assert path.read_text(encoding="utf-8").endswith("\n2,4,1,6,1,1,1,5,5,5,true,true\n")

    @pytest.mark.parametrize("mnr", ["7200", "10000"])
    def test_dims_checks_d_before_the_routes(self, mnr):
        # The routes for m = n = r = 7200 run for minutes; D alone has 4,332 digits.
        src = Path(selbergdim.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "4300"}
        proc = subprocess.run(
            [sys.executable, "-m", "selbergdim", "dims", "-m", mnr, "-n", mnr, "-r", mnr],
            env=env, capture_output=True, text=True, check=False, timeout=5,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "selbergdim dims: error: a value has more digits than the interpreter's "
            "int-to-str limit (4300); PYTHONINTMAXSTRDIGITS=0 lifts it\n"
        )

    def test_table_checks_d_before_the_routes(self):
        # At m = n = 7200 the routes run for minutes, and D alone has 4,332
        # digits: the table writes its header, then fails at the first record.
        src = Path(selbergdim.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONINTMAXSTRDIGITS": "4300"}
        proc = subprocess.run(
            [sys.executable, "-m", "selbergdim", "table", "--m-range", "7200..7200",
             "--n-range", "7200..7200", "--r-policy", "only-n", "--format", "csv"],
            env=env, capture_output=True, text=True, check=False, timeout=5,
        )
        assert proc.returncode == 1
        assert proc.stdout == ",".join(cli.CSV_COLUMNS) + "\n"
        assert proc.stderr == (
            "selbergdim table: error: a value has more digits than the interpreter's "
            "int-to-str limit (4300); PYTHONINTMAXSTRDIGITS=0 lifts it\n"
        )

    @pytest.mark.parametrize("command", ["dims", "table", "classify"])
    def test_every_printing_command_checks_d_in_the_row_builder(
        self, run_cli, monkeypatch, tmp_path, command
    ):
        # D(3, 6) = 35 has two digits; a one-digit limit, seen only by the
        # row builder, stops each command before its first record.
        config = tmp_path / "config.json"
        config.write_text('{"m": 3, "g": "1/7", "lambdas": '
                          '["1/11", "1/13", "1/17", "1/19", "1/23", "1/29"]}')
        argv = {
            "dims": ("dims", "-m", "3", "-n", "6", "-r", "0", "--format", "json"),
            "table": ("table", "--m-range", "3..3", "--n-range", "6..6", "--format", "json"),
            "classify": ("classify", str(config), "--format", "json"),
        }[command]
        monkeypatch.setattr(cli, "_digit_limit", lambda: 1)
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err == (
            f"selbergdim {command}: error: a value has more digits than the interpreter's "
            "int-to-str limit (1); PYTHONINTMAXSTRDIGITS=0 lifts it\n"
        )

    @pytest.mark.parametrize("m,n", [(7200, 7200), (3, 2 ** 5740)], ids=["late", "early"])
    def test_the_library_takes_no_limit(self, m, n):
        # D(7200, 7200) has 4,332 digits, past the default limit of 4,300, and
        # is compared once computed; D(3, 2^5740) has 5,183, certain from m
        # and n alone. The row builder refuses each only when given that limit.
        with pytest.raises(ValueError):
            next(dims._block_rows(m, n, (1,), 4300))
        rec = compute_record(DimQuery(m, n, 1))
        assert rec.D == math.comb(m + n - 2, m) and rec.routes_agree
        assert row_of(rec) == next(dims._block_rows(m, n, (1,)))

    @pytest.mark.parametrize("argv", [
        ("dims", "-m", "1000000", "-n", "1000000", "-r", "1000000"),
        ("dims", "-m", "10000000", "-n", "10000000", "-r", "3"),
        ("table", "--m-range", "1000000..1000000", "--n-range", "1000000..1000000",
         "--r-policy", "only-n"),
    ], ids=["dims-r1000000", "dims-r3", "table"])
    def test_a_d_past_the_limit_from_m_and_n_is_never_computed(self, run_cli, monkeypatch, argv):
        # math.comb would take minutes on each of these Ds.
        def refuse(m, n):
            raise AssertionError(f"D({m}, {n}) was computed")

        monkeypatch.setattr(dims, "dim_D", refuse)
        monkeypatch.setattr(cli, "_digit_limit", lambda: 4300)
        assert run_cli(*argv) == (
            1,
            "" if argv[0] == "dims" else ",".join(cli.CSV_COLUMNS) + "\n",
            f"selbergdim {argv[0]}: error: a value has more digits than the interpreter's "
            "int-to-str limit (4300); PYTHONINTMAXSTRDIGITS=0 lifts it\n",
        )

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 400), st.integers(1, 40))
    @example(10, 100, 5)  # refused from m and n alone: j = 10, b = 4, and 10 * 3 >= 4 * 5
    @example(3, 14, 2)  # D = 455, refused once computed and compared
    @example(1, 10, 1)  # j = 1, where the bound is tightest: D = 9 and D = 599 are
    @example(1, 600, 3)  # under the limit, though their N is past 8^limit
    @example(10, 2, 1)  # j = min(m, n - 2) = 0 and D = 1: D is compared
    @example(10, 1, 1)  # j = -1 and D = 0
    def test_the_row_builder_refuses_exactly_a_d_past_the_limit(self, m, n, limit):
        try:
            next(dims._block_rows(m, n, (0,), limit))
        except ValueError:
            assert dims.dim_D(m, n) >= 10 ** limit
        else:
            assert dims.dim_D(m, n) < 10 ** limit

    @pytest.mark.parametrize("m", [1065, 1066, 1067, 1068])
    def test_dims_early_check_matches_the_limit(self, run_cli, m):
        # D(m, m) has 639, 640, 641 and 641 digits: at a limit of 640 the
        # early check fails exactly the requests whose D str() would refuse.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli("dims", "-m", str(m), "-n", str(m), "-r", "1",
                                     "--format", "csv")
        finally:
            sys.set_int_max_str_digits(limit)
        if len(str(dims.dim_D(m, m))) > 640:
            assert (code, out) == (1, "")
            assert err == (
                "selbergdim dims: error: a value has more digits than the interpreter's "
                "int-to-str limit (640); PYTHONINTMAXSTRDIGITS=0 lifts it\n"
            )
        else:
            assert (code, err) == (0, "")
            assert out.split("\n")[1].split(",")[3] == str(dims.dim_D(m, m))

    def test_dims_without_the_limit_function(self, run_cli, monkeypatch):
        # Early 3.10 builds have no sys.get_int_max_str_digits: no early check.
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        code, out, err = run_cli("dims", "-m", "2", "-n", "4", "-r", "4", "--format", "csv")
        assert (code, err) == (0, "")
        compare_golden("dims_2_4_4.csv", out)

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
        # main parses with the parsers built at import, the top-level one and
        # each subcommand's; a usage error in one call leaves nothing behind
        # for the next.
        def no_rebuild(*args, **kwargs):
            raise AssertionError("main must not build a new parser")

        monkeypatch.setattr(cli, "_build_parser", no_rebuild)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_rebuild)
        first = run_cli("dims", "-m", "4", "-n", "5", "-r", "3", "--format", "csv")
        assert run_cli("dims", "-m", "4", "-n", "5")[0] == 1
        assert run_cli("verify", "pfaff", "--cases", "0")[0] == 1
        assert run_cli("dims", "-m", "4", "-n", "5", "-r", "3", "--format", "csv") == first
        assert first[0] == 0

    def test_verify_seed_changes_draws(self, run_cli):
        _, out_a, _ = run_cli("verify", "pfaff", "--seed", "1", "--cases", "40", "--format", "json")
        _, out_b, _ = run_cli("verify", "pfaff", "--seed", "2", "--cases", "40", "--format", "json")
        assert json.loads(out_a)["results"][0]["skipped"] != json.loads(out_b)["results"][0]["skipped"]


# One well-formed request of each subcommand, and each argv form the
# benchmark workloads send.
WELL_FORMED = [
    ("dims", "-m", "4", "-n", "5", "-r", "3"),
    ("table", "--m-range", "2..4", "--n-range", "4..6", "--r-policy", "only-n"),
    ("classify", "config.json"),
    ("verify", "pfaff", "--seed", "7", "--cases", "5"),
    ("table", "--m-range", "1..30", "--n-range", "2..30", "--r-policy", "all", "--format", "csv"),
    ("table", "--m-range", "1..30", "--n-range", "2..30", "--r-policy", "all", "--format", "json"),
    ("dims", "-m", "17", "-n", "40", "-r", "40", "--format", "json"),
    ("classify", "config-0.json", "--format", "json"),
    ("verify", "all", "--seed", "1", "--format", "json"),
    ("verify", "pfaff", "--seed", "2", "--cases", "250", "--format", "json"),
]

# Argument lists on which ``cli._parse_args`` must behave exactly as
# ``cli._PARSER.parse_args``: valid requests, option spellings, help, each
# kind of usage error, and the edges of the direct parse, where it hands over
# to argparse.
PARSE_CORPUS = WELL_FORMED + [
    ("dims", "-m3", "-n", "5", "-r", "3"),
    ("dims", "-m", "4", "-n", "5", "-r", "3", "--format=csv"),
    ("dims", "-m", "4", "-n", "5", "-r", "3", "--form", "json"),
    ("table", "--m-range=1..2", "--n-range", "3", "--out", "t.csv", "--format", "json"),
    ("-h",),
    ("-h", "dims"),
    ("dims", "-h"),
    ("table", "--m-range", "1..2", "-h"),
    ("verify", "--help"),
    ("dims", "-m", "2", "-n", "4"),
    ("dims", "-m", "x", "-n", "4", "-r", "1"),
    ("dims", "-m", "2", "-n", "4", "-r", "1", "--format", "xml"),
    ("dims", "-m", "2", "-m", "3", "-n", "4", "-r", "1"),
    ("dims", "-m", "-2", "-n", "4", "-r", "1"),
    ("dims", "-m", "2", "-n", "4", "-r", "1", "extra"),
    ("dims", "extra", "-m", "2", "-n", "4", "-r", "1", "more"),
    ("dims", "-m", "2", "-n", "4", "-r", "1", "-x"),
    ("dims", "-x", "1", "-m", "2", "-n", "4", "-r", "1"),
    ("--", "dims", "-m", "2", "-n", "4", "-r", "1"),
    ("dims", "--", "-m", "2", "-n", "4", "-r", "1"),
    ("dims", "-m", "2", "-n", "4", "-r", "1", "--"),
    ("verify", "--", "pfaff"),
    ("classify", "a.json", "b.json"),
    ("table", "--m-range", "2..x", "--n-range", "4..6"),
    ("table", "--m-range", "1..2", "--n-range", "1..2", "--out"),
    ("verify", "all", "--cases", "-3"),
    ("verify",),
    ("verify", "everything"),
    ("bogus",),
    ("bogus", "-m", "2"),
    ("-x", "dims"),
    ("--format", "json"),
    (),
    # Values int reads, and those it refuses: "", and more digits than the
    # int-to-str limit allows.
    ("dims", "-m", "", "-n", "4", "-r", "1"),
    ("dims", "-m", " 4", "-n", "5", "-r", "3"),
    ("dims", "-m", "1_0", "-n", "5", "-r", "3"),
    ("dims", "-m", "\u0664", "-n", "5", "-r", "3"),
    ("dims", "-m", "1" * 5000, "-n", "3", "-r", "1"),
    # An option with no value, options given twice, an option before the
    # positional, and positionals that start with "-".
    ("dims", "-m", "2", "-n", "4", "-r"),
    ("table", "--m-range", "1..2", "--n-range", "1..2", "--out", "a.csv", "--out", "b.csv"),
    ("table", "--m-range", "1..2", "--n-range", "1..2", "--r-policy", "only-n",
     "--r-policy", "all"),
    ("verify", "--seed", "3", "pfaff"),
    ("classify", "-"),
    ("classify", "-x.json"),
]


def parse_outcome(parse, argv):
    """(exit code, the namespace's vars, stdout, stderr) of one parse; None for no exit."""
    code = namespace = None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return code, namespace, out.getvalue(), err.getvalue()


# Tokens for random argument lists: every value kind of every option, good
# and bad, and the spellings the direct parse leaves to argparse.
_VALUES = ("2", "0", "-3", " 4", "", "x", "1_0", "2..3", "2..x", "only-n", "json", "xml",
           "pfaff", "all", "a.json", "-", "-x.json")
_SPELLINGS = ("--", "-h", "--help", "-x", "--form", "-m3", "--seed=2", "--format=json")


@st.composite
def _argvs(draw):
    # A well-formed request cut into pieces, each an option with its value
    # or a lone token; in half the draws one to three random pieces join
    # them, the pieces are shuffled, and in half the draws one is dropped.
    base = draw(st.sampled_from(WELL_FORMED))
    name, tokens = base[0], base[1:]
    options = sorted(cli._SUBPARSERS[name]._option_string_actions)
    pieces = []
    while tokens:
        width = 2 if tokens[0].startswith("-") else 1
        pieces.append(tokens[:width])
        tokens = tokens[width:]
    value = st.sampled_from(_VALUES)
    extra = st.one_of(
        st.tuples(st.sampled_from(options), value),
        st.tuples(value),
        st.tuples(st.sampled_from(_SPELLINGS)),
        st.builds(lambda option, v: (f"{option}={v}",), st.sampled_from(options), value),
    )
    extras = draw(st.one_of(st.just([]), st.lists(extra, min_size=1, max_size=3)))
    pieces = draw(st.permutations(pieces + extras))
    if pieces and draw(st.booleans()):
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    return (name, *(token for piece in pieces for token in piece))


class TestDirectParse:
    @pytest.mark.parametrize("argv", PARSE_CORPUS,
                             ids=lambda argv: " ".join(argv)[:80] or "<empty>")
    def test_same_outcome_as_argparse(self, argv):
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli._PARSER.parse_args, argv)

    @settings(max_examples=300, deadline=None)
    @given(_argvs())
    def test_same_outcome_as_argparse_on_random_argvs(self, argv):
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli._PARSER.parse_args, argv)

    @pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
    def test_well_formed_requests_parse_directly(self, argv):
        assert cli._parse_direct(argv) is not None

    @pytest.mark.parametrize("name,argv,expected_code", GOLDEN_CASES,
                             ids=[c[0] for c in GOLDEN_CASES])
    def test_well_formed_requests_never_reach_argparse(
        self, run_cli, monkeypatch, name, argv, expected_code
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a well-formed request went through argparse")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        code, out, err = run_cli(*argv)
        assert (code, err) == (expected_code, "")
        compare_golden(name, out)

    @pytest.mark.parametrize("name", sorted(cli._SUBPARSERS))
    def test_the_direct_parse_takes_every_store_action(self, name):
        # An option added in _build_parser reaches the direct parse by itself.
        actions = cli._SUBPARSERS[name]._actions
        options, positionals, _, _ = cli._DIRECT[name]
        assert set(options) == {
            option for action in actions if isinstance(action, argparse._StoreAction)
            for option in action.option_strings
        }
        assert positionals == [action for action in actions if not action.option_strings]


_TABLE_USAGE = """\
usage: selbergdim table [-h] --m-range LO..HI --n-range LO..HI
                        [--r-policy {all,only-n,only-n-minus-1}] [--out OUT]
                        [--format {pretty,json,csv}]
"""


class TestPinnedParserBytes:
    def test_table_help(self, run_cli, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli("table", "-h")
        assert (code, err) == (0, "")
        assert out == _TABLE_USAGE + """\

options:
  -h, --help            show this help message and exit
  --m-range LO..HI
  --n-range LO..HI
  --r-policy {all,only-n,only-n-minus-1}
                        which r values to include per (m, n)
  --out OUT             write to this file instead of stdout
  --format {pretty,json,csv}
                        output format
"""

    def test_invalid_r_policy(self, run_cli, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli("table", "--m-range", "1..2", "--n-range", "1..2",
                                 "--r-policy", "only_n")
        assert (code, out) == (1, "")
        prefix = "selbergdim table: error: argument --r-policy: invalid choice: 'only_n' "
        # Later argparse releases list the choices with str(), earlier ones with repr().
        assert err in {
            _TABLE_USAGE + prefix + "(choose from 'all', 'only-n', 'only-n-minus-1')\n",
            _TABLE_USAGE + prefix + "(choose from all, only-n, only-n-minus-1)\n",
        }


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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_table_out_to_a_full_device_is_one_io_error(self, run_cli):
        code, out, err = run_cli("table", "--m-range", "2..2", "--n-range", "4..4",
                                 "--out", "/dev/full")
        assert (code, out) == (1, "")
        assert err.startswith("selbergdim table: error: cannot write /dev/full: [Errno 28] ")
        assert err.count("\n") == 1


# A C0 control or DEL in an echoed path is written as \xNN.
_CONTROL_PATHS = [("a\x00b.json", "a\\x00b.json"), ("a\x1b[31mred.json", "a\\x1b[31mred.json"),
                  ("a\nb.json", "a\\x0ab.json"), ("a\x7fb.json", "a\\x7fb.json")]


class TestEchoedPaths:
    @pytest.mark.parametrize("path,shown", _CONTROL_PATHS, ids=repr)
    def test_classify_path_is_one_line_without_control_bytes(self, run_cli, path, shown):
        code, out, err = run_cli("classify", path)
        assert (code, out) == (1, "")
        assert err.startswith(f"selbergdim classify: error: cannot read {shown}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not re.search(r"[\x00-\x1f\x7f]", err[:-1])

    @pytest.mark.parametrize("path,shown", _CONTROL_PATHS, ids=repr)
    def test_table_out_path_is_one_line_without_control_bytes(
        self, run_cli, tmp_path, path, shown
    ):
        code, out, err = run_cli("table", "--m-range", "2..2", "--n-range", "4..4",
                                 "--out", str(tmp_path / "no" / path))
        assert (code, out) == (1, "")
        assert err.startswith(f"selbergdim table: error: cannot write {tmp_path}/no/{shown}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not re.search(r"[\x00-\x1f\x7f]", err[:-1])

    def test_an_ordinary_path_is_echoed_as_it_is(self, run_cli, tmp_path):
        path = str(tmp_path / "dir ü\\x41 'q'.json")
        code, _, err = run_cli("classify", path)
        assert code == 1
        assert err.startswith(f"selbergdim classify: error: cannot read {path}: ")


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

    def test_dims_pretty_n1_record_is_pinned(self, run_cli):
        # The pretty record of a series error: K and I unknown, hyp undefined,
        # and the error text on a line of its own.
        assert run_cli("dims", "-m", "2", "-n", "1", "-r", "1") == (2, (
            "m=2 n=1 r=1\n"
            "  D = 0\n"
            "  K = ?  (recursion=1, reduction=1, closed=1)\n"
            "  I = ?  (sum=-1, hyp=undefined, subtract=-1)\n"
            "  routes_agree = false\n"
            "  in_validity_range = false\n"
            "  hyp_error = denominator vanishes at term k=1 before the series terminates\n"
        ), "")

    def test_pretty_record_of_a_non_integral_i_hyp_is_pinned(self):
        row = replace_row(
            row_of(compute_record(DimQuery(3, 5, 2))), I_hyp=Fraction(23, 2), routes_agree=False
        )
        assert cli._record_pretty(row) == (
            "m=3 n=5 r=2\n"
            "  D = 20\n"
            "  K = ?  (recursion=8, reduction=8, closed=8)\n"
            "  I = ?  (sum=12, hyp=23/2, subtract=12)\n"
            "  routes_agree = false\n"
            "  in_validity_range = true\n"
        )

    @pytest.mark.parametrize("fmt", ["pretty", "csv"])
    def test_classify_point_and_infinity_violations_are_pinned(self, run_cli, tmp_path, fmt):
        # A point violation names its j; an infinity or a diagonal one has none.
        config = tmp_path / "config.json"
        config.write_text('{"m": 3, "g": "2/3", "lambdas": ["1", "1/5", "-6/5"]}')
        assert run_cli("classify", str(config), "--format", fmt) == (3, {
            "pretty": (
                "config: m=3 g=2/3 lambdas=[1, 1/5, -6/5]\n"
                "lambda_infinity = -4/3\n"
                "resonant_indices = []\n"
                "r = 0\n"
                "violations:\n"
                "  point: j=1 k=1 value=1\n"
                "  point: j=1 k=3 value=5\n"
                "  infinity: k=2 value=-2\n"
                "  infinity: k=3 value=-2\n"
                "  diagonal: k=3 value=2\n"
                "assumption_valid = false\n"
            ),
            "csv": (
                "m,n,r,lambda_infinity,assumption_valid,violations,D,K_recursion,"
                "K_reduction,K_closed,I_sum,I_hyp,I_subtract,routes_agree,in_validity_range\n"
                "3,3,0,-4/3,false,point:j=1:k=1:value=1;point:j=1:k=3:value=5;"
                "infinity:k=2:value=-2;infinity:k=3:value=-2;diagonal:k=3:value=2,,,,,,,,,\n"
            ),
        }[fmt], "")


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


# The per-cell rule of _csv_row, kept verbatim as an oracle.
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

    monkeypatch.setattr(cli, "classify", counting)
    code, out, _ = run_cli("classify", str(DATA_DIR / "config_resonant.json"), "--format", "json")
    assert code == 0
    assert json.loads(out)["dimensions"]["routes_agree"] is True
    assert len(calls) == 1


# The committed configs, and the golden of each argv that has one.
_CLASSIFY_CONFIGS = ("config_resonant.json", "config_violation.json", "config_m1.json")
_GOLDENS = {argv: (name, code) for name, argv, code in GOLDEN_CASES}


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("config", _CLASSIFY_CONFIGS)
def test_classify_builds_no_query_or_record(monkeypatch, run_cli, config, fmt):
    # Like dims, classify renders the one row of its block.
    argv = ("classify", str(DATA_DIR / config)) + (("--format", fmt) if fmt != "pretty" else ())
    expected = run_cli(*argv)
    if argv in _GOLDENS:
        name, code = _GOLDENS[argv]
        assert expected[0] == code
        compare_golden(name, expected[1])

    def refuse(*args, **kwargs):
        raise AssertionError("classify built a query or a record")

    for module in (dims, resonance, cli):
        for name in ("DimQuery", "DimensionRecord", "compute_record"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert run_cli(*argv) == expected


def _classify_output(path, cfg, fmt):
    # cli.main on the config written to ``path``: (exit code, stdout).
    path.write_text(json.dumps(resonance.config_to_json_dict(cfg)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["classify", str(path), "--format", fmt])
    return code, out.getvalue()


_SMALL_FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))


@st.composite
def _configs(draw):
    # About half the lambdas resonant: 2 lambda + g = k, an int.
    g = draw(_SMALL_FRACTIONS)
    resonant = st.builds(lambda k: (k - g) / 2, st.integers(-6, 6))
    lambdas = draw(st.lists(st.one_of(resonant, _SMALL_FRACTIONS), min_size=1, max_size=6))
    return resonance.ExponentConfig(m=draw(st.integers(1, 8)), g=g, lambdas=tuple(lambdas))


@settings(max_examples=150, deadline=None)
@given(_configs())
def test_classify_dimensions_are_dims_for_config(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "classify-config.json"
    json_code, json_out = _classify_output(path, cfg, "json")
    csv_code, csv_out = _classify_output(path, cfg, "csv")
    header, cells = (next(csv.reader([line])) for line in csv_out.splitlines())
    start = header.index("D")
    assert header[start:] == list(cli.CSV_COLUMNS[cli.CSV_COLUMNS.index("D"):])
    record_cells = cells[start:]
    try:
        _, rec = resonance.dims_for_config(cfg)
    except resonance.AssumptionViolatedError:
        assert json_code == csv_code == 3
        assert json.loads(json_out)["dimensions"] is None
        assert record_cells == [""] * len(record_cells)
        return
    assert json_code == csv_code == 0
    assert json.loads(json_out)["dimensions"] == record_json_dict(rec)
    assert record_cells == frozen_record_cells(row_of(rec))[cli.CSV_COLUMNS.index("D"):]


@settings(max_examples=150, deadline=None)
@given(_configs())
@example(resonance.ExponentConfig(m=2, g=Fraction(1, 3), lambdas=(Fraction(1, 5), Fraction(2, 7))))
@example(resonance.ExponentConfig(m=2, g=Fraction(1, 3), lambdas=(Fraction(1, 3), Fraction(2, 7))))
@example(resonance.ExponentConfig(m=2, g=Fraction(1), lambdas=(Fraction(1, 2), Fraction(-1, 2))))
def test_classify_json_is_json_dumps_of_the_report(cfg):
    # The templated report, with and without resonant indices, violations
    # and a record, is the bytes json.dumps(indent=2) writes for its dict.
    report = resonance.classify(cfg)
    try:
        _, rec = resonance.dims_for_config(cfg)
    except resonance.AssumptionViolatedError:
        rec = None
    expected = json.dumps({
        "config": resonance.config_to_json_dict(cfg),
        "lambda_infinity": format_rational(report.lambda_infinity),
        "resonant_indices": list(report.resonant_indices),
        "r": report.r,
        "violations": [
            {"condition": v.condition, "j": v.j, "k": v.k, "value": format_rational(v.value)}
            for v in report.violations
        ],
        "assumption_valid": report.assumption_valid,
        "dimensions": None if rec is None else record_json_dict(rec),
    }, indent=2) + "\n"
    row = None if rec is None else row_of(rec)
    assert cli._classify_json(cfg, report, row) == expected


# The values of a classify document. A long literal has 5,000 digits, past
# the int-to-str limit; a rational outside the strict p or p/q form has a
# trailing line break or space, a leading space, or is not one at all.
_LONG = "1" + "0" * 4999
_STRICT = st.one_of(
    st.integers(-9, 9).map(str), st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9))
)
_NOT_STRICT = st.one_of(
    st.tuples(_STRICT, st.sampled_from(["\n", " "])).map("".join),
    _STRICT.map(" {}".format),
    st.sampled_from(["1.5", "1 /2", "1e3", "", "+-1", "١/٢"]),
)
# Each fault a document may take, by name. A g or a lambda is replaced by
# a value drawn here; so is a field, given as (name, JSON text or None for
# a missing field).
_FAULTY_RATIONALS = {
    "wrong type": st.sampled_from([1.5, 2, True, None, [], {}]),
    "long": st.sampled_from([_LONG, f"{_LONG}/3", f"-1/{_LONG}"]),
    "zero denominator": st.integers(-9, 9).map("{}/0".format),
    "not strict": _NOT_STRICT,
}
_FAULTY_FIELDS = (
    st.tuples(st.just("m"), st.sampled_from(
        ["0", "-2", "1.5", "true", "null", '"2"', "[2]", _LONG, "-" + _LONG, "1" + "0" * 30]
    )),
    st.tuples(st.just("lambdas"), st.sampled_from(['"1/2"', "null", "[]", "{}"])),
    st.tuples(st.sampled_from(["m", "g", "lambdas"]), st.none()),
    st.just(("n", "3")),
)


@st.composite
def _classify_documents(draw):
    """A classify document as JSON text, and whether each rational drawn for it is strict.

    A well-formed document takes at most one fault of a g or a lambda and
    one of a field.
    """
    rationals = draw(st.lists(_STRICT, min_size=2, max_size=5))  # g, then the lambdas
    strict = True
    for fault in draw(st.lists(st.sampled_from(list(_FAULTY_RATIONALS)), max_size=1)):
        rationals[draw(st.integers(0, len(rationals) - 1))] = draw(_FAULTY_RATIONALS[fault])
        strict = fault != "not strict"
    fields = {
        "m": str(draw(st.integers(1, 6))),
        "g": json.dumps(rationals[0]),
        "lambdas": json.dumps(rationals[1:]),
    }
    for name, text in draw(st.lists(st.one_of(*_FAULTY_FIELDS), max_size=1)):
        fields[name] = text
    present = ", ".join(f'"{name}": {text}' for name, text in fields.items() if text is not None)
    return "{" + present + "}", strict


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        _classify_documents(),
        st.tuples(st.sampled_from(["[]", "1", '"x"', "", "{", "NaN", '{"m": 2, "m": 3}']),
                  st.just(True)),
    ),
    st.sampled_from(cli.FORMATS),
)
@example(("[" * 100000, True), "json")
def test_classify_any_document_exits_with_a_documented_code(tmp_path_factory, document, fmt):
    doc, strict = document
    path = tmp_path_factory.getbasetemp() / "classify-document.json"
    path.write_text(doc, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["classify", str(path), "--format", fmt])
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_ASSUMPTION)
    if code == cli.EXIT_USAGE:
        # One line of the package's own, never the interpreter's digit-limit text.
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n") and "set_int_max_str_digits" not in err.getvalue()
    else:
        assert out.getvalue() and err.getvalue() == ""
    assert strict or code == cli.EXIT_USAGE


# Option values for the argv property: values at and around the domain edges,
# negative and malformed ones, and one with more digits than the int-to-str
# limit. Every m, n and range stays <= 60 and every --cases <= 50, so each
# request is small.
_HUGE = "1" * 5000
_BAD_INTS = ("", "x", " 4", "1_0", "2.0", _HUGE, f"-{_HUGE}")
_EDGE_INTS = st.sampled_from((-1, 0, 1, 2, 3, 58, 59, 60))
_INT_TOKENS = st.one_of(_EDGE_INTS.map(str), st.sampled_from(_BAD_INTS))
_RANGES = st.one_of(
    # lo..hi with hi a little past lo, equal to it or below it.
    st.builds(lambda lo, step: f"{lo}..{min(lo + step, 60)}", _EDGE_INTS, st.integers(-1, 2)),
    _EDGE_INTS.map(str),
    st.sampled_from(
        ("", "..", "2..", "..3", "2..x", "1..2..3", "3...4", f"{_HUGE}..2", f"1..{_HUGE}")
    ),
)


@st.composite
def _request_argvs(draw, tmp_dir):
    """An argv of ``dims``, ``table`` or ``verify``, each option drawn from its own values.

    An option, required or not, may be left out, and a ``--out`` path may
    hold a line break or a NUL, or name a directory that does not exist.
    """
    options = {
        "dims": {"-m": _INT_TOKENS, "-n": _INT_TOKENS, "-r": _INT_TOKENS},
        "table": {
            "--m-range": _RANGES, "--n-range": _RANGES,
            "--r-policy": st.sampled_from((*cli._R_POLICY_NAMES, "only_n", "")),
            "--out": st.sampled_from((
                f"{tmp_dir}/table.out", f"{tmp_dir}/no/such dir/t.csv", f"{tmp_dir}/no\n/t.csv",
                f"{tmp_dir}/a\x00b.csv", f"{tmp_dir}/new\nline.csv",
            )),
        },
        "verify": {
            "suite": st.sampled_from((*cli.SUITE_NAMES, "all", "everything", "")),
            "--seed": st.sampled_from(("-1", "0", "1", str(2**64), *_BAD_INTS)),
            "--cases": st.sampled_from(("-1", "0", "1", "2", "50", *_BAD_INTS)),
        },
    }
    command = draw(st.sampled_from(sorted(options)))
    argv = [command]
    formats = st.sampled_from((*cli.FORMATS, "xml"))
    for option, values in [*options[command].items(), ("--format", formats)]:
        if draw(st.integers(0, 5)):  # left out one time in six
            value = draw(values)
            argv += [value] if option == "suite" else [option, value]
    return argv


@settings(max_examples=800, deadline=None, derandomize=True)
@given(st.data())
def test_any_request_argv_exits_with_a_documented_code(tmp_path_factory, data):
    argv = data.draw(_request_argvs(tmp_path_factory.getbasetemp()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, by_argparse = cli.main(argv), False
        except SystemExit as exc:
            code, by_argparse = exc.code, True
    err = err.getvalue()
    if by_argparse:
        assert code == cli.EXIT_USAGE
    else:
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DISAGREEMENT, cli.EXIT_ASSUMPTION)
        # An error the package reports is one line, with no control byte; any
        # other exit writes no error.
        assert err.count("\n") == (code == cli.EXIT_USAGE) and err.endswith("\n") == bool(err)
        assert not re.search(r"[\x00-\x1f\x7f]", err[:-1])
    assert "set_int_max_str_digits" not in err
    if "int-to-str limit" in err:
        assert any(sum(map(str.isdigit, token)) > cli._digit_limit() for token in argv)
