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
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR, GOLDEN_CASES, compare_golden, frozen_record_cells, record_json_dict, row_of,
)
import selbergdim
from selbergdim import cli, dims, resonance
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


# Argument lists on which the one-level parse of ``cli._parse_args`` must
# behave exactly as the two-level ``cli._PARSER.parse_args``: valid requests,
# option spellings, help, each kind of usage error, and the fallbacks.
PARSE_CORPUS = [
    ("dims", "-m", "4", "-n", "5", "-r", "3"),
    ("table", "--m-range", "2..4", "--n-range", "4..6", "--r-policy", "only-n"),
    ("classify", "config.json"),
    ("verify", "pfaff", "--seed", "7", "--cases", "5"),
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
]


def parse_outcome(parse, argv, capsys):
    """(exit code, the namespace's vars, stdout, stderr) of one parse; None for no exit."""
    code = namespace = None
    try:
        namespace = vars(parse(list(argv)))
    except SystemExit as exc:
        code = exc.code
    return (code, namespace, *capsys.readouterr())


class TestOneLevelParse:
    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "<empty>")
    def test_same_outcome_as_the_two_level_parse(self, capsys, argv):
        assert parse_outcome(cli._parse_args, argv, capsys) == parse_outcome(
            cli._PARSER.parse_args, argv, capsys
        )

    def test_a_named_subcommand_skips_the_top_level_parser(self, run_cli, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a subcommand's request went through the top-level parser")

        expected = run_cli("dims", "-m", "4", "-n", "5", "-r", "3", "--format", "csv")
        monkeypatch.setattr(cli._PARSER, "parse_known_args", refuse)
        assert run_cli("dims", "-m", "4", "-n", "5", "-r", "3", "--format", "csv") == expected
        assert expected[0] == 0


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
