from __future__ import annotations

import operator
import os
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest

from selbergdim import cli, dims
from selbergdim.exactnum import format_rational

GOLDEN_DIR = Path(__file__).parent / "golden"
DATA_DIR = Path(__file__).parent / "data"

# One row per committed CLI fixture: (fixture file, argv, expected exit code).
# test_cli checks them one by one; the acceptance suite runs the whole list.
GOLDEN_CASES: list[tuple[str, tuple[str, ...], int]] = [
    ("dims_4_5_3.json", ("dims", "-m", "4", "-n", "5", "-r", "3", "--format", "json"), 0),
    ("dims_2_4_4.txt", ("dims", "-m", "2", "-n", "4", "-r", "4"), 0),
    ("dims_2_4_4.csv", ("dims", "-m", "2", "-n", "4", "-r", "4", "--format", "csv"), 0),
    (
        "table_m2-4_n4-6_only_n.csv",
        ("table", "--m-range", "2..4", "--n-range", "4..6", "--r-policy", "only-n",
         "--format", "csv"),
        0,
    ),
    (
        "table_m2_n4_all.txt",
        ("table", "--m-range", "2..2", "--n-range", "4..4", "--format", "pretty"),
        0,
    ),
    (
        "table_m2_n4_all.json",
        ("table", "--m-range", "2..2", "--n-range", "4..4", "--format", "json"),
        0,
    ),
    ("classify_resonant.txt", ("classify", str(DATA_DIR / "config_resonant.json")), 0),
    (
        "classify_resonant.json",
        ("classify", str(DATA_DIR / "config_resonant.json"), "--format", "json"),
        0,
    ),
    (
        "classify_resonant.csv",
        ("classify", str(DATA_DIR / "config_resonant.json"), "--format", "csv"),
        0,
    ),
    ("classify_violation.txt", ("classify", str(DATA_DIR / "config_violation.json")), 3),
    (
        "classify_violation.json",
        ("classify", str(DATA_DIR / "config_violation.json"), "--format", "json"),
        3,
    ),
    ("classify_m1.json", ("classify", str(DATA_DIR / "config_m1.json"), "--format", "json"), 0),
    ("verify_hockey.txt", ("verify", "hockey"), 0),
    (
        "verify_pfaff_seed7.json",
        ("verify", "pfaff", "--seed", "7", "--cases", "500", "--format", "json"),
        0,
    ),
    ("verify_all.csv", ("verify", "all", "--format", "csv"), 0),
]


@pytest.fixture
def run_cli(capsys):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""

    def runner(*argv: str) -> tuple[int, str, str]:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        out, err = capsys.readouterr()
        return code, out, err

    return runner


def compare_golden(name: str, actual: str) -> None:
    """Byte-compare against a committed fixture; UPDATE_GOLDENS=1 rewrites it."""
    path = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDENS") == "1":
        path.write_text(actual, encoding="utf-8")
    expected = path.read_text(encoding="utf-8")
    assert actual == expected, f"output differs from committed fixture {name}"


# A record's JSON values, in RECORD_COLUMNS order, K and I through its properties.
_record_values = operator.attrgetter("query.m", "query.n", "query.r", *cli.RECORD_COLUMNS[3:])


def record_json_dict(rec) -> dict[str, Any]:
    """The reference the JSON templates are tested against, read from the record itself.

    Rationals become p/q text; ints, bools, strings and None stay as they are.
    """
    return {
        column: format_rational(value) if type(value) is Fraction else value
        for column, value in zip(cli.RECORD_COLUMNS, _record_values(rec))
    }


# The layout of a row, the flat tuple every record renderer of the CLI takes,
# from its one definition in ``dims``: m, n, r, then the record's fields after
# its query, in their order. A record's row, read field by field, is the
# oracle the row builders of ``dims`` are tested against.
ROW_COLUMNS = dims._ROW_FIELDS
row_of = operator.attrgetter(
    *(f"query.{name}" for name in ROW_COLUMNS[:dims._QUERY]), *ROW_COLUMNS[dims._QUERY:]
)


def replace_row(row: tuple, **values: Any) -> tuple:
    """``row`` with the named fields set to ``values``."""
    return tuple(values.get(name, value) for name, value in zip(ROW_COLUMNS, row))


# A record's CSV cells as they were made before its line became one
# template, kept verbatim as an oracle: the line was _csv_row of these.
_FROZEN_CSV_VALUES = operator.itemgetter(*map(ROW_COLUMNS.index, cli.CSV_COLUMNS))


def frozen_record_cells(row) -> list[str]:
    # An int as digits, a bool as true/false, a missing I_hyp as an empty
    # cell and a rational as p/q text.
    return [
        str(v) if type(v) is int else cli._bool_str[v] if type(v) is bool
        else "" if v is None else format_rational(v)
        for v in _FROZEN_CSV_VALUES(row)
    ]


_TRUE_D_LEVELS = dims._d_levels


class DLevels(list):
    """``dims._d_levels(m, n, r)``, the D levels both K-row builders take, which keeps its n.

    A builder takes only m, r and this list, so a test that calls one at a
    point builds its list here, and a test that patches ``dims._d_levels``
    with this class reads each builder call's n from its list.
    """

    def __init__(self, m: int, n: int, r: int) -> None:
        super().__init__(_TRUE_D_LEVELS(m, n, r))
        self.n = n
